package main

import (
	"fmt"
	"slices"
	"strings"

	"lfi/internal/apps"
	"lfi/internal/core"
	"lfi/internal/corpus"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/profiler"
	"lfi/internal/vm"
)

// A workload turns a seed into the generated inputs the program sees —
// binaries, fault profiles and an experiment plan — through the same
// public entry points a user's campaign goes through. Each input build
// is one cold set-up: compile, generate, profile (or load the profile)
// and plan.

// target is one campaign of a workload: a configured program and its
// experiment plan. A repetition of the workload sweeps every target once.
type target struct {
	name string
	cfg  core.CampaignConfig
	exps []core.Experiment
}

// workload is one named benchmark input. corpusFuncs sizes the generated
// errno-corpus library (fullCorpus in the benchmark, smaller in the
// package tests); resume marks the workload whose repetitions resume a
// campaign killed after the first resumeShare of its plan.
type workload struct {
	name   string
	resume bool
	build  func(seed int64, corpusFuncs int, tr *tracer) ([]target, error)
}

// resumeShare is the fraction of the plan the killed campaign completed
// before a resume-corpus repetition picks it up.
const resumeShare = 0.75

// fullCorpus is the errno-corpus library's function count.
const fullCorpus = 2400

// The workloads stress different layers: errno-corpus has short runs, a
// 612-function stub surface and memo groups of at most 3, where memo
// loses; errno-heavy a long deterministic prefix, where memo wins;
// avail-minidb long runs in kernel sockets and budget-bound wedges;
// resume-corpus the campaign store beside a quarter of errno-corpus.
var workloads = []workload{
	{name: "errno-corpus", build: buildCorpus},
	{name: "errno-heavy", build: buildHeavy},
	{name: "avail-minidb", build: buildAvail},
	{name: "resume-corpus", resume: true, build: buildCorpus},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// smallVM right-sizes the address space of the errno targets, as the
// repository's sweep benchmarks do: the guests touch a few KB.
var smallVM = vm.Options{StackSize: 1 << 16, HeapLimit: 1 << 18}

// corpusAppName is the generated application of the errno-corpus target.
const corpusAppName = "corpus-app"

// buildCorpus is the paper's exhaustive errno sweep at libxml2 scale: a
// generated library profiled in-process with both §3.1 heuristics, and
// an application that calls a fixed-shape share of its functions with
// error codes (corpusShape).
func buildCorpus(seed int64, corpusFuncs int, tr *tracer) ([]target, error) {
	sp := tr.begin("build.compile")
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	lib, err := corpus.Generate(corpus.Traits{
		Name: "libbig.so", Seed: seed, NumFuncs: corpusFuncs, TPItems: corpusFuncs,
	})
	if err != nil {
		return nil, err
	}
	tr.end(sp)

	sp = tr.begin("build.profile")
	pr := profiler.New(profiler.Options{DropZeroReturns: true, DropPredicates: true})
	if err := pr.AddLibrary(lib.Object); err != nil {
		return nil, err
	}
	p, err := pr.ProfileLibrary(lib.Object.Name)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	tr.add("profiler.states", float64(pr.Stats().StatesExpanded))

	src, p, err := corpusAppSource(lib, p, corpusFuncs)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("build.compile")
	app, err := minic.Compile(corpusAppName, src, obj.Executable)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", corpusAppName, err)
	}
	tr.end(sp)

	sp = tr.begin("core.plan")
	set := profile.Set{p.Library: p}
	exps := core.PlanExperiments(set)
	tr.end(sp)
	return []target{{
		name: corpusAppName,
		cfg: core.CampaignConfig{
			Programs:   []*obj.File{lc, lib.Object, app},
			Executable: corpusAppName,
			Profiles:   set,
			VM:         smallVM,
		},
		exps: exps,
	}}, nil
}

// corpusShape fixes the errno-corpus fault space per 1000 generated
// functions: how many profiled functions of each return kind and
// error-code count the application calls: 936 experiments over 612
// functions at full scale. A seed changes the library's code and which
// functions fill each slot, not the campaign's shape, so a run's cost
// stays comparable across seeds. Each quota sits more than three
// standard deviations below what a generated library offers.
var corpusShape = []struct {
	ptr   bool
	codes int
	per1k int
}{
	{false, 1, 110}, {false, 2, 45}, {false, 3, 45}, {true, 1, 55},
}

// corpusAppSource generates the errno-corpus application from the
// library's documented signatures: a 1000-iteration compute prefix,
// then one success-path call to each function of the corpusShape, the
// shapes interleaved in a fixed order. Two of every three results are
// checked against the profiled error returns (an injected fault exits
// with a distinct code); the third is used unchecked, and unchecked
// pointer results are dereferenced. The clean run exits 0, and the
// sweep mixes handled, error-exit and crash outcomes. It returns the
// profile restricted to the called functions: the campaign's fault
// space.
func corpusAppSource(lib *corpus.Library, p *profile.Profile, funcs int) (string, *profile.Profile, error) {
	type call struct {
		fn     *profile.Function
		ptr    bool
		params string
	}
	slots := make([][]call, len(corpusShape))
	for i := range p.Functions {
		fn := &p.Functions[i]
		if len(fn.ErrorCodes) == 0 {
			continue
		}
		page, ok := lib.Docs.Pages[fn.Name]
		if !ok {
			return "", nil, fmt.Errorf("corpus app: no synopsis for %s", fn.Name)
		}
		if strings.HasPrefix(page.Synopsis, "void ") {
			continue
		}
		ptr, params, err := parseSynopsis(page.Synopsis, fn.Name)
		if err != nil {
			return "", nil, err
		}
		for s, sh := range corpusShape {
			if sh.ptr == ptr && sh.codes == len(fn.ErrorCodes) && len(slots[s]) < sh.per1k*funcs/1000 {
				slots[s] = append(slots[s], call{fn, ptr, params})
				break
			}
		}
	}
	// Interleave the shapes: each position takes the shape furthest
	// behind its share of the calls made so far.
	total := 0
	for _, sl := range slots {
		total += len(sl)
	}
	if total == 0 {
		return "", nil, fmt.Errorf("corpus app: %s has no function with an error code", lib.Object.Name)
	}
	var decls, body strings.Builder
	decls.WriteString("needs \"libc.so\";\nneeds \"" + lib.Object.Name + "\";\n")
	swept := &profile.Profile{Library: p.Library}
	used := make([]int, len(slots))
	for k := 0; k < total; k++ {
		best, lag := -1, 0.0
		for s, sl := range slots {
			if used[s] == len(sl) {
				continue
			}
			if d := float64(len(sl)*(k+1))/float64(total) - float64(used[s]); best < 0 || d > lag {
				best, lag = s, d
			}
		}
		c := slots[best][used[best]]
		used[best]++
		swept.Functions = append(swept.Functions, *c.fn)
		ret := "int "
		if c.ptr {
			ret = "byte *"
		}
		fmt.Fprintf(&decls, "extern %s%s(%s);\n", ret, c.fn.Name, c.params)
		var args []string
		for _, prm := range strings.Split(c.params, ",") {
			if strings.Contains(prm, "*") {
				args = append(args, "&e")
			} else {
				// 1000 is past every generated error guard (a0 == -k,
				// a0 < -9, phantom ranges), and keeps computed success
				// values positive, so no success collides with a code.
				args = append(args, "1000")
			}
		}
		expr := fmt.Sprintf("%s(%s)", c.fn.Name, strings.Join(args, ", "))
		checked := k%3 != 2
		code := 1 + k%100
		switch {
		case c.ptr && checked:
			fmt.Fprintf(&body, "  p = %s;\n  if (p == 0) { return %d; }\n", expr, code)
		case c.ptr:
			fmt.Fprintf(&body, "  p = %s;\n  acc = acc + p[0];\n", expr)
		case checked:
			var conds []string
			for _, rv := range slices.Compact(c.fn.Retvals()) {
				conds = append(conds, fmt.Sprintf("r == %d", rv))
			}
			fmt.Fprintf(&body, "  r = %s;\n  if (%s) { return %d; }\n", expr, strings.Join(conds, " || "), code)
		default:
			fmt.Fprintf(&body, "  r = %s;\n  acc = acc + r;\n", expr)
		}
	}
	return decls.String() + `
int main(void) {
  int i;
  int acc;
  int r;
  int e;
  byte *p;
  acc = 0;
  e = 0;
  for (i = 0; i < 1000; i = i + 1) { acc = acc + i; }
` + body.String() + "  return 0;\n}\n", swept, nil
}

// parseSynopsis splits a generated prototype such as
// "byte* big_load3(int a0, int a1, int *err_out)" into whether it
// returns a pointer and its parameter list.
func parseSynopsis(syn, name string) (ptr bool, params string, err error) {
	open := strings.Index(syn, name+"(")
	if open < 0 || !strings.HasSuffix(syn, ")") {
		return false, "", fmt.Errorf("corpus app: unexpected synopsis %q", syn)
	}
	return strings.Contains(syn[:open], "*"), syn[open+len(name)+1 : len(syn)-1], nil
}

// heavyApp is the repository's prefix-memoization benchmark guest
// (BenchmarkSweepMemo): a 60k-iteration startup before the first
// injectable call.
const heavyApp = `
needs "libc.so";
needs "libbig.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int write(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern tls int errno;
int main(void) {
  int fd;
  int n;
  int i;
  int acc;
  byte buf[32];
  byte *p;
  acc = 0;
  for (i = 0; i < 60000; i = i + 1) { acc = acc + i; }
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }
  n = read(fd, buf, 31);
  if (n < 0) { n = 0; }
  close(fd);
  p = malloc(64);
  if (p == 0) { return 7; }
  p[0] = 'x';
  write(1, buf, n);
  return 0;
}
`

// buildHeavy is BenchmarkSweepMemo's target: the heavy-startup guest, a
// 400-function corpus library it loads but barely uses (seeded), and an
// exhaustive-style profile of 8 errnos for each of 5 libc I/O calls — 40
// experiments over 5 first-fire sites. The profile is loaded from its
// XML form, as `lfi sweep -profile` loads a profile file.
func buildHeavy(seed int64, _ int, tr *tracer) ([]target, error) {
	sp := tr.begin("build.compile")
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	big, err := corpus.Generate(corpus.Traits{Name: "libbig.so", Seed: seed, NumFuncs: 400})
	if err != nil {
		return nil, err
	}
	app, err := minic.Compile("memoized", heavyApp, obj.Executable)
	if err != nil {
		return nil, err
	}
	tr.end(sp)

	codes := func(retval int32, errnos ...int32) []profile.ErrorCode {
		var out []profile.ErrorCode
		for _, e := range errnos {
			out = append(out, profile.ErrorCode{Retval: retval, SideEffects: []profile.SideEffect{
				{Type: profile.SideEffectTLS, Module: libc.Name, Value: e},
			}})
		}
		return out
	}
	set, err := loadProfile(tr, &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: codes(-1, 1, 2, 4, 12, 13, 20, 23, 24)},
			{Name: "read", ErrorCodes: codes(-1, 4, 5, 9, 11, 12, 14, 21, 22)},
			{Name: "close", ErrorCodes: codes(-1, 4, 5, 9, 11, 14, 22, 23, 25)},
			{Name: "malloc", ErrorCodes: codes(0, 1, 2, 4, 5, 11, 12, 14, 22)},
			{Name: "write", ErrorCodes: codes(-1, 4, 5, 9, 11, 14, 22, 27, 28)},
		},
	})
	if err != nil {
		return nil, err
	}

	sp = tr.begin("core.plan")
	exps := core.PlanExperiments(set)
	tr.end(sp)
	return []target{{
		name: "memoized",
		cfg: core.CampaignConfig{
			Programs:   []*obj.File{lc, big.Object, app},
			Executable: "memoized",
			Profiles:   set,
			Files:      map[string][]byte{"/data": []byte("mode=bench\n")},
			VM:         smallVM,
		},
		exps: exps,
	}}, nil
}

// loadProfile round-trips a hand-written profile through its XML file
// form; only the parse, which is what the program does with a profile
// file, is timed as the profile stage.
func loadProfile(tr *tracer, p *profile.Profile) (profile.Set, error) {
	blob, err := p.Marshal()
	if err != nil {
		return nil, err
	}
	sp := tr.begin("build.profile")
	loaded, err := profile.Unmarshal(blob)
	if err != nil {
		return nil, err
	}
	tr.end(sp)
	return profile.Set{loaded.Library: loaded}, nil
}

// buildAvail is experiments.Availability's pair of campaigns: the
// retrying and the non-retrying minidb server, each driven by its
// generated traffic client, under the availability fault matrix of the
// two server calls every request makes. The guests, their traffic and
// the fault window are fixed, so the seed changes nothing here: a seeded
// window would move the site of every memoized prefix, and with it the
// run's cost.
func buildAvail(_ int64, _ int, tr *tracer) ([]target, error) {
	var out []target
	for _, server := range []string{"minidb", "minidb-nr"} {
		sp := tr.begin("build.compile")
		lc, err := libc.Compile()
		if err != nil {
			return nil, err
		}
		client := apps.AvailClientName(server)
		progs := []*obj.File{lc}
		for _, n := range []string{server, client} {
			f, err := apps.Compile(n)
			if err != nil {
				return nil, fmt.Errorf("compile %s: %w", n, err)
			}
			progs = append(progs, f)
		}
		tr.end(sp)

		set, err := loadProfile(tr, &profile.Profile{
			Library: libc.Name,
			Functions: []profile.Function{
				{Name: "accept", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
				{Name: "write", ErrorCodes: []profile.ErrorCode{{Retval: -1}}},
			},
		})
		if err != nil {
			return nil, err
		}

		sp = tr.begin("core.plan")
		exps := core.AvailabilityExperiments(set, apps.AvailAfter)
		tr.end(sp)
		out = append(out, target{
			name: server,
			cfg: core.CampaignConfig{
				Programs:   progs,
				Executable: client,
				Profiles:   set,
				Files:      apps.WWWFiles(),
				Avail:      &core.AvailSpec{Client: client},
			},
			exps: exps,
		})
	}
	return out, nil
}
