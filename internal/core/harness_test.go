package core_test

// The determinism harness. Its invariant is one sentence: a sweep's
// report depends only on (binaries, profiles, plan, budget). The oracle
// is the fresh-spawn executor at one worker on the block engine
// (SweepOptions{Workers: 1}); every relation is a change of executor
// configuration that must leave the report, and each run's cycles and
// injection log, exactly as the oracle has them. Adding an executor
// axis means adding one leg to checkSweepInvariant.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lfi/internal/audit"
	"lfi/internal/campaign"
	"lfi/internal/core"
	"lfi/internal/corpus"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/profiler"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// draws are one input's choices for the relations.
type draws struct {
	// maxCrashes is the early-stop threshold of the oracle and of every
	// leg; 0 sweeps the whole plan.
	maxCrashes int
	// order, when set, is the execution order (core.StaticOrder) of
	// every leg but "store"; the oracle keeps plan order. Only a full
	// sweep reassembles to plan order, so order excludes maxCrashes.
	order []int
	// workers is the worker count of every leg that does not vary it.
	workers int
	// perm seeds the "store" leg's random permutation of the plan.
	perm int64
	// split is how many records the "resume" leg keeps of the campaign
	// store the "store" leg filled, modulo the record count plus one; a
	// negative split keeps them all.
	split int
}

// sweepRun is what one leg produced: the rendered report or the error,
// and the campaign store record (entry, cycles, injection-log digest,
// crash stack, coverage, degradation and availability payload) of every
// run OnResult saw, by experiment key. A pruned run is observed as the
// baseline run it replays.
type sweepRun struct {
	report string
	err    error
	runs   map[string]campaign.Record
}

// observe sweeps through campaign.Sweep (a nil store is a plain sweep)
// and records every run.
func observe(cfg core.CampaignConfig, exps []core.Experiment, budget uint64, opts core.SweepOptions, store *campaign.Store, resume bool) sweepRun {
	var mu sync.Mutex
	runs := make(map[string]campaign.Record, len(exps))
	opts.OnResult = func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
		rec := campaign.NewRecord(exp, entry, rep)
		mu.Lock()
		runs[exp.Key()] = rec
		mu.Unlock()
	}
	res, err := campaign.Sweep(cfg, exps, budget, opts, store, resume)
	out := sweepRun{err: err, runs: runs}
	if err == nil {
		out.report = res.Render()
	}
	return out
}

// checkSweepInvariant runs the oracle once and checks every relation
// against it. The legs run the production executor (snapshot restores
// with prefix memoization and baseline pruning) at 4 and 8 workers; and
// at d.workers with a one-byte memo budget (no rungs: every run starts
// from the entry), on the step engine, and — with live progress reporting, as `lfi sweep
// -progress` runs — in a random execution order writing a campaign
// store ("store"; plan order under an early stop) and resumed from that
// store killed mid-append after d.split records ("resume"). Each leg
// must fail as the oracle fails or render its report byte for byte,
// and every run both executed must have an identical record; the
// resumed store must hold the oracle's record under every key.
//
// Under -race the step leg and, unless d.workers is 1, the 4- and
// 8-worker legs are skipped: the plain run checks those relations, and
// every other leg already runs concurrently at d.workers.
func checkSweepInvariant(t *testing.T, cfg core.CampaignConfig, exps []core.Experiment, budget uint64, d draws) {
	t.Helper()
	cfg.VM.Engine = vm.EngineBlock
	oracle := observe(cfg, exps, budget, core.SweepOptions{Workers: 1, MaxCrashes: d.maxCrashes}, nil, false)
	full := d.maxCrashes == 0 && oracle.err == nil

	prod := core.SweepOptions{Workers: d.workers, Snapshot: true, MaxCrashes: d.maxCrashes, ExecOrder: d.order}
	with := func(edit func(*core.SweepOptions)) core.SweepOptions {
		o := prod
		edit(&o)
		return o
	}
	legs := []struct {
		name   string
		engine string
		opts   core.SweepOptions
		skip   bool
	}{
		{"workers=4", vm.EngineBlock, with(func(o *core.SweepOptions) { o.Workers = 4 }), raceEnabled && d.workers > 1},
		{"workers=8", vm.EngineBlock, with(func(o *core.SweepOptions) { o.Workers = 8 }), raceEnabled && d.workers > 1},
		{"memo-budget=1", vm.EngineBlock, with(func(o *core.SweepOptions) { o.MemoBudget = 1 }), false},
		{"step", vm.EngineStep, prod, raceEnabled},
	}
	for _, l := range legs {
		if l.skip {
			continue
		}
		lcfg := cfg
		lcfg.VM.Engine = l.engine
		sameRun(t, l.name, oracle, observe(lcfg, exps, budget, l.opts, nil, false), full)
	}

	// An early stop truncates at the threshold in execution order, so
	// only a full sweep's report is order-independent.
	if d.maxCrashes == 0 {
		prod.ExecOrder = rand.New(rand.NewSource(d.perm)).Perm(len(exps))
	}
	prod.Progress = func(core.SweepProgress) {}
	dir := t.TempDir()
	store := openStore(t, dir)
	sameRun(t, "store", oracle, observe(cfg, exps, budget, prod, store, false), full)
	closeStore(t, store)
	if oracle.err != nil {
		return
	}
	kept := killStore(t, dir, d.split)
	store = openStore(t, dir)
	if n := len(store.Records()); n != kept {
		t.Fatalf("resume: %d records survived the kill, want %d", n, kept)
	}
	resumed := observe(cfg, exps, budget, prod, store, true)
	closeStore(t, store)
	sameRun(t, "resume", oracle, resumed, false)
	if full && len(resumed.runs) != len(exps)-kept {
		t.Errorf("resume: executed %d experiments with %d of %d served from the store",
			len(resumed.runs), kept, len(exps))
	}
	store = openStore(t, dir)
	recs := store.Completed()
	closeStore(t, store)
	if full && len(recs) != len(oracle.runs) {
		t.Errorf("resume: store holds %d keys, the oracle ran %d", len(recs), len(oracle.runs))
	}
	for key, rec := range recs {
		if o, ok := oracle.runs[key]; ok && !reflect.DeepEqual(rec, o) {
			t.Errorf("resume: stored %s: %+v, oracle %+v", key, rec, o)
		}
	}
}

// sameRun checks one leg against the oracle. full requires the leg to
// have run or pruned exactly the oracle's experiments; an early-stopped
// leg at several workers may also finish runs past the stop.
func sameRun(t *testing.T, leg string, oracle, got sweepRun, full bool) {
	t.Helper()
	if (got.err == nil) != (oracle.err == nil) || (got.err != nil && got.err.Error() != oracle.err.Error()) {
		t.Errorf("%s: err = %v, oracle err = %v", leg, got.err, oracle.err)
		return
	}
	if oracle.err != nil {
		return
	}
	if got.report != oracle.report {
		t.Errorf("%s: report differs from the oracle's:\n--- oracle ---\n%s--- %s ---\n%s",
			leg, oracle.report, leg, got.report)
	}
	for key, g := range got.runs {
		o, ok := oracle.runs[key]
		switch {
		case !ok:
			if full {
				t.Errorf("%s: %s ran, the oracle never ran it", leg, key)
			}
		case !reflect.DeepEqual(g, o):
			t.Errorf("%s: %s: run %+v, oracle %+v", leg, key, g, o)
		}
	}
	if full && len(got.runs) != len(oracle.runs) {
		t.Errorf("%s: %d runs observed, oracle %d", leg, len(got.runs), len(oracle.runs))
	}
}

func openStore(t *testing.T, dir string) *campaign.Store {
	t.Helper()
	s, err := campaign.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func closeStore(t *testing.T, s *campaign.Store) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// killStore leaves the store as a campaign killed mid-append leaves it:
// the first split%(n+1) of its n records (all n for a negative split),
// then half of the next line. It returns how many records it kept.
func killStore(t *testing.T, dir string, split int) int {
	t.Helper()
	path := filepath.Join(dir, campaign.StoreFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty remainder after the last newline
	k := len(lines)
	if split >= 0 {
		k = split % (len(lines) + 1)
	}
	out := bytes.Join(lines[:k], nil)
	if k < len(lines) {
		out = append(out, lines[k][:len(lines[k])/2]...)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return k
}

// FuzzCampaign feeds the harness. An input picks a plan shape, a guest
// (the high bit of guest turns VM coverage on, so store records
// compare coverage counts too), the generated guest's seed, the worker
// count, the permutation seed, the resume split and the cycle budget
// (0 is the default). The seed corpus holds the CLI workflows'
// applications and matrices, generated guests drawn as FuzzAudit draws
// them, and combinations no named test covers.
func FuzzCampaign(f *testing.F) {
	for _, in := range []struct {
		shape, guest uint8
		gen          int64
		workers      uint8
		perm         int64
		split        uint16
		budget       uint32
	}{
		// The CLI resume workflow: the crash app over the demo libc
		// profile, full and killed at the first crash.
		{shapeErrno, guestCLICrash, 0, 3, 11, 5, 0},
		{shapeMaxCrashes1, guestCLICrash, 0, 1, 0, 3, 0},
		// -faults degradation and -faults all over the open/write loop.
		{shapeDegradation, guestCLIFault, 0, 0, 12, 7, 0},
		{shapeAll, guestCLIFault | guestCoverage, 0, 3, 13, 40, 0},
		// -order=static: the audit fronts the unchecked allocation.
		{shapeStatic, guestCLICrash, 0, 7, 14, 9, 0},
		{shapeStatic, guestCLICrash | guestCoverage, 0, 0, 15, 0, 0},
		// Generated guests.
		{shapeErrno, guestCorpus, 1, 3, 16, 2, 0},
		{shapeDegradation, guestCorpus | guestCoverage, 7, 1, 17, 4, 0},
		{shapeRandom, guestCorpus, 42, 7, 18, 1, 0},
		{shapeStatic, guestCorpus, 20090629, 2, 19, 3, 0},
		// Later first-fire sites: members of a call-N rung resume its
		// evaluator counts and cycles (write is called four times;
		// wide's functions once, so their sites are never reached).
		{shapeAvailability, guestFault, 0, 3, 20, 2, 0},
		{shapeAvailability, guestWide, 0, 1, 21, 8, 0},
		{shapeRandom, guestWide | guestCoverage, 0, 7, 22, 6, 0},
		{shapeMaxCrashes2, guestMixed, 0, 3, 0, 100, 0},
		// A budget the baseline survives but stalled runs exhaust.
		{shapeDegradation, guestFault, 0, 3, 23, 3, 2_000_000},
	} {
		f.Add(in.shape, in.guest, in.gen, in.workers, in.perm, in.split, in.budget)
	}
	f.Fuzz(func(t *testing.T, shape, guest uint8, gen int64, workers uint8, perm int64, split uint16, budget uint32) {
		cfg, set := harnessGuest(t, guest&^guestCoverage, gen)
		cfg.VM.Coverage = guest&guestCoverage != 0
		d := draws{workers: 1 + int(workers)%8, perm: perm, split: int(split)}
		exps := harnessMatrix(t, shape, &cfg, set, &d)
		checkSweepInvariant(t, cfg, exps, uint64(budget)%core.DefaultSweepBudget, d)
	})
}

// FuzzCampaign's guests; the high bit turns VM coverage on. The minidb
// availability campaign is no guest here: one minidb input runs for
// 14–21 s, and a fuzzing worker aborts any input that runs over 10 s.
// TestAvailabilitySweepDeterminism is its harness input.
const (
	guestMixed    = iota // mixedTarget
	guestWide            // wideTarget
	guestFault           // faultTarget
	guestCorpus          // corpusTarget, seeded by gen
	guestCLICrash        // cliCrashApp over the demo libc profile
	guestCLIFault        // faultApp over the demo libc profile
	numGuests

	guestCoverage = 0x80
)

func harnessGuest(t *testing.T, guest uint8, gen int64) (core.CampaignConfig, profile.Set) {
	switch guest % numGuests {
	case guestMixed:
		return mixedTarget(t)
	case guestWide:
		return wideTarget(t)
	case guestFault:
		return faultTarget(t)
	case guestCorpus:
		return corpusTarget(t, gen)
	case guestCLICrash:
		return cliTarget(t, cliCrashApp)
	default:
		return cliTarget(t, faultApp)
	}
}

// FuzzCampaign's plan shapes.
const (
	shapeErrno        = iota // core.PlanExperiments
	shapeDegradation         // core.DegradationExperiments
	shapeAll                 // both, as `lfi sweep -faults all`
	shapeAvailability        // core.AvailabilityExperiments
	shapeRandom              // the errno matrix plus seeded random triggers
	shapeStatic              // the errno matrix in audit-ranked order
	shapeMaxCrashes1         // the errno matrix, stopped at the first crash
	shapeMaxCrashes2         // ... at the second
	numShapes
)

// harnessMatrix builds a shape's experiments over the guest's profile
// set, setting the draws the shape fixes.
func harnessMatrix(t *testing.T, shape uint8, cfg *core.CampaignConfig, set profile.Set, d *draws) []core.Experiment {
	exps := core.PlanExperiments(set)
	switch shape % numShapes {
	case shapeDegradation:
		return core.DegradationExperiments(set)
	case shapeAll:
		return append(exps, core.DegradationExperiments(set)...)
	case shapeAvailability:
		// The windows fire from the second call on.
		return core.AvailabilityExperiments(set, 1)
	case shapeRandom:
		// One seeded random trigger on each of the first three
		// functions; random triggers draw their codes from the profiles.
		// Even seeds are precompiled, odd ones compiled per campaign.
		cfg.Profiles = set
		n := len(exps)
		for seed := int64(1); seed <= 3 && n > 0; seed++ {
			e := exps[int(seed-1)%n]
			plan := &scenario.Plan{Seed: seed, Triggers: []scenario.Trigger{{
				Function: e.Function, Probability: 60, Random: true,
			}}}
			exp := core.Experiment{Library: e.Library, Function: e.Function, Retval: e.Retval, Plan: plan}
			if seed%2 == 0 {
				exp.Compiled = scenario.MustCompile(plan, set)
			}
			exps = append(exps, exp)
		}
	case shapeStatic:
		var targets []string
		for _, p := range set {
			for _, fn := range p.Functions {
				targets = append(targets, fn.Name)
			}
		}
		res, err := audit.Analyze(cfg.Programs, targets, audit.Options{})
		if err != nil {
			t.Fatal(err)
		}
		d.order = core.StaticOrder(exps, res.Classes())
	case shapeMaxCrashes1:
		d.maxCrashes = 1
	case shapeMaxCrashes2:
		d.maxCrashes = 2
	}
	return exps
}

// cliCrashApp tolerates injected compare faults and dereferences an
// unchecked allocation: a crash for -max-crashes to stop at, a
// tolerated pair to escalate, and an unchecked site for the audit to
// front.
const cliCrashApp = `
needs "libc.so";
extern int strcmp(byte *a, byte *b);
extern int strncmp(byte *a, byte *b, int n);
extern byte *malloc(int n);
int main(void) {
  int r;
  byte *p;
  r = strcmp("a", "a");
  if (r != 0) { r = 0; }
  r = strncmp("ab", "ab", 2);
  if (r != 0) { r = 0; }
  p = malloc(4);
  p[0] = 'x';
  return 0;
}
`

// demoProfile is the libc profile `lfi demo` writes: both §3.1
// heuristics over libc and the kernel image.
var demoProfile = sync.OnceValues(func() (*profile.Profile, error) {
	lc, err := libc.Compile()
	if err != nil {
		return nil, err
	}
	l := core.New(core.Options{Heuristics: true})
	if err := l.AddKernelImage(); err != nil {
		return nil, err
	}
	if err := l.AddLibrary(lc); err != nil {
		return nil, err
	}
	return l.ProfileLibrary(libc.Name)
})

// cliTarget is an application swept the way the CLI sweeps it: libc,
// the demo libc profile, no kernel files.
func cliTarget(t *testing.T, src string) (core.CampaignConfig, profile.Set) {
	t.Helper()
	p, err := demoProfile()
	if err != nil {
		t.Fatal(err)
	}
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", src, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	return core.CampaignConfig{Programs: []*obj.File{lc, app}, Executable: "app"},
		profile.Set{libc.Name: p}
}

// corpusTarget is a generated guest: a six-function corpus library
// profiled with both §3.1 heuristics, and a MiniC caller that calls
// each profiled function once with arguments past every generated error
// guard. Two results of three are checked against the profiled error
// returns (an injected fault exits with a distinct code); the third is
// used unchecked, and an unchecked pointer is dereferenced.
func corpusTarget(t *testing.T, gen int64) (core.CampaignConfig, profile.Set) {
	t.Helper()
	lib, err := corpus.Generate(corpus.Traits{Name: "libfz.so", Seed: gen, NumFuncs: 6, TPItems: 6})
	if err != nil {
		t.Skip("generator rejected the seed")
	}
	pr := profiler.New(profiler.Options{DropZeroReturns: true, DropPredicates: true})
	if err := pr.AddLibrary(lib.Object); err != nil {
		t.Fatal(err)
	}
	p, err := pr.ProfileLibrary(lib.Object.Name)
	if err != nil {
		t.Fatal(err)
	}
	called := &profile.Profile{Library: p.Library}
	var decls, body strings.Builder
	for _, fn := range p.Functions {
		page := lib.Docs.Pages[fn.Name]
		if len(fn.ErrorCodes) == 0 || page == nil || strings.HasPrefix(page.Synopsis, "void ") {
			continue
		}
		open := strings.Index(page.Synopsis, fn.Name+"(")
		ptr := strings.Contains(page.Synopsis[:open], "*")
		var args []string
		for _, prm := range strings.Split(page.Synopsis[open+len(fn.Name)+1:len(page.Synopsis)-1], ",") {
			if strings.Contains(prm, "*") {
				args = append(args, "&e")
			} else {
				args = append(args, "1000")
			}
		}
		call := fmt.Sprintf("%s(%s)", fn.Name, strings.Join(args, ", "))
		k := len(called.Functions)
		called.Functions = append(called.Functions, fn)
		fmt.Fprintf(&decls, "extern %s;\n", page.Synopsis)
		switch checked := k%3 != 2; {
		case ptr && checked:
			fmt.Fprintf(&body, "  p = %s;\n  if (p == 0) { return %d; }\n", call, 10+k)
		case ptr:
			fmt.Fprintf(&body, "  p = %s;\n  acc = acc + p[0];\n", call)
		case checked:
			var conds []string
			for _, rv := range fn.Retvals() {
				conds = append(conds, fmt.Sprintf("r == %d", rv))
			}
			fmt.Fprintf(&body, "  r = %s;\n  if (%s) { return %d; }\n", call, strings.Join(conds, " || "), 10+k)
		default:
			fmt.Fprintf(&body, "  r = %s;\n  acc = acc + r;\n", call)
		}
	}
	src := "needs \"libc.so\";\nneeds \"libfz.so\";\n" + decls.String() + `
int main(void) {
  int r;
  int e;
  int acc;
  byte *p;
  acc = 0;
  e = 0;
` + body.String() + "  return 0;\n}\n"
	app, err := minic.Compile("app", src, obj.Executable)
	if err != nil {
		t.Fatalf("compile generated caller: %v\n%s", err, src)
	}
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return core.CampaignConfig{Programs: []*obj.File{lc, lib.Object, app}, Executable: "app"},
		profile.Set{called.Library: called}
}
