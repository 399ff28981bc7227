package lfi_test

// One benchmark per table and figure of the paper's evaluation (§6), plus
// microbenchmarks and ablations of the design choices described in
// doc.go; the recorded results are the BENCH_*.json files. Regenerate
// everything with:
//
//	go test -bench=. -benchmem
//
// Virtual-time metrics (vsec/op, vcycles/call) come from the VM's
// deterministic cycle accounting; wall-clock ns/op reflects the host.

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lfi/internal/asm"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/corpus"
	"lfi/internal/experiments"
	"lfi/internal/kernel"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/profiler"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// benchEnv caches the compiled environment across benchmarks.
var benchEnv *experiments.Env

func env(b *testing.B) *experiments.Env {
	b.Helper()
	if benchEnv == nil {
		e, err := experiments.NewEnv()
		if err != nil {
			b.Fatal(err)
		}
		benchEnv = e
	}
	return benchEnv
}

// BenchmarkFigure2CFG rebuilds the paper's example CFG.
func BenchmarkFigure2CFG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1SideChannelStats regenerates Table 1 on a 1000-function
// corpus slice (use cmd/lfi-bench -funcs 20000 for the paper-scale run).
func BenchmarkTable1SideChannelStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(1000, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.NoSideEffectFraction(), "%no-side-effects")
	}
}

// BenchmarkTable2ProfilerAccuracy regenerates the full 18-library accuracy
// table plus the libpcre baseline.
func BenchmarkTable2ProfilerAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*r.MeanAccuracy(), "%mean-accuracy")
	}
}

// BenchmarkProfilerEfficiency is the §6.2 series: profiling time per
// library size.
func BenchmarkProfilerEfficiency(b *testing.B) {
	for _, spec := range corpus.EfficiencySpecs() {
		spec := spec
		b.Run(spec.Traits.Name, func(b *testing.B) {
			lib, err := corpus.Generate(spec.Traits)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pr := profiler.New(profiler.Options{DropZeroReturns: true, DropPredicates: true})
				if err := pr.AddLibrary(lib.Object); err != nil {
					b.Fatal(err)
				}
				if _, err := pr.ProfileLibrary(spec.Traits.Name); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(lib.Object.Text))/1024, "codeKB")
		})
	}
}

// BenchmarkProfilerLibc profiles the synthetic libc with kernel-image
// recursion — the §3.1 wrapper analysis end to end.
func BenchmarkProfilerLibc(b *testing.B) {
	lc, err := libc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	img, err := kernel.Image()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := profiler.New(profiler.Options{DropZeroReturns: true})
		if err := pr.AddLibrary(lc); err != nil {
			b.Fatal(err)
		}
		if err := pr.AddLibrary(img); err != nil {
			b.Fatal(err)
		}
		if _, err := pr.ProfileLibrary(libc.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3ApacheOverhead reruns Table 3 cells; vsec/op is the
// virtual completion time of the request batch.
func BenchmarkTable3ApacheOverhead(b *testing.B) {
	e := env(b)
	for _, triggers := range []int{0, 1000} {
		for _, path := range []string{"/index.html", "/app.php"} {
			name := map[int]string{0: "baseline", 1000: "1000triggers"}[triggers] + path
			b.Run(name, func(b *testing.B) {
				var vsecs float64
				for i := 0; i < b.N; i++ {
					r, err := experiments.Table3Cell(e, triggers, path, 50)
					if err != nil {
						b.Fatal(err)
					}
					vsecs = r.Seconds()
				}
				b.ReportMetric(vsecs, "vsec/batch")
			})
		}
	}
}

// BenchmarkTable4MySQLOverhead reruns Table 4 cells; vtps is transactions
// per virtual second.
func BenchmarkTable4MySQLOverhead(b *testing.B) {
	e := env(b)
	for _, triggers := range []int{0, 1000} {
		for _, kind := range []string{"ro", "rw"} {
			name := map[int]string{0: "baseline", 1000: "1000triggers"}[triggers] + "/" + kind
			b.Run(name, func(b *testing.B) {
				var tps float64
				for i := 0; i < b.N; i++ {
					r, err := experiments.Table4Cell(e, triggers, kind == "rw", 30)
					if err != nil {
						b.Fatal(err)
					}
					tps = r.TPS()
				}
				b.ReportMetric(tps, "vtps")
			})
		}
	}
}

// BenchmarkPidginBugHunt finds and replays the §6.1 crash.
func BenchmarkPidginBugHunt(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.PidginBug(e, 60)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Injections), "injections")
	}
}

// BenchmarkDBCoverage reruns the §6.1 coverage experiment.
func BenchmarkDBCoverage(b *testing.B) {
	e := env(b)
	for i := 0; i < b.N; i++ {
		r, err := experiments.DBCoverage(e)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*(r.WithLFI-r.Baseline), "coverage-points-gained")
	}
}

// BenchmarkInterceptionPath measures the per-call cost of the synthesised
// stub (count, trigger evaluation, DlNext tail jump) in virtual cycles —
// the mechanism behind Tables 3/4.
func BenchmarkInterceptionPath(b *testing.B) {
	lc, err := libc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	app, err := minic.Compile("bench", `
needs "libc.so";
extern int getpid(void);
int main(void) {
  int i;
  for (i = 0; i < 1000; i = i + 1) { getpid(); }
  return 0;
}`, obj.Executable)
	if err != nil {
		b.Fatal(err)
	}
	run := func(withLFI bool) uint64 {
		sys := vm.NewSystem(vm.Options{})
		sys.Register(lc)
		sys.Register(app)
		cfg := vm.SpawnConfig{}
		if withLFI {
			plan := &scenario.Plan{Triggers: []scenario.Trigger{{
				Function: "getpid", Inject: 1 << 30, Retval: "-1",
			}}}
			ctl := controller.New(nil, plan)
			ctl.PassThrough = true
			if err := ctl.Install(sys); err != nil {
				b.Fatal(err)
			}
			cfg.Preload = ctl.PreloadList()
		}
		if _, err := sys.Spawn("bench", cfg); err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
		return sys.TotalCycles
	}
	var base, intercepted uint64
	for i := 0; i < b.N; i++ {
		base = run(false)
		intercepted = run(true)
	}
	b.ReportMetric(float64(intercepted-base)/1000, "vcycles/intercepted-call")
}

// BenchmarkAblationSearchBudget compares the bounded on-demand
// product-graph expansion against an effectively unbounded search — an
// ablation of §3.1's "generates G' on demand, only expanding the nodes
// of interest".
func BenchmarkAblationSearchBudget(b *testing.B) {
	lib, err := corpus.Generate(corpus.Traits{
		Name: "libbench.so", Seed: 5, NumFuncs: 120, TPItems: 120, FNItems: 12, FPItems: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name      string
		maxStates int
	}{
		{"budget64", 64},
		{"budget4096", 4096},
		{"unbounded", 1 << 30},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var states int
			for i := 0; i < b.N; i++ {
				pr := profiler.New(profiler.Options{MaxStates: cfg.maxStates})
				if err := pr.AddLibrary(lib.Object); err != nil {
					b.Fatal(err)
				}
				if _, err := pr.ProfileLibrary("libbench.so"); err != nil {
					b.Fatal(err)
				}
				states = pr.Stats().StatesExpanded
			}
			b.ReportMetric(float64(states), "product-states")
		})
	}
}

// BenchmarkAblationHeuristics measures the §3.1 heuristics' effect on
// accuracy versus documentation (off = paper default).
func BenchmarkAblationHeuristics(b *testing.B) {
	lib, err := corpus.Generate(corpus.Traits{
		Name: "libheur.so", Seed: 9, NumFuncs: 150, TPItems: 150, FNItems: 15, FPItems: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	docs := lib.DocumentedItems()
	for _, cfg := range []struct {
		name string
		on   bool
	}{{"heuristicsOff", false}, {"heuristicsOn", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				pr := profiler.New(profiler.Options{
					DropZeroReturns: cfg.on, DropPredicates: cfg.on,
				})
				if err := pr.AddLibrary(lib.Object); err != nil {
					b.Fatal(err)
				}
				p, err := pr.ProfileLibrary("libheur.so")
				if err != nil {
					b.Fatal(err)
				}
				acc = corpus.Compare(corpus.ProfiledItems(p), docs).Accuracy()
			}
			b.ReportMetric(100*acc, "%accuracy")
		})
	}
}

// BenchmarkAblationSymbolicPruning measures the future-work extension
// (§3.1 symbolic path feasibility): FP reduction and its analysis cost.
func BenchmarkAblationSymbolicPruning(b *testing.B) {
	lib, err := corpus.Generate(corpus.Traits{
		Name: "libsymb.so", Seed: 21, NumFuncs: 100, TPItems: 100, FNItems: 10, FPItems: 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	docs := lib.DocumentedItems()
	for _, cfg := range []struct {
		name  string
		prune bool
	}{{"pruneOff", false}, {"pruneOn", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var fp int
			for i := 0; i < b.N; i++ {
				pr := profiler.New(profiler.Options{
					DropZeroReturns: true, DropPredicates: true,
					PruneInfeasible: cfg.prune,
				})
				if err := pr.AddLibrary(lib.Object); err != nil {
					b.Fatal(err)
				}
				p, err := pr.ProfileLibrary("libsymb.so")
				if err != nil {
					b.Fatal(err)
				}
				fp = corpus.Compare(corpus.ProfiledItems(p), docs).FP
			}
			b.ReportMetric(float64(fp), "false-positives")
		})
	}
}

// BenchmarkStubSynthesis measures controller stub-library generation for
// growing interception surfaces.
func BenchmarkStubSynthesis(b *testing.B) {
	e := env(b)
	plan := scenario.Exhaustive(e.LibcProfiles)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl := controller.New(e.LibcProfiles, plan)
		if _, err := ctl.StubLibrary(); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepBenchApp models a corpus application: a compute phase (config
// parsing stand-in) followed by the open/read/close/malloc/write sequence
// the sweep injects into. The compute loop is sized like the §2
// matrix's short config-loading runs: enough virtual work that a run is
// not free, short enough that per-experiment setup — what the snapshot
// runtime amortises — is a realistic share of campaign cost.
const sweepBenchApp = `
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
  for (i = 0; i < 1000; i = i + 1) { acc = acc + i; }
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

// sweepBenchTarget builds the shared target and a profile whose matrix
// has a dozen (function, error code) experiments. Besides libc the
// target links a 400-function corpus library it barely uses — the
// paper's reality, where applications load hundreds of KB of shared
// library text per process and exercise a sliver of it. Fresh spawns
// re-copy, re-relocate and re-decode all of it per experiment; the
// snapshot runtime shares it immutably across restores.
func sweepBenchTarget(b *testing.B) (core.CampaignConfig, profile.Set) {
	b.Helper()
	lc, err := libc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	big, err := corpus.Generate(corpus.Traits{Name: "libbig.so", Seed: 3, NumFuncs: 400})
	if err != nil {
		b.Fatal(err)
	}
	app, err := minic.Compile("swept", sweepBenchApp, obj.Executable)
	if err != nil {
		b.Fatal(err)
	}
	tls := func(errno int32) []profile.SideEffect {
		return []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: errno}}
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: []profile.ErrorCode{
				{Retval: -1, SideEffects: tls(13)}, {Retval: -1, SideEffects: tls(2)},
			}},
			{Name: "read", ErrorCodes: []profile.ErrorCode{
				{Retval: -1, SideEffects: tls(5)}, {Retval: -1, SideEffects: tls(4)},
			}},
			{Name: "close", ErrorCodes: []profile.ErrorCode{
				{Retval: -1, SideEffects: tls(9)},
			}},
			{Name: "malloc", ErrorCodes: []profile.ErrorCode{
				{Retval: 0, SideEffects: tls(12)},
			}},
			{Name: "write", ErrorCodes: []profile.ErrorCode{
				{Retval: -1, SideEffects: tls(32)}, {Retval: -1, SideEffects: tls(5)},
			}},
		},
	}}
	cfg := core.CampaignConfig{
		Programs:   []*obj.File{lc, big.Object, app},
		Executable: "swept",
		Files:      map[string][]byte{"/data": []byte("mode=bench\n")},
		// The app touches a few KB; right-size the address space so
		// neither executor pays for untouched gigabytes of zeroes.
		// Both executors get the same options, so the ratio is fair.
		VM: vm.Options{StackSize: 1 << 16, HeapLimit: 1 << 18},
	}
	return cfg, set
}

// BenchmarkSweepSequential is the single-worker reference: the whole
// (function, error code) matrix, one fresh VM per experiment, in plan
// order on one goroutine.
func BenchmarkSweepSequential(b *testing.B) {
	cfg, set := sweepBenchTarget(b)
	b.ResetTimer()
	var entries int
	for i := 0; i < b.N; i++ {
		res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		entries = len(res.Entries)
	}
	b.ReportMetric(float64(entries), "experiments")
}

// BenchmarkSweepParallel is the same matrix over the worker-pool campaign
// scheduler at GOMAXPROCS — the ZOFI-style claim that campaign throughput
// scales with cores because experiments are independent.
func BenchmarkSweepParallel(b *testing.B) {
	cfg, set := sweepBenchTarget(b)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var entries int
	for i := 0; i < b.N; i++ {
		res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		entries = len(res.Entries)
	}
	b.ReportMetric(float64(entries), "experiments")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkSweepSnapshot is the same matrix and worker count on the
// fork-server runtime, the production executor: the load pipeline
// (text copy, relocation, decode, symbol maps, stub synthesis) runs
// once into a vm.Snapshot and every experiment restores from it in
// O(writable bytes). The ratio to BenchmarkSweepParallel is the
// per-experiment-setup share of campaign cost that snapshotting
// eliminates (BENCH_sweep.json, recorded with memoization off). Since
// the memo ladder, whose rungs the baseline mints in passing, even this
// short-prefix matrix of 2-member groups gains from memoization: 2.28
// ms per sweep with memo against 2.70 ms without (medians of 10
// alternating runs, 2 workers, 2-CPU x86-64).
func BenchmarkSweepSnapshot(b *testing.B) {
	cfg, set := sweepBenchTarget(b)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	var entries int
	for i := 0; i < b.N; i++ {
		res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, Snapshot: true})
		if err != nil {
			b.Fatal(err)
		}
		entries = len(res.Entries)
	}
	b.ReportMetric(float64(entries), "experiments")
	b.ReportMetric(float64(workers), "workers")
}

// memoBenchApp is the prefix-memoization bench target: a long compute
// phase (the paper's config-parse / state-build startup) before the
// first injectable call. Every experiment of an exhaustive errno sweep
// replays that startup identically up to its trigger site — exactly the
// cost prefix memoization shares, once per (function, call) group
// instead of once per errno variant.
const memoBenchApp = `
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

// memoBenchTarget pairs the heavy-startup app with an exhaustive-style
// profile: 8 errno variants per function, the §3 documented-errno
// reality for POSIX I/O calls. 40 experiments over 5 first-fire sites —
// a memoized sweep runs 5 prefixes where a plain snapshot sweep runs 40.
func memoBenchTarget(b *testing.B) (core.CampaignConfig, profile.Set) {
	b.Helper()
	lc, err := libc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	big, err := corpus.Generate(corpus.Traits{Name: "libbig.so", Seed: 3, NumFuncs: 400})
	if err != nil {
		b.Fatal(err)
	}
	app, err := minic.Compile("memoized", memoBenchApp, obj.Executable)
	if err != nil {
		b.Fatal(err)
	}
	tls := func(errno int32) []profile.SideEffect {
		return []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: errno}}
	}
	codes := func(retval int32, errnos ...int32) []profile.ErrorCode {
		var out []profile.ErrorCode
		for _, e := range errnos {
			out = append(out, profile.ErrorCode{Retval: retval, SideEffects: tls(e)})
		}
		return out
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			{Name: "open", ErrorCodes: codes(-1, 1, 2, 4, 12, 13, 20, 23, 24)},
			{Name: "read", ErrorCodes: codes(-1, 4, 5, 9, 11, 12, 14, 21, 22)},
			{Name: "close", ErrorCodes: codes(-1, 4, 5, 9, 11, 14, 22, 23, 25)},
			{Name: "malloc", ErrorCodes: codes(0, 1, 2, 4, 5, 11, 12, 14, 22)},
			{Name: "write", ErrorCodes: codes(-1, 4, 5, 9, 11, 14, 22, 27, 28)},
		},
	}}
	cfg := core.CampaignConfig{
		Programs:   []*obj.File{lc, big.Object, app},
		Executable: "memoized",
		Files:      map[string][]byte{"/data": []byte("mode=bench\n")},
		VM:         vm.Options{StackSize: 1 << 16, HeapLimit: 1 << 18},
	}
	return cfg, set
}

// BenchmarkSweepMemo A/Bs prefix memoization on the heavy-startup
// exhaustive matrix: memo is the snapshot executor with the prefix
// cache (the default), nomemo the same executor with NoMemo set.
// Reports are byte-identical (TestSweepMemoIdentical); the ratio is the
// shared-prefix cost the memo cache eliminates. Every group here sits at
// its function's first call, so the baseline's rungs serve them all and
// no prefix runs: 10.7 ms per sweep with memo against 189 ms without
// (medians of 10 alternating runs, 2 workers, 2-CPU x86-64), where
// BENCH_sweep.json recorded 3.06x with a prefix run per group.
func BenchmarkSweepMemo(b *testing.B) {
	for _, mode := range []struct {
		name   string
		noMemo bool
	}{{"memo", false}, {"nomemo", true}} {
		b.Run(mode.name, func(b *testing.B) {
			cfg, set := memoBenchTarget(b)
			workers := runtime.GOMAXPROCS(0)
			b.ResetTimer()
			var entries, restored int
			for i := 0; i < b.N; i++ {
				res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
					core.SweepOptions{Workers: workers, Snapshot: true, NoMemo: mode.noMemo})
				if err != nil {
					b.Fatal(err)
				}
				entries = len(res.Entries)
				if res.Memo != nil {
					restored = res.Memo.Restored
				}
			}
			b.ReportMetric(float64(entries), "experiments")
			b.ReportMetric(float64(workers), "workers")
			if !mode.noMemo {
				b.ReportMetric(float64(restored), "restored")
			}
		})
	}
}

// BenchmarkRestoreCoW isolates the per-experiment restore cost the
// copy-on-write snapshot buys back: a 1 MiB-stack guest that dirties
// only a couple of pages per run, restored and run to completion per
// iteration. A restore copies page-view headers plus the few dirtied
// pages, so per-restore cost must scale with dirtied pages, not
// writable-segment size (BENCH_sweep.json records the speedup over the
// deep-copy restore this replaced). The sub-benchmark name is kept so
// recorded results stay comparable.
func BenchmarkRestoreCoW(b *testing.B) {
	const dirtySrc = `
.exe dirty
.global main
.func main
  mov r2, 0
.loop:
  push r2
  add r2, 1
  cmp r2, 1024
  jne .loop
  mov r0, r2
  halt
`
	b.Run("cow", func(b *testing.B) {
		sys := vm.NewSystem(vm.Options{StackSize: 1 << 20, HeapLimit: 1 << 16})
		f, err := asm.Assemble("dirty.s", dirtySrc)
		if err != nil {
			b.Fatal(err)
		}
		sys.Register(f)
		if _, err := sys.Spawn("dirty", vm.SpawnConfig{}); err != nil {
			b.Fatal(err)
		}
		snap, err := sys.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := snap.Restore()
			if err := r.Run(1_000_000); err != nil {
				b.Fatal(err)
			}
			if p := r.Procs()[0]; !p.Exited || p.Status.Code != 1024 {
				b.Fatalf("bad exit: %+v", p.Status)
			}
		}
	})
}

// exhaustiveStylePlan models an exhaustive libc faultload: nfns
// functions, two (error code) triggers each, none of which fires during
// the measured calls — the pure per-call trigger-evaluation cost the
// paper's Tables 3/4 methodology isolates.
func exhaustiveStylePlan(nfns int) (*scenario.Plan, []string) {
	plan := &scenario.Plan{}
	fns := make([]string, nfns)
	for i := 0; i < nfns; i++ {
		fn := fmt.Sprintf("fn%04d", i)
		fns[i] = fn
		for c := 0; c < 2; c++ {
			plan.Triggers = append(plan.Triggers, scenario.Trigger{
				Function: fn,
				Inject:   int32(1_000_000_000 + c),
				Retval:   "-1",
				Errno:    "EIO",
			})
		}
	}
	return plan, fns
}

// BenchmarkEvaluatorLargePlan measures per-call trigger evaluation as
// the exhaustive plan grows 10x (100 -> 1000 triggers). The compiled
// engine indexes triggers per function, so its per-call cost stays flat
// (each function keeps 2 triggers regardless of plan size); the scan
// variant replicates the pre-compile engine — a full pass over the
// trigger list per call — whose cost grows linearly with the plan.
func BenchmarkEvaluatorLargePlan(b *testing.B) {
	for _, nfns := range []int{50, 500} {
		plan, fns := exhaustiveStylePlan(nfns)
		b.Run(fmt.Sprintf("compiled/%dtriggers", len(plan.Triggers)), func(b *testing.B) {
			cp, err := scenario.Compile(plan, nil)
			if err != nil {
				b.Fatal(err)
			}
			ev := cp.NewEvaluator()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ev.OnCall(fns[i%len(fns)], nil).Inject {
					b.Fatal("no trigger should fire")
				}
			}
			b.ReportMetric(float64(len(plan.Triggers)), "plan-triggers")
		})
		b.Run(fmt.Sprintf("scan/%dtriggers", len(plan.Triggers)), func(b *testing.B) {
			count := make(map[string]int32, len(fns))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fn := fns[i%len(fns)]
				count[fn]++
				n := count[fn]
				for j := range plan.Triggers {
					t := &plan.Triggers[j]
					if t.Function != fn {
						continue
					}
					if t.Inject > 0 && t.Inject != n {
						continue
					}
					b.Fatal("no trigger should fire")
				}
			}
			b.ReportMetric(float64(len(plan.Triggers)), "plan-triggers")
		})
	}
}

// vmExecDispatchKernel is the straight-line dispatch kernel: unrolled,
// register-independent ALU work in ~100-instruction superblocks — the
// shape of compiled library code between calls, and the purest measure
// of per-instruction interpreter overhead (everything the block engine
// batches: image lookup, bounds check, coverage bit, cycle counters).
func vmExecDispatchKernel(b *testing.B) *obj.File {
	b.Helper()
	body := strings.Repeat(`  mov r1, 12345
  add r2, 3
  mov r3, 99
  add r4, 7
  sub r5, 1
  add r1, 11
`, 16)
	f, err := asm.Assemble("dispatch.s", `
.exe guest
.global main
.func main
  mov r0, 0
.loop:
`+body+`  add r0, 1
  cmp r0, 0
  jne .loop
  ret
`)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkVMExec is the instruction-throughput microbench behind
// BENCH_vm.json. Guests run for exactly b.N cycles per configuration,
// so ns/op is nanoseconds per guest instruction. Three kernels:
//
//   - dispatch: the straight-line ALU kernel, coverage off — raw
//     per-instruction overhead.
//   - dispatch-cov: the same kernel with instruction coverage on (the
//     campaign configuration behind sweep -prune baselines and the
//     §6.1 coverage experiment); the block engine's >=3x acceptance
//     target is measured here, where the step engine pays the honest
//     per-instruction bit-set that block batching eliminates.
//   - appmix: a MiniC corpus-style compute loop (stack-spill heavy:
//     ~45% push/pop/load/store) — the conservative bound.
//
// AllocsPerOp must be 0 everywhere (asserted hard by TestEngineAllocFree
// in internal/vm; reported here via -benchmem). Each kernel runs as a
// step/block sub-benchmark pair, so one invocation gives the engine
// comparison.
func BenchmarkVMExec(b *testing.B) {
	lc, err := libc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	appmix, err := minic.Compile("guest", `
needs "libc.so";
int main(void) {
  int i;
  int acc;
  byte buf[16];
  for (i = 0; i < 2000000000; i = i + 1) {
    acc = acc + i * 3;
    buf[i & 15] = buf[i & 15] + 1;
    acc = acc ^ (i >> 2);
    if (acc < 0) { acc = acc + buf[0]; }
  }
  return acc;
}`, obj.Executable)
	if err != nil {
		b.Fatal(err)
	}
	dispatch := vmExecDispatchKernel(b)
	cases := []struct {
		name     string
		programs []*obj.File
		coverage bool
	}{
		{"dispatch", []*obj.File{dispatch}, false},
		{"dispatch-cov", []*obj.File{dispatch}, true},
		{"appmix", []*obj.File{lc, appmix}, false},
	}
	for _, tc := range cases {
		for _, engine := range []string{vm.EngineStep, vm.EngineBlock} {
			b.Run(tc.name+"/"+engine, func(b *testing.B) {
				sys := vm.NewSystem(vm.Options{
					Engine: engine, Coverage: tc.coverage,
					StackSize: 1 << 16, HeapLimit: 1 << 16,
				})
				for _, f := range tc.programs {
					sys.Register(f)
				}
				if _, err := sys.Spawn("guest", vm.SpawnConfig{}); err != nil {
					b.Fatal(err)
				}
				// Warm the dispatch and segment caches so b.N measures
				// steady state.
				if err := sys.RunUntil(nil, 10_000); err != vm.ErrBudget {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := sys.RunUntil(nil, uint64(b.N)); err != vm.ErrBudget {
					b.Fatal(err)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
			})
		}
	}
}

// BenchmarkVMThroughput measures raw interpreter speed.
func BenchmarkVMThroughput(b *testing.B) {
	lc, err := libc.Compile()
	if err != nil {
		b.Fatal(err)
	}
	app, err := minic.Compile("spin", `
needs "libc.so";
int main(void) {
  int i;
  int acc;
  acc = 0;
  for (i = 0; i < 200000; i = i + 1) { acc = acc + i; }
  return 0;
}`, obj.Executable)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := vm.NewSystem(vm.Options{})
		sys.Register(lc)
		sys.Register(app)
		if _, err := sys.Spawn("spin", vm.SpawnConfig{}); err != nil {
			b.Fatal(err)
		}
		if err := sys.Run(0); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(sys.TotalCycles))
	}
}
