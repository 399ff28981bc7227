package lfi_test

// One benchmark per table and figure of the paper's evaluation (§6), plus
// the stub-synthesis and interception-path microbenchmarks and the
// profiler ablations described in doc.go. Campaign throughput is
// measured by the bench/ module (bench/README.md), not here. Run them
// with:
//
//	go test -bench=. -benchmem
//
// Virtual-time metrics (vsec/op, vcycles/call) come from the VM's
// deterministic cycle accounting; wall-clock ns/op reflects the host.

import (
	"testing"

	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/corpus"
	"lfi/internal/experiments"
	"lfi/internal/kernel"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
	"lfi/internal/profiler"
	"lfi/internal/scenario"
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
	run := func(plan *scenario.Plan) uint64 {
		c, err := core.NewCampaign(core.CampaignConfig{
			Programs: []*obj.File{lc, app}, Executable: "bench", Plan: plan,
		})
		if err != nil {
			b.Fatal(err)
		}
		if ctl := c.Controller(); ctl != nil {
			ctl.PassThrough = true
		}
		rep, err := c.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		return rep.Cycles
	}
	plan := &scenario.Plan{Triggers: []scenario.Trigger{{
		Function: "getpid", Inject: 1 << 30, Retval: "-1",
	}}}
	var base, intercepted uint64
	for i := 0; i < b.N; i++ {
		base = run(nil)
		intercepted = run(plan)
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
	fns := scenario.Exhaustive(e.LibcProfiles).Functions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := controller.NewStubSet(fns); err != nil {
			b.Fatal(err)
		}
	}
}
