package core_test

import (
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/profile"
	"lfi/internal/scenario"
)

// wideTarget is mixedTarget with an exhaustive-errno profile: several
// error codes per function, so every (function, call-site) cell forms a
// shared-prefix group the memoizer can amortise — the paper's
// functions × errnos matrix shape.
func wideTarget(t testing.TB) (core.CampaignConfig, profile.Set) {
	t.Helper()
	cfg, _ := mixedTarget(t)
	tls := func(errno int32) []profile.SideEffect {
		return []profile.SideEffect{{Type: profile.SideEffectTLS, Module: libc.Name, Value: errno}}
	}
	fn := func(name string, retval int32, errnos ...int32) profile.Function {
		f := profile.Function{Name: name}
		for _, e := range errnos {
			f.ErrorCodes = append(f.ErrorCodes, profile.ErrorCode{Retval: retval, SideEffects: tls(e)})
		}
		return f
	}
	set := profile.Set{libc.Name: &profile.Profile{
		Library: libc.Name,
		Functions: []profile.Function{
			fn("open", -1, 13, 2, 24),
			fn("read", -1, 5, 4, 11),
			fn("close", -1, 9, 5, 4),
			fn("malloc", 0, 12, 11, 22),
			fn("write", -1, 32, 5, 28), // never called: terminal-prefix group
		},
	}}
	return cfg, set
}

// TestSweepMemoIdentical is the determinism bar of prefix memoization:
// on an exhaustive errno matrix the memoized sweep renders like the
// oracle at every worker count, without memo and under eviction.
func TestSweepMemoIdentical(t *testing.T) {
	cfg, set := wideTarget(t)
	checkSweepInvariant(t, cfg, core.PlanExperiments(set), 0, draws{workers: 1, perm: 7, split: 8})
}

// TestSweepMemoStats pins the bookkeeping: 5 functions × 3 errnos give
// 5 groups of 3, one prefix run per group (no evictions under the
// default budget), 4 reached sites restoring 3 members each, and the
// never-called write group served whole from its terminated prefix.
func TestSweepMemoStats(t *testing.T) {
	cfg, set := wideTarget(t)
	res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
		core.SweepOptions{Workers: 4, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Memo
	if m == nil {
		t.Fatal("no memo stats")
	}
	if m.Groups != 5 || m.MaxGroup != 3 {
		t.Errorf("groups=%d max=%d, want 5 groups of 3", m.Groups, m.MaxGroup)
	}
	if m.Prefixes != 5 {
		t.Errorf("prefix runs = %d, want 5 (one per group)", m.Prefixes)
	}
	if m.Restored != 12 {
		t.Errorf("restored = %d, want 12 (4 reached sites x 3 members)", m.Restored)
	}
	if m.Terminal != 3 {
		t.Errorf("terminal-served = %d, want 3 (write group)", m.Terminal)
	}
	if m.Evictions != 0 {
		t.Errorf("evictions = %d, want 0 under default budget", m.Evictions)
	}
	if m.Unmemoizable != 0 || m.Fallbacks != 0 {
		t.Errorf("unmemoizable=%d fallbacks=%d, want 0", m.Unmemoizable, m.Fallbacks)
	}
	if m.PeakBytes <= 0 {
		t.Errorf("peak bytes = %d, want > 0", m.PeakBytes)
	}
}

// TestSweepMemoLaterSite exercises a non-trivial first-fire site: all
// errno variants firing on read's second call share a prefix through
// the first read. The app calls read once — so inject=2 never fires and
// its group is served whole from the terminated prefix — and the
// inject=1 variants restore theirs.
func TestSweepMemoLaterSite(t *testing.T) {
	cfg, set := wideTarget(t)
	var exps []core.Experiment
	for _, inject := range []int32{1, 2} {
		for _, errno := range []string{"5", "4", "11"} {
			plan := &scenario.Plan{Triggers: []scenario.Trigger{{
				Function: "read", Inject: inject, Retval: "-1", Errno: errno, Once: true,
			}}}
			exps = append(exps, core.Experiment{
				Library: libc.Name, Function: "read", Retval: -1,
				Plan:     plan,
				Compiled: scenario.MustCompile(plan, set),
			})
		}
	}
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 8, split: 3})
	got, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 4, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Memo.Restored != 3 || got.Memo.Terminal != 3 {
		t.Errorf("stats: %+v, want 3 restored (inject=1) and 3 terminal (inject=2)", *got.Memo)
	}
}

// TestSweepMemoUnmemoizable: plans with probability conditions have no
// deterministic first-fire site; the sweep falls back per experiment
// (seeded streams never cross a memo boundary because no memo happens).
func TestSweepMemoUnmemoizable(t *testing.T) {
	cfg, set := wideTarget(t)
	cfg.Profiles = set
	var exps []core.Experiment
	for seed := int64(1); seed <= 4; seed++ {
		plan := &scenario.Plan{Seed: seed, Triggers: []scenario.Trigger{{
			Function: "read", Probability: 60, Random: true,
		}}}
		exps = append(exps, core.Experiment{
			Library: libc.Name, Function: "read", Retval: -1,
			Plan:     plan,
			Compiled: scenario.MustCompile(plan, set),
		})
	}
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 9, split: 2})
	got, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 4, Snapshot: true})
	if err != nil {
		t.Fatal(err)
	}
	if got.Memo.Unmemoizable != 4 || got.Memo.Restored != 0 {
		t.Errorf("stats: %+v, want 4 unmemoizable and 0 restored", *got.Memo)
	}
}

// TestSweepMemoEviction: a one-byte budget cannot hold any prefix
// snapshot, so sealed entries are evicted and later members rebuild
// their prefix (the harness's "memo-budget=1" leg checks the report).
func TestSweepMemoEviction(t *testing.T) {
	cfg, set := wideTarget(t)
	for _, workers := range []int{1, 4} {
		got, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, Snapshot: true, MemoBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.Memo.Evictions == 0 {
			t.Errorf("workers=%d: stats: %+v, want evictions under a 1-byte budget", workers, *got.Memo)
		}
	}
}

// TestSweepMemoMaxCrashes: the early-stop threshold must truncate the
// memoized sweep at the same plan-order entry as the oracle.
func TestSweepMemoMaxCrashes(t *testing.T) {
	cfg, set := wideTarget(t)
	checkSweepInvariant(t, cfg, core.PlanExperiments(set), 0, draws{maxCrashes: 2, workers: 4, split: 4})
}

// TestSweepProgressServed is the satellite contract for SweepProgress:
// entries satisfied without executing a run — resume cache hits and
// terminal-prefix members — land in a distinct Served tally, and every
// progress update reports the running count.
func TestSweepProgressServed(t *testing.T) {
	cfg, set := wideTarget(t)
	exps := core.PlanExperiments(set)

	// Phase 1: record the full sweep.
	recorded := make(map[string]core.SweepEntry)
	full, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1, Snapshot: true,
		OnResult: func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
			recorded[exp.Key()] = entry
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume with half the keys served from the recording. The
	// write group (3 experiments) is terminal-served by the memoizer on
	// top of the Skip hits.
	cached := make(map[string]bool)
	for i, exp := range exps {
		if i%2 == 0 {
			cached[exp.Key()] = true
		}
	}
	var (
		last     core.SweepProgress
		monotone = true
		updates  int
	)
	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1, Snapshot: true,
		Skip: func(exp *core.Experiment) (core.SweepEntry, bool) {
			if cached[exp.Key()] {
				return recorded[exp.Key()], true
			}
			return core.SweepEntry{}, false
		},
		Progress: func(p core.SweepProgress) {
			updates++
			if p.Served < last.Served || p.Done != updates {
				monotone = false
			}
			last = p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != full.Render() {
		t.Errorf("resumed report differs from full sweep")
	}
	if !monotone {
		t.Error("Served tally not monotone or Done out of order")
	}
	if last.Done != len(exps) {
		t.Errorf("final Done = %d, want %d", last.Done, len(exps))
	}
	skipServed := len(cached)
	// Terminal-prefix serves only apply to write experiments not already
	// skipped.
	terminal := 0
	for i, exp := range exps {
		if i%2 != 0 && exp.Function == "write" {
			terminal++
		}
	}
	if want := skipServed + terminal; last.Served != want {
		t.Errorf("final Served = %d, want %d (%d skip + %d terminal)",
			last.Served, want, skipServed, terminal)
	}
	if last.Served == last.Done {
		t.Error("Served should not count executed experiments")
	}
}
