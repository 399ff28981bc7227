package core_test

import (
	"strings"
	"sync"
	"testing"

	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/scenario"
)

// runObs is what an OnResult observer sees of one experiment: its
// entry and, unless it was pruned without a run, the guest cycle count
// and injection-log digest of its run.
type runObs struct {
	entry  core.SweepEntry
	pruned bool
	cycles uint64
	digest string
}

// observedSweep runs exps and records, per experiment key, the entry,
// the guest cycle count and the injection-log digest of its run.
func observedSweep(cfg core.CampaignConfig, exps []core.Experiment, budget uint64, opts core.SweepOptions) (*core.SweepResult, map[string]runObs, error) {
	var mu sync.Mutex
	obs := make(map[string]runObs, len(exps))
	opts.OnResult = func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
		o := runObs{entry: entry, pruned: rep == nil}
		if rep != nil {
			o.cycles, o.digest = rep.Cycles, controller.LogDigest(rep.Injections)
		}
		mu.Lock()
		obs[exp.Key()] = o
		mu.Unlock()
	}
	res, err := core.RunExperiments(cfg, exps, budget, opts)
	return res, obs, err
}

// TestSweepSnapshotIdentical is the acceptance bar for the one
// production executor: the fresh-spawn oracle ({Workers: 1}), plain
// snapshot restores and memoized restores build the same guest, so
// every experiment runs for the same number of cycles, logs the same
// injections and renders the same row — at the default budget and at a
// tight one, where both must succeed or fail alike. An independent leg
// runs each experiment alone through NewCampaign (the per-faultload
// interceptor) and checks it classifies as the sweep does.
func TestSweepSnapshotIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	legs := []struct {
		name string
		opts core.SweepOptions
	}{
		{"snapshot-j4", core.SweepOptions{Workers: 4, Snapshot: true, NoMemo: true}},
		{"memo-j1", core.SweepOptions{Workers: 1, Snapshot: true}},
		{"memo-j4", core.SweepOptions{Workers: 4, Snapshot: true}},
		{"memo-j8", core.SweepOptions{Workers: 8, Snapshot: true}},
	}
	var ref *core.SweepResult // the oracle at the default budget
	for _, budget := range []uint64{0, 300} {
		fresh, want, ferr := observedSweep(cfg, exps, budget, core.SweepOptions{Workers: 1})
		if budget == 0 {
			if ferr != nil {
				t.Fatal(ferr)
			}
			if r := fresh.Render(); !strings.Contains(r, "crash") || !strings.Contains(r, "not-triggered") {
				t.Fatalf("target does not cover enough outcomes:\n%s", r)
			}
			ref = fresh
		}
		for _, leg := range legs {
			got, obs, err := observedSweep(cfg, exps, budget, leg.opts)
			if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
				t.Errorf("budget=%d %s: err = %v, oracle err = %v", budget, leg.name, err, ferr)
				continue
			}
			if err != nil {
				continue
			}
			if got.Render() != fresh.Render() {
				t.Errorf("budget=%d %s: report differs from the oracle:\n--- oracle ---\n%s--- got ---\n%s",
					budget, leg.name, fresh.Render(), got.Render())
			}
			if len(obs) != len(want) {
				t.Errorf("budget=%d %s: %d runs observed, oracle %d", budget, leg.name, len(obs), len(want))
			}
			for key, w := range want {
				if g := obs[key]; g != w {
					t.Errorf("budget=%d %s: %s: run %+v, oracle %+v", budget, leg.name, key, g, w)
				}
			}
		}
	}

	base, err := core.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := base.Run(core.DefaultSweepBudget)
	if err != nil {
		t.Fatal(err)
	}
	for i, exp := range exps {
		one := cfg
		one.Compiled = exp.Compiled
		c, err := core.NewCampaign(one)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(core.DefaultSweepBudget)
		if err != nil {
			t.Fatal(err)
		}
		e := ref.Entries[i]
		if got := core.Classify(rep, baseRep.Status.Code); got != e.Outcome ||
			rep.Status.Code != e.ExitCode || rep.Status.Signal != e.Signal {
			t.Errorf("%s: alone %s (exit %d, signal %d), in the sweep %s (exit %d, signal %d)",
				exp.Key(), got, rep.Status.Code, rep.Status.Signal, e.Outcome, e.ExitCode, e.Signal)
		}
	}
}

// TestSweepSnapshotEarlyStop: -max-crashes semantics must hold under
// the snapshot runtime too, truncating at the same plan-order entry.
func TestSweepSnapshotEarlyStop(t *testing.T) {
	cfg, set := mixedTarget(t)
	fresh, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
		core.SweepOptions{Workers: 1, MaxCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Render()
	for _, workers := range []int{1, 4, 8} {
		snap, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, MaxCrashes: 1, Snapshot: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap.Render(); got != want {
			t.Errorf("workers=%d early-stopped snapshot report differs:\n--- fresh ---\n%s--- snapshot ---\n%s",
				workers, want, got)
		}
	}
}

// TestSweepSnapshotSeededRandom: seeded random faultloads must draw the
// same error codes under restore as under fresh spawn — the evaluator's
// stream derives from Plan.Seed, never from the runtime.
func TestSweepSnapshotSeededRandom(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	for seed := int64(1); seed <= 5; seed++ {
		exps = append(exps, core.Experiment{
			Library:  libc.Name,
			Function: "read",
			Retval:   -1,
			Plan: &scenario.Plan{Seed: seed, Triggers: []scenario.Trigger{{
				Function: "read", Probability: 60, Random: true,
			}}},
		})
	}
	cfg.Profiles = set // random triggers draw candidates from the profiles
	fresh, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Render()
	for _, workers := range []int{1, 4, 8} {
		snap, err := core.RunExperiments(cfg, exps, 0,
			core.SweepOptions{Workers: workers, Snapshot: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap.Render(); got != want {
			t.Errorf("workers=%d seeded-random snapshot report differs:\n--- fresh ---\n%s--- snapshot ---\n%s",
				workers, want, got)
		}
	}
}

// TestSweepSnapshotPropagatesError: a broken experiment (empty
// faultload) must abort a snapshot sweep exactly as it aborts a fresh
// one, and an earlier plan-order crash threshold must still win.
func TestSweepSnapshotPropagatesError(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	exps = append(exps[:2:2], core.Experiment{
		Library: libc.Name, Function: "open", Retval: -1,
		Plan: &scenario.Plan{},
	})
	for _, workers := range []int{1, 4} {
		_, err := core.RunExperiments(cfg, exps, 0,
			core.SweepOptions{Workers: workers, Snapshot: true})
		if err == nil {
			t.Errorf("workers=%d: expected error from empty plan", workers)
		}
	}
}

// TestSweepSnapshotExecutorParityEdges: degenerate inputs must render
// identically on both executors — an empty experiment matrix (nothing
// to intercept, so nothing to snapshot) and an experiment with no
// faultload at all (runs uninstrumented, classifies not-triggered).
func TestSweepSnapshotExecutorParityEdges(t *testing.T) {
	cfg, set := mixedTarget(t)
	for name, exps := range map[string][]core.Experiment{
		"empty-matrix": nil,
		"nil-faultload": append(core.PlanExperiments(set), core.Experiment{
			Library: libc.Name, Function: "read", Retval: -42,
		}),
		// Every experiment lacks a faultload: the union stub surface is
		// empty, so the snapshot executor must fall back rather than
		// fail stub synthesis.
		"all-nil-faultloads": {
			{Library: libc.Name, Function: "read", Retval: -1},
			{Library: libc.Name, Function: "open", Retval: -1},
		},
	} {
		fresh, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2})
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		snap, err := core.RunExperiments(cfg, exps, 0,
			core.SweepOptions{Workers: 2, Snapshot: true})
		if err != nil {
			t.Fatalf("%s snapshot: %v", name, err)
		}
		if fresh.Render() != snap.Render() {
			t.Errorf("%s: executors disagree:\n--- fresh ---\n%s--- snapshot ---\n%s",
				name, fresh.Render(), snap.Render())
		}
	}
}

// TestSweepPruneUncalledIdentical: baseline-informed pruning must not
// change the rendered report — it only skips runs the baseline proves
// inert (here: the write experiments; mixedApp never calls write). The
// experiments it does run see the same guest as the unpruned oracle's
// (same cycles, same injection log), and the ones it prunes are exactly
// those whose oracle run injected nothing.
func TestSweepPruneUncalledIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	fresh, want, err := observedSweep(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fresh.Render(), "not-triggered") {
		t.Fatalf("target has no prunable experiment:\n%s", fresh.Render())
	}
	for _, opts := range []core.SweepOptions{
		{Workers: 1, PruneUncalled: true},
		{Workers: 4, PruneUncalled: true},
		{Workers: 4, PruneUncalled: true, Snapshot: true},
	} {
		res, obs, err := observedSweep(cfg, core.PlanExperiments(set), 0, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got := res.Render(); got != fresh.Render() {
			t.Errorf("opts %+v: pruned report differs:\n--- unpruned ---\n%s--- pruned ---\n%s",
				opts, fresh.Render(), got)
		}
		pruned := 0
		for key, w := range want {
			g, ok := obs[key]
			switch {
			case !ok:
				t.Errorf("opts %+v: %s not observed", opts, key)
			case g.pruned:
				pruned++
				if g.entry != w.entry || w.digest != "" {
					t.Errorf("opts %+v: %s pruned as %+v, oracle %+v", opts, key, g.entry, w)
				}
			case g != w:
				t.Errorf("opts %+v: %s: run %+v, oracle %+v", opts, key, g, w)
			}
		}
		if pruned == 0 {
			t.Errorf("opts %+v: nothing pruned", opts)
		}
	}
}

// TestSweepPruneKeepsValidation: pruning skips work, never validation —
// an uncompilable faultload on a never-called function must abort the
// pruned sweep exactly as it aborts the unpruned one.
func TestSweepPruneKeepsValidation(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := append(core.PlanExperiments(set), core.Experiment{
		Library: libc.Name, Function: "write", Retval: -1,
		Plan: &scenario.Plan{Triggers: []scenario.Trigger{{
			Function: "write", Inject: 1, Retval: "zzz", // bad retval
		}}},
	})
	if _, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2}); err == nil {
		t.Fatal("unpruned sweep must reject the bad retval")
	}
	if _, err := core.RunExperiments(cfg, exps, 0,
		core.SweepOptions{Workers: 2, PruneUncalled: true}); err == nil {
		t.Error("pruned sweep silently swallowed the compile error")
	}
}

// TestSweepPruneSkipsWork proves pruning actually short-circuits: with
// every function pruned (workload that calls nothing the profiles
// name), the sweep must not spawn a single experiment campaign. We
// detect spawned runs through Progress entries that carry a non-zero
// signal or unexpected outcome — and, structurally, by the fact that
// an experiment with an unbuildable faultload is never executed.
func TestSweepPruneSkipsWork(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	// An experiment whose plan names a function the baseline never
	// calls, with a faultload that would fail compilation only if the
	// executor actually tried to build a campaign around it: a valid
	// plan but an unregistered trigger function. The fresh executor
	// happily runs it (not-triggered); the pruned executor must commit
	// it without running. Equality of the two reports is the proof.
	exps = append(exps, core.Experiment{
		Library: libc.Name, Function: "write", Retval: -77,
		Plan: &scenario.Plan{Triggers: []scenario.Trigger{{
			Function: "write", Inject: 1, Retval: "-77", Once: true,
		}}},
	})
	fresh, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := core.RunExperiments(cfg, exps, 0,
		core.SweepOptions{Workers: 2, PruneUncalled: true})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Render() != pruned.Render() {
		t.Errorf("pruned report differs:\n%s\nvs\n%s", fresh.Render(), pruned.Render())
	}
	last := pruned.Entries[len(pruned.Entries)-1]
	if last.Outcome != core.OutcomeNotTriggered || last.Retval != -77 {
		t.Errorf("appended prunable experiment misclassified: %+v", last)
	}
}
