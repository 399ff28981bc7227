package core_test

import (
	"strings"
	"testing"

	"lfi/internal/core"
	"lfi/internal/libc"
	"lfi/internal/scenario"
)

// TestSweepSnapshotIdentical is the acceptance bar for the fork-server
// runtime: at 1, 4 and 8 workers the snapshot-restore sweep renders a
// byte-identical SweepResult to the fresh-spawn sweep.
func TestSweepSnapshotIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	fresh, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Render()
	if !strings.Contains(want, "crash") || !strings.Contains(want, "not-triggered") {
		t.Fatalf("target does not cover enough outcomes:\n%s", want)
	}
	for _, workers := range []int{1, 4, 8} {
		snap, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
			core.SweepOptions{Workers: workers, Snapshot: true})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := snap.Render(); got != want {
			t.Errorf("workers=%d snapshot report differs from fresh-spawn:\n--- fresh ---\n%s--- snapshot ---\n%s",
				workers, want, got)
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
// inert (here: the write experiments; mixedApp never calls write).
func TestSweepPruneUncalledIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	fresh, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Render()
	if !strings.Contains(want, "not-triggered") {
		t.Fatalf("target has no prunable experiment:\n%s", want)
	}
	for _, opts := range []core.SweepOptions{
		{Workers: 1, PruneUncalled: true},
		{Workers: 4, PruneUncalled: true},
		{Workers: 4, PruneUncalled: true, Snapshot: true},
	} {
		res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, opts)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if got := res.Render(); got != want {
			t.Errorf("opts %+v: pruned report differs:\n--- unpruned ---\n%s--- pruned ---\n%s",
				opts, want, got)
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
