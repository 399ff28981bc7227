package core_test

import (
	"reflect"
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
// experiment alone through NewCampaign, whose stubs cover only its own
// faultload's functions, and checks it classifies as the sweep does on
// the union surface.
func TestSweepSnapshotIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 4, split: 2})
	checkSweepInvariant(t, cfg, exps, 300, draws{workers: 4})
	// The tight budget stops the baseline itself, and the error says so.
	const want = "baseline run is unhealthy: cycle budget exhausted after 320 cycles"
	if _, err := core.RunExperiments(cfg, exps, 300, core.SweepOptions{Workers: 1}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("budget-300 sweep: err = %v, want %q", err, want)
	}

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
		one.Plan = exp.Plan
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

// TestCampaignIsOneExperimentOracle: a standalone campaign is the sweep
// executor's one-run fresh path, so its report equals the one a
// one-experiment oracle sweep hands OnResult — cycles, injections,
// replay plan, crash stack and coverage included.
func TestCampaignIsOneExperimentOracle(t *testing.T) {
	cfg, set := mixedTarget(t)
	cfg.VM.Coverage = true
	for _, exp := range core.PlanExperiments(set) {
		one := cfg
		one.Plan = exp.Plan
		c, err := core.NewCampaign(one)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := c.Run(core.DefaultSweepBudget)
		if err != nil {
			t.Fatal(err)
		}
		var want *core.Report
		if _, err := core.RunExperiments(cfg, []core.Experiment{exp}, core.DefaultSweepBudget, core.SweepOptions{
			Workers:  1,
			OnResult: func(_ *core.Experiment, _ core.SweepEntry, r *core.Report) { want = r },
		}); err != nil {
			t.Fatal(err)
		}
		if want == nil || want.Coverage == 0 || !reflect.DeepEqual(rep, want) {
			t.Errorf("%s: campaign report\n%+v\nsweep report\n%+v", exp.Key(), rep, want)
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

// prunedCount sweeps exps on the production executor and returns the
// result with the number of experiments pruned: nothing is resumed, so
// every served entry was pruned.
func prunedCount(t *testing.T, cfg core.CampaignConfig, exps []core.Experiment, workers int) (*core.SweepResult, int) {
	t.Helper()
	served := 0
	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: workers, Snapshot: true,
		Progress: func(p core.SweepProgress) { served = p.Served },
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, served
}

// TestSweepPruneUncalledIdentical: production must prune the write
// experiment — mixedApp never calls write — and every harness leg
// checks that pruning changes nothing else.
func TestSweepPruneUncalledIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	if _, pruned := prunedCount(t, cfg, core.PlanExperiments(set), 1); pruned != 1 {
		t.Errorf("pruned %d experiments, want 1 (write)", pruned)
	}
}

// TestSweepPruneKeepsValidation: pruning skips work, never validation —
// an uncompilable faultload on a never-called function must abort the
// production sweep exactly as it aborts the oracle.
func TestSweepPruneKeepsValidation(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := append(core.PlanExperiments(set), core.Experiment{
		Library: libc.Name, Function: "write", Retval: -1,
		Plan: &scenario.Plan{Triggers: []scenario.Trigger{{
			Function: "write", Inject: 1, Retval: "zzz", // bad retval
		}}},
	})
	if _, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2}); err == nil {
		t.Fatal("the oracle must reject the bad retval")
	}
	if _, err := core.RunExperiments(cfg, exps, 0,
		core.SweepOptions{Workers: 2, Snapshot: true}); err == nil {
		t.Error("the production sweep silently swallowed the compile error")
	}
}

// TestSweepPruneSkipsWork proves pruning short-circuits hand-built
// experiments too: an experiment appended on the never-called write,
// with a valid plan that the precompiled matrix does not cover, is
// committed without a run, and the production report still equals the
// oracle's, which runs it (not-triggered).
func TestSweepPruneSkipsWork(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := append(core.PlanExperiments(set), core.Experiment{
		Library: libc.Name, Function: "write", Retval: -77,
		Plan: &scenario.Plan{Triggers: []scenario.Trigger{{
			Function: "write", Inject: 1, Retval: "-77", Once: true,
		}}},
	})
	fresh, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	prod, pruned := prunedCount(t, cfg, exps, 2)
	if pruned != 2 {
		t.Errorf("pruned %d experiments, want 2 (both on write)", pruned)
	}
	if fresh.Render() != prod.Render() {
		t.Errorf("production report differs from the oracle's:\n%s\nvs\n%s", fresh.Render(), prod.Render())
	}
	last := prod.Entries[len(prod.Entries)-1]
	if last.Outcome != core.OutcomeNotTriggered || last.Retval != -77 {
		t.Errorf("appended prunable experiment misclassified: %+v", last)
	}
}
