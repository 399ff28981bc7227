package core_test

import (
	"testing"

	"lfi/internal/core"
)

// TestSweepSkipResumeIdentical is the executor half of the resume
// contract: a campaign killed halfway and resumed from its store
// renders byte-identically to a fresh full sweep.
func TestSweepSkipResumeIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	checkSweepInvariant(t, cfg, exps, 0, draws{workers: 4, perm: 13, split: len(exps) / 2})
}

// TestSweepResumeRespectsMaxCrashes: cached crash entries count toward
// the threshold in plan order, so a resumed early-stopped sweep
// truncates exactly where a fresh early-stopped one does — here with
// every record the killed campaign wrote served from the store.
func TestSweepResumeRespectsMaxCrashes(t *testing.T) {
	cfg, set := mixedTarget(t)
	checkSweepInvariant(t, cfg, core.PlanExperiments(set), 0, draws{maxCrashes: 1, workers: 4, split: -1})
}

// TestExperimentKeysDistinctAndStable: every experiment in the matrix
// has a unique key, and regenerating the matrix reproduces them —
// the identity a store's resume filter matches across processes.
func TestExperimentKeysDistinctAndStable(t *testing.T) {
	_, set := mixedTarget(t)
	a, b := core.PlanExperiments(set), core.PlanExperiments(set)
	seen := make(map[string]int)
	for i := range a {
		k := a[i].Key()
		if j, dup := seen[k]; dup {
			t.Errorf("experiments %d and %d share key %q", j, i, k)
		}
		seen[k] = i
		if bk := b[i].Key(); bk != k {
			t.Errorf("experiment %d key unstable: %q vs %q", i, k, bk)
		}
	}
}

// TestReportCrashStack: a signal death captures the dying process's
// backtrace on the report (the triage clustering identity); clean exits
// do not.
func TestReportCrashStack(t *testing.T) {
	cfg, set := mixedTarget(t)
	exps := core.PlanExperiments(set)
	var crashRep, cleanRep *core.Report
	_, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 1,
		OnResult: func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
			switch {
			case entry.Outcome == core.OutcomeCrash && crashRep == nil:
				crashRep = rep
			case entry.Outcome == core.OutcomeHandled && cleanRep == nil:
				cleanRep = rep
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if crashRep == nil || cleanRep == nil {
		t.Fatal("matrix did not produce both a crash and a handled outcome")
	}
	if len(crashRep.CrashStack) == 0 {
		t.Error("crash report has no crash stack")
	} else if last := crashRep.CrashStack[len(crashRep.CrashStack)-1]; last != "main" {
		t.Errorf("outermost crash frame = %q, want main (stack %v)", last, crashRep.CrashStack)
	}
	if cleanRep.CrashStack != nil {
		t.Errorf("clean exit must not carry a crash stack: %v", cleanRep.CrashStack)
	}
}
