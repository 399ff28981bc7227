package core_test

import (
	"sync"
	"testing"

	"lfi/internal/core"
)

// TestSweepSkipResumeIdentical is the executor half of the resume
// contract: results captured live by OnResult from a partial sweep,
// served back through Skip, must yield a report byte-identical to a
// fresh full sweep — at 1, 4 and 8 workers, on both executors.
func TestSweepSkipResumeIdentical(t *testing.T) {
	cfg, set := mixedTarget(t)
	fresh, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Render()

	for _, snapshot := range []bool{false, true} {
		// Phase 1: execute exactly the first half of the matrix with
		// OnResult recording — the "killed at 50%" half-completed
		// campaign.
		var mu sync.Mutex
		done := make(map[string]core.SweepEntry)
		half := core.PlanExperiments(set)[:len(fresh.Entries)/2]
		if _, err := core.RunExperiments(cfg, half, 0, core.SweepOptions{
			Workers: 4, Snapshot: snapshot,
			OnResult: func(exp *core.Experiment, entry core.SweepEntry, rep *core.Report) {
				mu.Lock()
				done[exp.Key()] = entry
				mu.Unlock()
			},
		}); err != nil {
			t.Fatalf("snapshot=%v partial: %v", snapshot, err)
		}
		if len(done) != len(half) {
			t.Fatalf("snapshot=%v: recorded %d of %d executed experiments",
				snapshot, len(done), len(half))
		}

		// Phase 2: resume — completed keys served from the recorded map.
		for _, workers := range []int{1, 4, 8} {
			var skipped, ran int
			res, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{
				Workers: workers, Snapshot: snapshot,
				Skip: func(exp *core.Experiment) (core.SweepEntry, bool) {
					mu.Lock()
					defer mu.Unlock()
					if e, ok := done[exp.Key()]; ok {
						skipped++
						return e, true
					}
					ran++
					return core.SweepEntry{}, false
				},
			})
			if err != nil {
				t.Fatalf("snapshot=%v workers=%d resume: %v", snapshot, workers, err)
			}
			if got := res.Render(); got != want {
				t.Errorf("snapshot=%v workers=%d: resumed report differs from fresh:\n--- fresh ---\n%s--- resumed ---\n%s",
					snapshot, workers, want, got)
			}
			if skipped == 0 || ran == 0 {
				t.Errorf("snapshot=%v workers=%d: resume did not mix cached (%d) and fresh (%d) entries",
					snapshot, workers, skipped, ran)
			}
		}
	}
}

// TestSweepResumeRespectsMaxCrashes: cached crash entries count toward
// the threshold in plan order, so a resumed early-stopped sweep
// truncates exactly where a fresh early-stopped one does.
func TestSweepResumeRespectsMaxCrashes(t *testing.T) {
	cfg, set := mixedTarget(t)
	fresh, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0,
		core.SweepOptions{Workers: 1, MaxCrashes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Serve every entry of the full matrix from cache.
	cache := make(map[string]core.SweepEntry)
	full, err := core.RunExperiments(cfg, core.PlanExperiments(set), 0, core.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	exps := core.PlanExperiments(set)
	for i, exp := range exps {
		cache[exp.Key()] = full.Entries[i]
	}
	res, err := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
		Workers: 4, MaxCrashes: 1,
		Skip: func(exp *core.Experiment) (core.SweepEntry, bool) {
			e, ok := cache[exp.Key()]
			return e, ok
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != fresh.Render() {
		t.Errorf("all-cached early stop differs from fresh early stop:\n%s\nvs\n%s",
			fresh.Render(), res.Render())
	}
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
