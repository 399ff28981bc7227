package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"lfi/internal/campaign"
	"lfi/internal/core"
)

// workers is the benchmark's load shape: a closed loop in one process
// whose sweeps run two workers on two Go procs.
const workers = 2

// sweepRun is one sweep of a target through the production executor:
// snapshot restores with prefix memoization on.
type sweepRun struct {
	res *core.SweepResult
	// wall is the RunExperiments call, or for a resumed campaign the
	// whole Open, Sweep, Triage, Close sequence.
	wall time.Duration
	// firstSkip runs from the start of wall to the first Skip callback:
	// stub synthesis, snapshot, baseline and memo planning.
	firstSkip time.Duration
	// lat holds, per executed experiment, the time from its Skip
	// callback to its OnResult on the same worker.
	lat []time.Duration
	// served is the last progress update's served count (traced runs).
	served int
}

// realSweep sweeps one target with the two timestamp hooks installed.
// With a seed store it resumes a copy of it in runDir, as a user's
// `lfi sweep -store d -resume -triage` does. progress adds the progress
// hook, which only traced runs use.
func realSweep(t target, nworkers int, seedStore, runDir string, progress bool) (*sweepRun, error) {
	run := &sweepRun{}
	var (
		mu     sync.Mutex
		t0     time.Time
		starts = map[*core.Experiment]time.Time{}
	)
	opts := core.SweepOptions{Workers: nworkers, Snapshot: true}
	opts.Skip = func(exp *core.Experiment) (core.SweepEntry, bool) {
		now := time.Now()
		mu.Lock()
		if run.firstSkip == 0 {
			run.firstSkip = now.Sub(t0)
		}
		starts[exp] = now
		mu.Unlock()
		return core.SweepEntry{}, false
	}
	opts.OnResult = func(exp *core.Experiment, _ core.SweepEntry, _ *core.Report) {
		now := time.Now()
		mu.Lock()
		if s, ok := starts[exp]; ok {
			run.lat = append(run.lat, now.Sub(s))
			delete(starts, exp)
		}
		mu.Unlock()
	}
	if progress {
		opts.Progress = func(p core.SweepProgress) { run.served = p.Served }
	}

	if seedStore == "" {
		t0 = time.Now()
		res, err := core.RunExperiments(t.cfg, t.exps, 0, opts)
		run.wall = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", t.name, err)
		}
		run.res = res
		return run, nil
	}

	if err := copyStore(seedStore, runDir); err != nil {
		return nil, err
	}
	t0 = time.Now()
	store, err := campaign.Open(runDir)
	if err != nil {
		return nil, err
	}
	res, err := campaign.Sweep(t.cfg, t.exps, 0, opts, store, true)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("resume %s: %w", t.name, err)
	}
	campaign.Triage(store.Records())
	if err := store.Close(); err != nil {
		return nil, err
	}
	run.wall = time.Since(t0)
	run.res = res
	return run, nil
}

// fillStore writes the store of a campaign killed after the first
// resumeShare of its plan: the records a resumed repetition serves.
func fillStore(t target, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := campaign.Open(dir)
	if err != nil {
		return err
	}
	n := int(float64(len(t.exps)) * resumeShare)
	_, err = campaign.Sweep(t.cfg, t.exps[:n], 0, core.SweepOptions{Workers: workers, Snapshot: true}, store, false)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}

// copyStore replaces dst with a copy of the store directory src.
func copyStore(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	for _, name := range []string{campaign.StoreFile, campaign.ManifestFile} {
		blob, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, name), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// oracle runs a target's plan once on the fresh-spawn executor with one
// worker — no snapshot, no memo — as the reference every timed and
// replica sweep must reproduce.
func oracle(t target) ([]core.SweepEntry, error) {
	res, err := core.RunExperiments(t.cfg, t.exps, 0, core.SweepOptions{Workers: 1})
	if err != nil {
		return nil, fmt.Errorf("oracle %s: %w", t.name, err)
	}
	return res.Entries, nil
}

// checkEntries counts a sweep's entries as attempted and the ones that
// differ from the oracle's as failed.
func checkEntries(res *result, want, got []core.SweepEntry) {
	res.Attempted += len(want)
	res.Failed += mismatches(got, want)
}

// mismatches counts entries of got that differ from want (outcome, exit
// code, signal, availability class and counts, and coordinates), plus
// entries missing from either side.
func mismatches(got, want []core.SweepEntry) int {
	n := 0
	for i := range got {
		if i >= len(want) || got[i] != want[i] {
			n++
		}
	}
	if len(want) > len(got) {
		n += len(want) - len(got)
	}
	return n
}
