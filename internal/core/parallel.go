package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// SweepOptions tunes the campaign executor.
type SweepOptions struct {
	// Workers is the number of concurrent campaigns; <= 0 means
	// runtime.GOMAXPROCS(0). Each worker owns its own Campaign (and
	// therefore its own vm.System, controller and evaluator); the
	// CampaignConfig's Programs, Profiles and Files are shared across
	// workers and must not be mutated while the sweep runs.
	Workers int
	// MaxCrashes, when > 0, stops the sweep early once that many crash
	// outcomes have accumulated — the triage workflow: "show me the
	// first N ways this program dies". Crashes are counted in plan
	// order and the report is truncated at the threshold entry, so the
	// early-stopped result is also identical at every worker count.
	MaxCrashes int
	// Progress, when non-nil, is called after each experiment is
	// committed to the report, in plan order, from a single goroutine.
	Progress func(SweepProgress)
	// Snapshot selects how each run's template system is produced
	// (snapshot.go). Every run executes the same guest either way: the
	// executable spawned with one stub library preloaded for the union
	// of every function the sweep intercepts, binding only its own
	// compiled faultload. With Snapshot set — the production executor of
	// `lfi sweep` — the template is built once, frozen as a vm.Snapshot
	// and restored copy-on-write for every run, baseline included, and
	// an experiment whose functions the baseline never called through
	// their stubs is committed as the baseline run it would replay,
	// without running (pruneEntry). The zero value rebuilds the template
	// for every run and runs every experiment: the fresh-spawn oracle
	// that tests and the campaign benchmark check production against.
	// Reports, cycle counts and injection logs are identical.
	Snapshot bool
	// MemoBudget caps the resident bytes of the memo ladder's rungs
	// (memo.go); 0 means DefaultMemoBudget. Under Snapshot, the
	// baseline snapshots itself just before every first-fire site
	// shared by two or more precompiled experiments
	// (scenario.FirstFireSite), and each such experiment starts from
	// its site's rung, every other one from the latest rung at which
	// no process had called a function its faultload names. A rung
	// that would exceed the budget is not minted, and its experiments
	// start lower; 1 mints none, so every run starts from the entry.
	// Reports are byte-identical at any budget. Ignored unless
	// Snapshot is set.
	MemoBudget int64
	// Skip, when non-nil, is consulted once per experiment before any
	// run is spawned; returning (entry, true) commits the cached entry
	// in plan order without executing. This is the resume filter of
	// persistent campaign stores (internal/campaign): completed keys are
	// served from disk, the rest run, and the reassembled report is
	// byte-identical to a fresh full sweep. Skipped entries still count
	// toward MaxCrashes in plan order, so a resumed early-stopped sweep
	// truncates exactly where a fresh one would. Called from worker
	// goroutines — implementations must be safe for concurrent use.
	Skip func(exp *Experiment) (SweepEntry, bool)
	// ExecOrder, when non-nil, is a permutation of [0, len(exps))
	// giving the order experiments are dispatched AND committed in —
	// the audit-prioritised schedule of `lfi sweep -order=static`
	// (core.StaticOrder), where faultloads targeting unchecked call
	// sites run first so crash clusters surface early under MaxCrashes.
	// Early-stop thresholds count outcomes in execution order and
	// truncate there; a completed sweep's entries are reassembled into
	// plan order before the result is returned, so the full-sweep
	// report is byte-identical to the default (nil) order at any worker
	// count. A non-permutation is rejected.
	ExecOrder []int
	// OnResult, when non-nil, observes every freshly-executed experiment
	// from the worker goroutine that ran it — the live feed persistent
	// stores append to, firing as results complete (before plan-order
	// reassembly, so arrival order varies with scheduling). rep is the
	// run's report; for an experiment pruned because the baseline never
	// called its functions it is the baseline's, which that run would
	// have replayed exactly, and must not be modified. Entries served
	// from Skip are not re-reported.
	// Called concurrently at Workers > 1 — implementations must be safe
	// for concurrent use.
	OnResult func(exp *Experiment, entry SweepEntry, rep *Report)
}

// SweepProgress is one live progress update of a running sweep.
type SweepProgress struct {
	// Done experiments out of Total are committed to the report.
	Done, Total int
	// Served is how many of the Done entries were satisfied without a
	// member-specific execution: resume entries served from the
	// persistent store (Skip) and experiments pruned because the
	// baseline never called their functions. Done - Served is the
	// number of experiments actually executed.
	Served int
	// Entry is the experiment just committed.
	Entry SweepEntry
	// Tally is the cumulative outcome count over committed entries.
	Tally map[Outcome]int
}

// String renders the update as a one-line status.
func (p SweepProgress) String() string {
	return fmt.Sprintf("[%d/%d] %s.%s -> %s (crash=%d hang=%d error-exit=%d served=%d)",
		p.Done, p.Total, p.Entry.Library, p.Entry.Function, p.Entry.Outcome,
		p.Tally[OutcomeCrash], p.Tally[OutcomeHang], p.Tally[OutcomeErrorExit], p.Served)
}

// RunExperiments is the campaign executor: it runs the clean baseline,
// dispatches the experiments to a worker pool, and collects the entries
// back into plan order. The paper's §2 sweep is
// RunExperiments(cfg, PlanExperiments(set), budget,
// SweepOptions{Workers: n, Snapshot: true}); callers with custom
// faultloads (e.g. seeded random triggers) build their own experiment
// list and execute it the same way.
func RunExperiments(cfg CampaignConfig, exps []Experiment, budget uint64, opts SweepOptions) (*SweepResult, error) {
	if budget == 0 {
		budget = DefaultSweepBudget
	}
	// pos maps commit position -> plan index under the optional
	// execution-order permutation (identity when unset).
	if opts.ExecOrder != nil {
		if err := checkPermutation(opts.ExecOrder, len(exps)); err != nil {
			return nil, err
		}
	}
	pos := func(k int) int {
		if opts.ExecOrder != nil {
			return opts.ExecOrder[k]
		}
		return k
	}
	r, err := newSnapshotRunner(cfg, exps, opts)
	if err != nil {
		return nil, err
	}
	base, called, err := r.baseline(budget)
	if err != nil {
		return nil, err
	}
	run := func(exp Experiment) (SweepEntry, bool, error) {
		// Resume outranks pruning: a cached entry is the recorded truth
		// of a real run, while pruning merely predicts one.
		if opts.Skip != nil {
			if entry, ok := opts.Skip(&exp); ok {
				if r.memo != nil {
					r.memo.served(&exp)
				}
				return entry, true, nil
			}
		}
		if called != nil {
			if entry, ok := pruneEntry(&exp, called, base, cfg.Avail); ok {
				if r.memo != nil {
					r.memo.note(func(s *MemoStats) { s.Pruned++ })
				}
				if opts.OnResult != nil {
					opts.OnResult(&exp, entry, base)
				}
				return entry, true, nil
			}
		}
		entry, rep, err := r.run(exp, base, budget)
		if err != nil {
			return entry, false, err
		}
		if opts.OnResult != nil {
			opts.OnResult(&exp, entry, rep)
		}
		return entry, false, nil
	}
	res := &SweepResult{Executable: cfg.Executable, Baseline: base.Status.Code}
	if r.memo != nil {
		defer func() { res.Memo = r.memo.statsSnapshot() }()
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(exps) {
		workers = len(exps)
	}

	collect := newCollector(res, len(exps), opts)
	if workers <= 1 {
		for k := range exps {
			i := pos(k)
			entry, served, err := run(exps[i])
			if err != nil {
				return nil, err
			}
			if collect.commit(i, entry, served) {
				break
			}
		}
		collect.reassemble()
		return res, nil
	}

	type job struct {
		idx int
		exp Experiment
	}
	type outcome struct {
		idx    int
		entry  SweepEntry
		served bool
		err    error
	}
	jobs := make(chan job)
	results := make(chan outcome, workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	// On every exit path — completion, early stop, error — halt the pool
	// and drain results until the closer closes the channel, i.e. until
	// every worker has exited. A worker mid-experiment finishes that run
	// first, so no goroutine reads the shared CampaignConfig after this
	// function returns and callers may immediately reuse or mutate it.
	defer func() {
		halt()
		for range results {
		}
	}()

	// Dispatcher: feeds the plan in execution order until done or halted.
	go func() {
		defer close(jobs)
		for k := range exps {
			i := pos(k)
			select {
			case jobs <- job{idx: i, exp: exps[i]}:
			case <-stop:
				return
			}
		}
	}()

	// Workers: one private System per experiment, nothing shared but the
	// read-only config and runner.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				entry, served, err := run(j.exp)
				select {
				case results <- outcome{idx: j.idx, entry: entry, served: served, err: err}:
				case <-stop:
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Collector: re-order completions into execution order so the report
	// is independent of scheduling (plan order unless ExecOrder permutes
	// it; reassemble below restores plan order either way). Errors are
	// buffered like entries and surfaced in execution order too — an
	// error from a later experiment must not preempt an earlier early
	// stop, or the sweep would fail at some worker counts and succeed at
	// others.
	pending := make(map[int]outcome, workers)
	next := 0
	for r := range results {
		pending[r.idx] = r
		stopped := false
		for next < len(exps) {
			o, ok := pending[pos(next)]
			if !ok {
				break
			}
			if o.err != nil {
				halt()
				return nil, o.err
			}
			delete(pending, pos(next))
			next++
			if collect.commit(o.idx, o.entry, o.served) {
				stopped = true
				break
			}
		}
		if stopped || next == len(exps) {
			halt()
			break
		}
	}
	collect.reassemble()
	return res, nil
}

// checkPermutation validates an ExecOrder against the plan size.
func checkPermutation(order []int, n int) error {
	if len(order) != n {
		return fmt.Errorf("core: ExecOrder has %d entries for %d experiments", len(order), n)
	}
	seen := make([]bool, n)
	for _, i := range order {
		if i < 0 || i >= n || seen[i] {
			return fmt.Errorf("core: ExecOrder is not a permutation of the plan")
		}
		seen[i] = true
	}
	return nil
}

// collector accumulates in-order entries, drives progress reporting and
// decides early stop. It is used from a single goroutine.
type collector struct {
	res    *SweepResult
	total  int
	opts   SweepOptions
	tally  map[Outcome]int
	served int
	// idxs records each committed entry's plan index, so reassemble can
	// restore plan order after a permuted (ExecOrder) execution.
	idxs []int
}

func newCollector(res *SweepResult, total int, opts SweepOptions) *collector {
	return &collector{res: res, total: total, opts: opts, tally: make(map[Outcome]int)}
}

// commit appends one in-execution-order entry (idx is its plan index)
// and reports whether the sweep should stop early. served marks entries
// satisfied without executing a run (resume cache hits and pruned
// experiments), tallied separately from executed experiments.
func (c *collector) commit(idx int, entry SweepEntry, served bool) (stop bool) {
	c.res.Entries = append(c.res.Entries, entry)
	c.idxs = append(c.idxs, idx)
	c.tally[entry.Outcome]++
	if served {
		c.served++
	}
	if c.opts.Progress != nil {
		tally := make(map[Outcome]int, len(c.tally))
		for k, v := range c.tally {
			tally[k] = v
		}
		c.opts.Progress(SweepProgress{
			Done: len(c.res.Entries), Total: c.total, Served: c.served,
			Entry: entry, Tally: tally,
		})
	}
	return c.opts.MaxCrashes > 0 && c.tally[OutcomeCrash] >= c.opts.MaxCrashes
}

// reassemble sorts the committed entries back into plan order. Under the
// default schedule commits already arrive in plan order and this is a
// no-op; under ExecOrder it is what makes a completed permuted sweep's
// report byte-identical to the default order's.
func (c *collector) reassemble() {
	if c.opts.ExecOrder == nil {
		return
	}
	sort.Sort(&byPlanIndex{entries: c.res.Entries, idxs: c.idxs})
}

// byPlanIndex sorts entries and their plan indices together.
type byPlanIndex struct {
	entries []SweepEntry
	idxs    []int
}

func (s *byPlanIndex) Len() int           { return len(s.idxs) }
func (s *byPlanIndex) Less(i, j int) bool { return s.idxs[i] < s.idxs[j] }
func (s *byPlanIndex) Swap(i, j int) {
	s.entries[i], s.entries[j] = s.entries[j], s.entries[i]
	s.idxs[i], s.idxs[j] = s.idxs[j], s.idxs[i]
}
