package core

import (
	"fmt"
	"slices"
	"sync"

	"lfi/internal/vm"
)

// Trigger-point snapshot memoization: the prefix-sharing layer of the
// snapshot executor.
//
// Every experiment of an exhaustive functions × errnos sweep replays
// the same deterministic prefix from the entry point up to the call its
// fault first becomes fireable at — all E errno variants of one
// (function, call-N) cell pay that prefix E times. The memoizer groups
// experiments by their static first-fire site (scenario.FirstFireSite)
// and starts every member of a group from one snapshot taken just
// before the site.
//
// The memo ladder. The fault-free baseline's run is every
// experiment's run up to the first call of a function the
// experiment's faultload names: a call to any other function costs
// the fixed dispatch charge and touches no evaluator, exactly as under
// the pass-through faultload. Up to its site, a memoizable
// experiment's run differs from the baseline's in two things only,
// both fixed by the stubs' static call counters (§5.1): each process's
// evaluator has counted the calls to the site's function, and each of
// those calls cost 2 cycles more per trigger on the function (the
// scan the pass-through stubs skip). So the baseline mints every
// group's prefix on its way. It stops at the stub entry of every
// function with a group (vm.System.RunStops), aiming each stop at the
// next site on that function, and seals a snapshot — a rung — at the
// first arrival where the arriving process's counter shows call N−1
// and no process has reached call N. A run from a site's rung binds a
// fresh controller and catches it up from the counters
// (controller.Resume): evaluator call counts seeded, scan cycles
// charged to each process and to the system total. If the corrected
// total already reaches the budget, the plan's run could have run out
// of budget before the site, and the run starts lower instead.
//
// At every stop the baseline also reads the counters of the functions
// not yet called (controller.CallWatch): a function first called since
// the last stop anchors on the latest rung minted before it, and an
// experiment anchors on the earliest anchor among its functions — the
// latest rung at which no process had called any of them, so its run
// from there is its run from the entry, exactly. The entry snapshot is
// rung 0. Singletons, unmemoizable experiments, members of a group
// whose site the baseline never reached (or whose rung the byte budget
// refused), and budget fallbacks run whole from the latest live rung
// at or below their anchor.
//
// Every rung is sealed before the first experiment is dispatched, so
// the ladder needs no eviction: a rung that would take it past the
// byte budget is not minted. A rung is dropped once every experiment
// starting from it is committed or served from the store.

// DefaultMemoBudget caps the resident bytes of the memo ladder's rungs
// when SweepOptions.MemoBudget is zero.
const DefaultMemoBudget = 256 << 20

// memoSite identifies one shared-prefix group: the experiments whose
// faultload can first fire at the call-th intercepted call to fn in
// some process. Every member starts from the same rung; the cycles its
// trigger count adds to the prefix are charged at bind.
type memoSite struct {
	fn   string
	call int32
}

// groupOf returns the memo group of an experiment's compiled faultload;
// ok is false when the faultload has no deterministic first-fire site.
func groupOf(exp *Experiment) (site memoSite, ok bool) {
	cp := exp.Compiled
	if cp == nil {
		return memoSite{}, false
	}
	s, reason := cp.FirstFireSite()
	if reason != "" {
		return memoSite{}, false
	}
	return memoSite{fn: s.Function, call: s.Call}, true
}

// rung is one snapshot of the memo ladder; left counts the uncommitted
// experiments that start from it.
type rung struct {
	snap *vm.Snapshot
	size int64
	left int
}

// MemoStats summarises the prefix-memoization work of one sweep —
// the memo-hit/group-size numbers `lfi sweep` and `lfi-bench` report.
type MemoStats struct {
	// Groups is the number of first-fire sites with at least two
	// members in the plan, not counting sites on functions the baseline
	// never called (their members are pruned); MaxGroup is the largest
	// site's member count.
	Groups   int
	MaxGroup int
	// Rungs counts snapshots the baseline minted at group sites;
	// Restored counts group members started from their site's rung;
	// Anchored counts runs that started from a rung below their site
	// instead of the entry snapshot.
	Rungs    int
	Restored int
	Anchored int
	// Prefixes and Terminal are always 0: every prefix is a rung, so
	// no prefix runs of its own and none terminates before its site.
	// They remain for the campaign benchmark (bench/traced.go), which
	// reports them.
	Prefixes int
	Terminal int
	// Pruned counts experiments committed as the baseline run because
	// the baseline never called their functions.
	Pruned int
	// Singletons are memoizable experiments alone at their site (run
	// whole from their anchor — a rung would amortise over nothing);
	// Unmemoizable are experiments with no deterministic first-fire
	// site.
	Singletons   int
	Unmemoizable int
	// PeakBytes is the ladder's high-water resident footprint.
	PeakBytes int64
}

// String renders the stats as the single diagnostic line `lfi sweep`
// and `lfi-bench` print to stderr (never stdout — the rendered report
// must stay byte-identical to a non-memoized sweep's).
func (s *MemoStats) String() string {
	return fmt.Sprintf("memo: groups=%d max-group=%d rungs=%d restored=%d anchored=%d pruned=%d singletons=%d unmemoizable=%d peak-bytes=%d",
		s.Groups, s.MaxGroup, s.Rungs, s.Restored, s.Anchored, s.Pruned,
		s.Singletons, s.Unmemoizable, s.PeakBytes)
}

// memoCache is the sweep-wide memo ladder, shared by all workers. The
// baseline builds it; after prune only the rungs' left counts change.
type memoCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	stats  MemoStats
	// exps is the sweep's plan; sizes maps each memoizable site to its
	// member count in it.
	exps  []Experiment
	sizes map[memoSite]int
	// calls maps each function with a group to the ascending call
	// numbers of its group sites: the baseline's stops.
	calls map[string][]int32
	// ladder holds the rungs in mint order; ladder[0] is the entry
	// snapshot, never dropped, and a dropped rung is nil.
	ladder []*rung
	// sites maps each site the baseline minted a rung at to its index;
	// anchors maps each function the baseline called to the index of
	// the latest rung minted before its first call.
	sites   map[memoSite]int
	anchors map[string]int
}

func newMemoCache(budget int64, entry *vm.Snapshot) *memoCache {
	if budget <= 0 {
		budget = DefaultMemoBudget
	}
	return &memoCache{
		budget:  budget,
		sizes:   make(map[memoSite]int),
		calls:   make(map[string][]int32),
		ladder:  []*rung{{snap: entry}},
		sites:   make(map[memoSite]int),
		anchors: make(map[string]int),
	}
}

// plan counts the members of every memoizable site of the experiment
// list and collects the group sites the baseline stops at. Called
// once, before the baseline.
func (c *memoCache) plan(exps []Experiment) {
	c.exps = exps
	for i := range exps {
		if site, ok := groupOf(&exps[i]); ok {
			c.sizes[site]++
		}
	}
	for site, n := range c.sizes {
		if n >= 2 {
			c.calls[site.fn] = append(c.calls[site.fn], site.call)
		}
	}
	for _, calls := range c.calls {
		slices.Sort(calls)
	}
}

// anchor records fn's first call, seen at a baseline stop after the
// latest rung minted so far. Called by the baseline only.
func (c *memoCache) anchor(fn string) { c.anchors[fn] = len(c.ladder) - 1 }

// called reports whether the baseline has seen fn called.
func (c *memoCache) called(fn string) bool {
	_, ok := c.anchors[fn]
	return ok
}

// mint seals the baseline's snapshot at a group site as the next rung,
// unless it would take the ladder past the byte budget. Called by the
// baseline only.
func (c *memoCache) mint(site memoSite, snap *vm.Snapshot) {
	size := snap.Footprint()
	if c.used+size > c.budget {
		return
	}
	c.used += size
	c.stats.PeakBytes = max(c.stats.PeakBytes, c.used)
	c.stats.Rungs++
	c.sites[site] = len(c.ladder)
	c.ladder = append(c.ladder, &rung{snap: snap, size: size})
}

// anchorOf returns the index of the rung an experiment anchors on: the
// earliest anchor among the functions its faultload names. Functions
// the baseline never called bound nothing; an experiment naming none
// it called anchors on the entry snapshot.
func (c *memoCache) anchorOf(exp *Experiment) int {
	a := len(c.ladder)
	for _, fn := range experimentFunctions(exp) {
		if i, ok := c.anchors[fn]; ok && i < a {
			a = i
		}
	}
	if a == len(c.ladder) {
		return 0
	}
	return a
}

// groupSize returns how many plan experiments share the site.
func (c *memoCache) groupSize(site memoSite) int { return c.sizes[site] }

// home returns the index of the rung an experiment starts from while it
// is live: its site's rung for a group member the baseline minted one
// for, else its anchor.
func (c *memoCache) home(exp *Experiment) int {
	if site, ok := groupOf(exp); ok && c.sizes[site] >= 2 {
		if i, ok := c.sites[site]; ok {
			return i
		}
	}
	return c.anchorOf(exp)
}

// prune drops the sites of functions the baseline never called — their
// experiments are pruned whole before they reach the ladder — derives
// the group stats from what is left, and counts the experiments
// starting from each rung, dropping the rungs none starts from. Called
// once, after the baseline and before any worker runs.
func (c *memoCache) prune(called map[string]bool) {
	for site, n := range c.sizes {
		if !called[site.fn] {
			delete(c.sizes, site)
			continue
		}
		if n >= 2 {
			c.stats.Groups++
		}
		c.stats.MaxGroup = max(c.stats.MaxGroup, n)
	}
	for i := range c.exps {
		c.ladder[c.home(&c.exps[i])].left++
	}
	for i := 1; i < len(c.ladder); i++ {
		if c.ladder[i].left == 0 {
			c.drop(i)
		}
	}
}

// site returns the live rung a group member starts from at its site,
// nil when there is none.
func (c *memoCache) site(site memoSite) *vm.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.sites[site]; ok && c.ladder[i] != nil {
		return c.ladder[i].snap
	}
	return nil
}

// start returns the latest live rung at or below anchor — the entry
// snapshot when every rung down there was dropped — and its index.
func (c *memoCache) start(anchor int) (*vm.Snapshot, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := anchor; i > 0; i-- {
		if e := c.ladder[i]; e != nil {
			return e.snap, i
		}
	}
	return c.ladder[0].snap, 0
}

// release records that one experiment starting from the given rung is
// committed, and drops the rung once none is left.
func (c *memoCache) release(i int) {
	if i == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.ladder[i]; e != nil {
		if e.left--; e.left == 0 {
			c.drop(i)
		}
	}
}

// drop removes rung i from the ladder; the caller holds c.mu or runs
// before any worker.
func (c *memoCache) drop(i int) {
	c.used -= c.ladder[i].size
	c.ladder[i] = nil
}

// served records an experiment served from the store: one that will
// never start from its rung.
func (c *memoCache) served(exp *Experiment) { c.release(c.home(exp)) }

// note runs a stats mutation under the cache lock.
func (c *memoCache) note(f func(*MemoStats)) {
	c.mu.Lock()
	f(&c.stats)
	c.mu.Unlock()
}

// statsSnapshot copies the final counters out for SweepResult.Memo.
func (c *memoCache) statsSnapshot() *MemoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	return &st
}
