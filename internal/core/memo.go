package core

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"lfi/internal/controller"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// Trigger-point snapshot memoization: the prefix-sharing layer of the
// snapshot executor.
//
// Every experiment of an exhaustive functions × errnos sweep replays
// the same deterministic prefix from the entry point up to the call its
// fault first becomes fireable at — all E errno variants of one
// (function, call-N) cell pay that prefix E times. The memoizer groups
// experiments by their static first-fire site
// (scenario.FirstFireSite), freezes guest + controller state just
// before the site as a mid-execution vm.Snapshot plus
// controller.Checkpoint, and restores every group member from the pair.
// Determinism makes this exact: same-site plans evaluate calls 1..N-1
// identically (same per-call cycle charges, no injections, no random
// draws), so the restored runs are bit-identical to unbroken ones and
// the rendered report matches the non-memoized sweep byte for byte
// (TestSweepMemoIdentical).
//
// The memo ladder. The fault-free baseline's run is every
// experiment's run up to the first call of a function the
// experiment's faultload names: a call to any other function costs
// the fixed dispatch charge and touches no evaluator, exactly as
// under the pass-through faultload. The baseline therefore mints a
// ladder of snapshots on its way, and every experiment starts from
// the nearest one below its first such call (its anchor). It stops at
// the first arrival at the stub entry of every function with a call-1
// group (vm.System.RunStops) and, where the stub's call counter shows
// no process called the function yet, seals a snapshot there: a rung.
// The pass-through controller never mints an evaluator, so a rung
// carries no checkpoint; a run from it binds a fresh controller. At
// every stop it also reads the counters of the functions not yet
// called (controller.CallWatch): a function first called since the
// last stop anchors on the latest rung minted before it, and an
// experiment anchors on the earliest anchor among its functions — the
// latest rung at which no process had called any of them, so its run
// from there is its run from the entry, exactly. The entry snapshot
// is rung 0.
//
// A call-1 group's anchor is its function's own rung, which is its
// prefix: members run from it directly. Every other group — a later
// call, or a call-1 group whose rung the counter check refused or the
// byte budget evicted — builds its prefix on demand: the first member
// to arrive restores its anchor and runs, at full block-engine speed,
// to just before the site (vm.System.RunBreak). Singletons,
// unmemoizable experiments and fallbacks run whole from their anchor.
//
// Cached prefixes and rungs live in a byte-budgeted LRU shared by all
// sweep workers; a first acquirer builds a group's prefix while later
// members of the group wait on its ready channel, and sealed entries
// evict least-recently-used first. A prefix is also dropped once every
// member of its group is committed, restored or served from the store,
// and a rung once every experiment anchored on it is; a run whose
// anchor was evicted starts from the next lower live rung. Eviction is
// safe at any time: snapshots are immutable and users hold the entry
// pointer directly.

// DefaultMemoBudget caps the memo cache's resident snapshot bytes when
// SweepOptions.MemoBudget is zero.
const DefaultMemoBudget = 256 << 20

// memoKey identifies one shared-prefix group. Two plans with the same
// key have observably identical evaluation prefixes: the site fixes
// where execution stops, and the per-function trigger count fixes the
// per-call cycle charge (10 + 2*scanned) every earlier intercepted
// call to fn pays.
type memoKey struct {
	fn    string
	call  int32
	ntrig int
}

// groupOf returns the memo group of an experiment's compiled faultload;
// ok is false when the faultload has no deterministic first-fire site.
func groupOf(exp *Experiment) (key memoKey, ok bool) {
	cp := exp.Compiled
	if cp == nil {
		return memoKey{}, false
	}
	site, reason := cp.FirstFireSite()
	if reason != "" {
		return memoKey{}, false
	}
	return memoKey{fn: site.Function, call: site.Call, ntrig: cp.TriggerCount(site.Function)}, true
}

// memoEntry is one cached prefix or one rung. A prefix's builder fills
// exactly one of snap+ckpt (the site was reached), term (the prefix
// terminated first — every member's run IS the prefix run) or failed,
// then seals the entry and closes ready; all fields but left are
// immutable afterwards. A rung is sealed with its snap alone; its key
// names the function whose first stub arrival minted it.
type memoEntry struct {
	key   memoKey
	ready chan struct{}
	elem  *list.Element
	// rung is a rung's index on the ladder, 0 for a prefix; left counts
	// a rung's uncommitted anchored experiments.
	rung int
	left int

	snap   *vm.Snapshot
	ckpt   *controller.Checkpoint
	term   *Report
	size   int64
	failed bool
	sealed bool
}

// MemoStats summarises the prefix-memoization work of one sweep —
// the memo-hit/group-size numbers `lfi sweep` and `lfi-bench` report.
type MemoStats struct {
	// Groups is the number of first-fire-site groups with at least two
	// members in the plan, not counting groups on functions the
	// baseline never called (their members are pruned); MaxGroup is the
	// largest such group's size.
	Groups   int
	MaxGroup int
	// Rungs counts snapshots the baseline minted at first stub
	// arrivals; Prefixes counts prefix runs executed (rebuilds after
	// eviction included); Restored counts group members completed from
	// a snapshot at their site, a rung or a built prefix; Terminal
	// counts experiments served whole from a prefix that terminated
	// before its site; Anchored counts whole runs and prefix runs that
	// started from a rung instead of the entry snapshot.
	Rungs    int
	Prefixes int
	Restored int
	Terminal int
	Anchored int
	// Pruned counts experiments committed as the baseline run because
	// the baseline never called their functions.
	Pruned int
	// Singletons are memoizable experiments alone at their site (run
	// whole from their anchor — a prefix would amortise over nothing);
	// Unmemoizable are experiments with no deterministic first-fire
	// site; Fallbacks are group members that ran whole from their
	// anchor because their prefix failed to build.
	Singletons   int
	Unmemoizable int
	Fallbacks    int
	// Evictions counts cache entries evicted by the byte budget;
	// PeakBytes is the cache's high-water resident footprint.
	Evictions int
	PeakBytes int64
}

// String renders the stats as the single diagnostic line `lfi sweep`
// and `lfi-bench` print to stderr (never stdout — the rendered report
// must stay byte-identical to a non-memoized sweep's).
func (s *MemoStats) String() string {
	return fmt.Sprintf("memo: groups=%d max-group=%d rungs=%d prefixes=%d restored=%d terminal=%d anchored=%d pruned=%d singletons=%d unmemoizable=%d fallbacks=%d evictions=%d peak-bytes=%d",
		s.Groups, s.MaxGroup, s.Rungs, s.Prefixes, s.Restored, s.Terminal, s.Anchored, s.Pruned,
		s.Singletons, s.Unmemoizable, s.Fallbacks, s.Evictions, s.PeakBytes)
}

// memoCache is the sweep-wide prefix store, shared by all workers.
type memoCache struct {
	mu      sync.Mutex
	budget  int64
	used    int64
	entries map[memoKey]*memoEntry
	lru     *list.List // front = most recently used
	stats   MemoStats
	// exps is the sweep's plan; sizes maps each memoizable site to its
	// member count in it, precomputed before the sweep starts and
	// read-only after.
	exps  []Experiment
	sizes map[memoKey]int
	// stops lists, sorted, the functions with a call-1 group: the
	// baseline stops at each one's first stub arrival to mint a rung.
	stops []string
	// ladder holds the rungs in mint order; ladder[0] is the entry
	// snapshot, never evicted, and a dropped or evicted rung is nil.
	ladder []*memoEntry
	// anchors maps each function the baseline called to the index of
	// the latest rung minted before its first call. Written by the
	// baseline only, read-only after.
	anchors map[string]int
	// left counts each group's members not yet committed; done drops
	// the group's entry when none is left.
	left map[memoKey]int
}

func newMemoCache(budget int64, entry *vm.Snapshot) *memoCache {
	if budget <= 0 {
		budget = DefaultMemoBudget
	}
	return &memoCache{
		budget:  budget,
		entries: make(map[memoKey]*memoEntry),
		lru:     list.New(),
		sizes:   make(map[memoKey]int),
		ladder:  []*memoEntry{{snap: entry, sealed: true}},
		anchors: make(map[string]int),
		left:    make(map[memoKey]int),
	}
}

// plan registers the experiment list's memoizable sites so groupSize
// can tell amortisable groups from singletons, and collects the
// functions whose call-1 groups the baseline mints rungs for. Called
// once, before the baseline.
func (c *memoCache) plan(exps []Experiment) {
	c.exps = exps
	for i := range exps {
		if key, ok := groupOf(&exps[i]); ok {
			c.sizes[key]++
		}
	}
	seen := make(map[string]bool)
	for key, n := range c.sizes {
		if key.call == 1 && n >= 2 && !seen[key.fn] {
			seen[key.fn] = true
			c.stops = append(c.stops, key.fn)
		}
	}
	sort.Strings(c.stops)
}

// anchor records fn's first call, seen at a baseline stop after the
// latest rung minted so far. Called by the baseline only.
func (c *memoCache) anchor(fn string) { c.anchors[fn] = len(c.ladder) - 1 }

// called reports whether the baseline has seen fn called.
func (c *memoCache) called(fn string) bool {
	_, ok := c.anchors[fn]
	return ok
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

// prune drops the sites of functions the baseline never called — their
// experiments are pruned whole before they reach the cache — derives
// the group stats from what is left, and counts each rung's anchored
// experiments, dropping the rungs none anchors on. Called once, after
// the baseline and before any worker runs.
func (c *memoCache) prune(called map[string]bool) {
	for key, n := range c.sizes {
		if !called[key.fn] {
			delete(c.sizes, key)
			continue
		}
		if n >= 2 {
			c.stats.Groups++
			c.left[key] = n
		}
		if n > c.stats.MaxGroup {
			c.stats.MaxGroup = n
		}
	}
	for i := range c.exps {
		if e := c.ladder[c.anchorOf(&c.exps[i])]; e != nil && e.rung > 0 {
			e.left++
		}
	}
	c.mu.Lock()
	for _, e := range c.ladder[1:] {
		if e != nil && e.left == 0 {
			c.drop(e)
		}
	}
	c.mu.Unlock()
}

// groupSize returns how many plan experiments share the site.
func (c *memoCache) groupSize(key memoKey) int { return c.sizes[key] }

// acquire returns the cache entry for key and whether the caller must
// build it. A non-building caller waits on entry.ready before reading.
func (c *memoCache) acquire(key memoKey) (*memoEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.lru.MoveToFront(e.elem)
		return e, false
	}
	c.stats.Prefixes++
	return c.insert(key), true
}

// insert adds an unsealed entry for key; the caller holds c.mu.
func (c *memoCache) insert(key memoKey) *memoEntry {
	e := &memoEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	return e
}

// mint seals the baseline's snapshot at fn's first stub arrival as the
// next rung of the ladder.
func (c *memoCache) mint(fn string, snap *vm.Snapshot) {
	e := &memoEntry{key: memoKey{fn: fn, call: 1}, ready: make(chan struct{}), rung: len(c.ladder), snap: snap}
	c.mu.Lock()
	c.stats.Rungs++
	e.elem = c.lru.PushFront(e)
	c.ladder = append(c.ladder, e)
	c.mu.Unlock()
	c.seal(e)
}

// start returns the latest live rung at or below anchor — the entry
// snapshot when every rung down there was evicted or dropped.
func (c *memoCache) start(anchor int) *memoEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := anchor; i > 0; i-- {
		if e := c.ladder[i]; e != nil {
			c.lru.MoveToFront(e.elem)
			return e
		}
	}
	return c.ladder[0]
}

// release records that one experiment anchored on the given rung is
// committed, and drops the rung once none is left.
func (c *memoCache) release(anchor int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.ladder[anchor]; e != nil && e.rung > 0 {
		if e.left--; e.left == 0 {
			c.drop(e)
		}
	}
}

// seal publishes a built entry: accounts its footprint, evicts
// least-recently-used sealed entries beyond the byte budget, and wakes
// waiters. The just-sealed entry itself is never evicted here, so a
// group always completes against the prefix it built even when a single
// snapshot exceeds the whole budget.
func (c *memoCache) seal(e *memoEntry) {
	c.mu.Lock()
	switch {
	case e.snap != nil:
		e.size = e.snap.Footprint()
	default:
		e.size = 1024 // terminal or failed: the entry itself
	}
	e.sealed = true
	c.used += e.size
	if c.used > c.stats.PeakBytes {
		c.stats.PeakBytes = c.used
	}
	for c.used > c.budget {
		var victim *memoEntry
		for el := c.lru.Back(); el != nil; el = el.Prev() {
			v := el.Value.(*memoEntry)
			if v.sealed && v != e {
				victim = v
				break
			}
		}
		if victim == nil {
			break
		}
		c.drop(victim)
		c.stats.Evictions++
	}
	c.mu.Unlock()
	close(e.ready)
}

// drop removes a sealed entry from the cache; the caller holds c.mu.
func (c *memoCache) drop(e *memoEntry) {
	c.lru.Remove(e.elem)
	if e.rung > 0 {
		c.ladder[e.rung] = nil
	} else {
		delete(c.entries, e.key)
	}
	c.used -= e.size
}

// done records that one member of key's group is committed — run, or
// served from the store — and drops the group's entry once no member is
// left to restore from it. An entry still being built stays until the
// sweep ends.
func (c *memoCache) done(key memoKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left[key]--; c.left[key] > 0 {
		return
	}
	if e, ok := c.entries[key]; ok && e.sealed {
		c.drop(e)
	}
}

// served records an experiment served from the store: a member of its
// group that will never restore, anchored on a rung it will never
// start from.
func (c *memoCache) served(exp *Experiment) {
	if key, ok := groupOf(exp); ok && c.groupSize(key) >= 2 {
		c.done(key)
	}
	c.release(c.anchorOf(exp))
}

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

// runMemo executes one group member through the prefix cache: restore
// the group's mid-execution snapshot — its function's rung for a call-1
// group, else the group's prefix, built from the member's anchor first
// if this member arrives before anyone else — seed a thin controller
// with the checkpointed evaluator state and log prefix, and run only
// the suffix. The served flag is true when the entry came from a
// terminated prefix without executing anything member-specific.
func (r *snapshotRunner) runMemo(exp Experiment, key memoKey, anchor int, base *Report, budget uint64) (SweepEntry, *Report, bool, error) {
	entry := exp.entry()
	defer r.memo.done(key)
	// A rung minted at key.fn's first stub arrival is the prefix of
	// every call-1 group on key.fn; any other start builds one.
	e := r.memo.start(anchor)
	if key.call != 1 || e.rung == 0 || e.key.fn != key.fn {
		var build bool
		if e, build = r.memo.acquire(key); build {
			r.buildPrefix(e, exp.Compiled, key, anchor, budget)
		} else {
			<-e.ready
		}
	}
	switch {
	case e.failed:
		// The prefix could not be built (or violated the no-pre-site-
		// injection invariant): run this member in full, like a
		// non-memoized sweep would.
		r.memo.note(func(s *MemoStats) { s.Fallbacks++ })
		entry, rep, err := r.runPlain(exp, anchor, base, budget)
		return entry, rep, false, err
	case e.term != nil:
		// The prefix terminated before the site with no injection, so
		// every member's run is identical to it: serve the shared report.
		r.memo.note(func(s *MemoStats) { s.Terminal++ })
		entry.classify(e.term, base, r.cfg.Avail)
		return entry, e.term, true, nil
	}
	// The budget is absolute: TotalCycles carries over the prefix.
	rep, err := r.exec(e.snap.Restore(), exp.Compiled, e.ckpt, budget)
	if err != nil {
		return entry, nil, false, err
	}
	r.memo.note(func(s *MemoStats) { s.Restored++ })
	entry.classify(rep, base, r.cfg.Avail)
	return entry, rep, false, nil
}

// buildPrefix runs the shared prefix for one group: restore the
// building member's anchor, bind its faultload (any member works —
// same-key plans evaluate the prefix identically and share the
// anchor), run to just before the site's call, and freeze guest +
// controller state. When the guest terminates (or exhausts the budget,
// or deadlocks) before ever reaching the site, the completed run itself
// is the result for every member — provided nothing was injected, which
// the analyzer guarantees and this defensively re-checks.
func (r *snapshotRunner) buildPrefix(e *memoEntry, cp *scenario.CompiledPlan, key memoKey, anchor int, budget uint64) {
	defer r.memo.seal(e)
	va, ok := r.stubVAs[key.fn]
	if !ok {
		e.failed = true
		return
	}
	sys, err := r.system(anchor)
	if err != nil {
		e.failed = true
		return
	}
	ctl := controller.NewWithStubs(r.stubs, cp)
	if err := ctl.Install(sys); err != nil {
		e.failed = true
		return
	}
	hit, err := sys.RunBreak(va, key.call, budget)
	if len(ctl.Log()) > 0 {
		// An injection before the site contradicts FirstFireSite; never
		// share such a prefix.
		e.failed = true
		return
	}
	if !hit {
		rep, rerr := assembleReport(err, sys, ctl, r.cfg.Avail)
		if rerr != nil {
			e.failed = true
			return
		}
		if r.cfg.VM.Coverage {
			rep.Coverage = coveredInsts(sys)
		}
		e.term = rep
		return
	}
	snap, serr := sys.Snapshot()
	if serr != nil {
		e.failed = true
		return
	}
	e.snap = snap
	e.ckpt = ctl.Checkpoint()
}
