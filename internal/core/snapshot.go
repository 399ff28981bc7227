package core

import (
	"fmt"
	"slices"
	"strings"

	"lfi/internal/controller"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// snapshotRunner is the campaign executor. One template system serves
// the whole sweep: the programs, the kernel files, the synthesised stub
// library for the union of every function the sweep intercepts, and the
// executable spawned with it preloaded. Every run — the baseline
// included — executes that template and binds only its own compiled
// faultload to the shared stub surface (controller.NewWithStubs), so
// all runs of a sweep execute the same guest whichever way it is
// produced:
//
//   - with snap set (production), the template is built once and frozen
//     as a vm.Snapshot, and each run restores from it in O(writable
//     bytes);
//   - with snap nil (the fresh-spawn oracle of SweepOptions{}), every
//     run builds the template anew.
//
// Cycle counts, injection logs, budget verdicts and availability
// envelopes are therefore equal on both paths by construction.
//
// A runner is immutable after construction and safe for concurrent use
// by any number of sweep workers: the snapshot, stub set and
// pass-through plan are shared read-only, and every run owns a private
// System plus a thin controller (evaluators and log).
type snapshotRunner struct {
	cfg CampaignConfig
	// stubs is the union interception surface; nil when no experiment
	// names a function, and the template then runs uninstrumented.
	stubs    *controller.StubSet
	snap     *vm.Snapshot
	passthru *scenario.CompiledPlan // empty plan: the baseline's faultload
	// memo, when non-nil, is the sweep-wide memo ladder (memo.go); nil
	// runs every experiment from the entry.
	memo *memoCache
}

// newSnapshotRunner synthesises the sweep's stub surface and, under
// opts.Snapshot, builds and freezes the template and plans the memo
// ladder.
func newSnapshotRunner(cfg CampaignConfig, exps []Experiment, opts SweepOptions) (*snapshotRunner, error) {
	r := &snapshotRunner{cfg: cfg, passthru: scenario.MustCompile(&scenario.Plan{}, nil)}
	var fns []string
	for i := range exps {
		fns = append(fns, experimentFunctions(&exps[i])...)
	}
	if len(fns) > 0 {
		stubs, err := controller.NewStubSet(fns)
		if err != nil {
			return nil, fmt.Errorf("core: sweep: %w", err)
		}
		r.stubs = stubs
	}
	if !opts.Snapshot {
		return r, nil
	}
	sys, err := r.spawn(cfg.VM)
	if err != nil {
		return nil, err
	}
	if r.snap, err = sys.Snapshot(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if r.stubs != nil {
		r.memo = newMemoCache(opts.memoBudget, r.snap)
		r.memo.plan(exps)
	}
	return r, nil
}

// spawn builds the template system under the given VM options:
// programs, kernel files, the stub surface, and the executable spawned
// with it preloaded, stopped at its entry point.
func (r *snapshotRunner) spawn(opts vm.Options) (*vm.System, error) {
	sys := vm.NewSystem(opts)
	for _, f := range r.cfg.Programs {
		sys.Register(f)
	}
	for path, data := range r.cfg.Files {
		sys.Kernel().AddFile(path, data)
	}
	var sc vm.SpawnConfig
	if r.stubs != nil {
		r.stubs.InstallTemplate(sys)
		sc.Preload = r.stubs.PreloadList()
	}
	if _, err := sys.Spawn(r.cfg.Executable, sc); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return sys, nil
}

// experimentFunctions lists the functions an experiment's faultload
// intercepts.
func experimentFunctions(exp *Experiment) []string {
	switch {
	case exp.Compiled != nil:
		return exp.Compiled.Functions()
	case exp.Plan != nil:
		return exp.Plan.Functions()
	}
	return nil
}

// system returns a private template system for one run that may start
// from the given memo-ladder rung: a restore of the latest live rung at
// or below it, of the entry snapshot without memo, or on the oracle
// path a fresh build of the template.
func (r *snapshotRunner) system(anchor int) (*vm.System, error) {
	switch {
	case r.memo != nil:
		snap, i := r.memo.start(anchor)
		if i > 0 {
			r.memo.note(func(s *MemoStats) { s.Anchored++ })
		}
		return snap.Restore(), nil
	case r.snap != nil:
		return r.snap.Restore(), nil
	}
	return r.spawn(r.cfg.VM)
}

// bind installs a controller for the faultload on sys's stub surface. A
// surface-less template has nothing to bind (nil controller) and runs
// uninstrumented.
func (r *snapshotRunner) bind(sys *vm.System, cp *scenario.CompiledPlan) (*controller.Controller, error) {
	if r.stubs == nil {
		return nil, nil
	}
	ctl := controller.NewWithStubs(r.stubs, cp)
	if err := ctl.Install(sys); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return ctl, nil
}

// report assembles a finished run's report from its scheduler verdict.
func (r *snapshotRunner) report(sys *vm.System, ctl *controller.Controller, runErr error) (*Report, error) {
	rep, err := assembleReport(runErr, sys, ctl, r.cfg.Avail)
	if r.cfg.VM.Coverage {
		rep.Coverage = coveredInsts(sys)
	}
	return rep, err
}

// baseline runs the clean reference that anchors outcome and
// availability classification: the template with the pass-through
// faultload, whose stubs all call through. With memoization on it
// climbs the memo ladder on the way. On the production path it also
// returns the functions the run entered through the stub surface
// (StubSet.Called), the call set pruneEntry decides from, and drops
// the memo sites of every other function; the fresh-spawn oracle
// returns no call set and runs every experiment.
func (r *snapshotRunner) baseline(budget uint64) (*Report, map[string]bool, error) {
	sys, err := r.system(0)
	if err != nil {
		return nil, nil, err
	}
	ctl, err := r.bind(sys, r.passthru)
	if err != nil {
		return nil, nil, err
	}
	rep, err := r.report(sys, ctl, r.climb(sys, budget))
	if err != nil {
		return nil, nil, err
	}
	if err := checkBaseline(rep, r.cfg.Avail); err != nil {
		return nil, nil, err
	}
	if r.snap == nil || r.stubs == nil {
		return rep, nil, nil
	}
	called := r.stubs.Called(sys)
	if r.memo != nil {
		r.memo.prune(called)
	}
	return rep, called, nil
}

// climbStop is one function's stop on the baseline's climb: its stub
// entry and the call numbers of its group sites not yet reached.
type climbStop struct {
	fn    string
	va    uint32
	calls []int32
}

// climb runs the baseline to completion, minting the memo ladder's
// rungs (memo.go) on the way. It arms one stop per function with a
// group site left, at the stub entry, aimed at the arrival that can
// first be some process's call to the next site: RunStops counts
// arrivals from each call's start, so the target is the site's call
// number less the most calls any process has made (made). At each stop
// it anchors the functions first called since the last one on the
// latest rung; then, if the arriving process is making the site's call
// and no process has made it yet, it seals a snapshot as the site's
// rung. Sites some process has reached are dropped, and a function
// with none left is disarmed; with no stop left the run is a plain
// Run, after which the functions called since the last stop anchor on
// the last rung. Snapshotting leaves the system untouched, so the
// baseline's report is the unbroken run's.
func (r *snapshotRunner) climb(sys *vm.System, budget uint64) error {
	if r.memo == nil {
		return sys.Run(budget)
	}
	var sites []climbStop
	if im, ok := sys.Procs()[0].ImageByName(controller.StubLibName); ok {
		for fn, calls := range r.memo.calls {
			if va, ok := im.SymbolVA(fn); ok {
				sites = append(sites, climbStop{fn: fn, va: va, calls: calls})
			}
		}
	}
	slices.SortFunc(sites, func(a, b climbStop) int { return strings.Compare(a.fn, b.fn) })
	stops := make([]vm.Stop, 0, len(sites))
	watch := r.stubs.Watch()
	for {
		stops = stops[:0]
		for i := 0; i < len(sites); {
			st := &sites[i]
			made := r.made(sys, st)
			for len(st.calls) > 0 && st.calls[0] <= made {
				st.calls = st.calls[1:]
			}
			if len(st.calls) == 0 {
				sites = slices.Delete(sites, i, i+1)
				continue
			}
			stops = append(stops, vm.Stop{VA: st.va, Target: st.calls[0] - made})
			i++
		}
		hit, err := sys.RunStops(stops, budget)
		watch.Poll(sys, r.memo.anchor)
		if hit < 0 {
			return err
		}
		st := &sites[hit]
		call := st.calls[0]
		if r.stubs.Count(sys.Stopped(), st.fn) == call-1 && r.most(sys, st.fn) == call-1 {
			if snap, err := sys.Snapshot(); err == nil {
				r.memo.mint(memoSite{fn: st.fn, call: call}, snap)
			}
		}
	}
}

// made returns the most calls any process of sys has made to the
// stop's function, counting the arrival a process is frozen on at the
// stop as made: RunStops has already counted it. The counters of a
// function the baseline has not seen called are all 0.
func (r *snapshotRunner) made(sys *vm.System, st *climbStop) int32 {
	var n int32
	if r.memo.called(st.fn) {
		n = r.most(sys, st.fn)
	}
	if p := sys.Stopped(); p != nil && p.PC == st.va {
		n = max(n, r.stubs.Count(p, st.fn)+1)
	}
	return n
}

// most returns the largest stub call counter of fn across the
// processes of sys, exited ones included.
func (r *snapshotRunner) most(sys *vm.System, fn string) int32 {
	var n int32
	for _, p := range sys.Procs() {
		n = max(n, r.stubs.Count(p, fn))
	}
	return n
}

// run executes one experiment and classifies it, returning the run
// report for OnResult observers alongside the entry. An experiment
// without a faultload binds the pass-through plan and so classifies
// not-triggered; a faultload that names no function has no fault to
// inject and fails the sweep, in plan order.
func (r *snapshotRunner) run(exp Experiment, base *Report, budget uint64) (SweepEntry, *Report, error) {
	if r.memo != nil {
		defer r.memo.release(r.memo.home(&exp))
	}
	entry := exp.entry()
	cp := exp.Compiled
	switch {
	case cp != nil:
	case exp.Plan == nil:
		cp = r.passthru
	default:
		var err error
		cp, err = scenario.Compile(exp.Plan, r.cfg.Profiles)
		if err != nil {
			return entry, nil, fmt.Errorf("core: %w", err)
		}
	}
	if cp != r.passthru && len(cp.Functions()) == 0 {
		return entry, nil, fmt.Errorf("core: controller: %w", controller.ErrNoTriggers)
	}
	sys, ctl, err := r.start(&exp, cp, budget)
	if err != nil {
		return entry, nil, err
	}
	rep, err := r.report(sys, ctl, sys.Run(budget))
	if err != nil {
		return entry, nil, err
	}
	entry.classify(rep, base, r.cfg.Avail)
	return entry, rep, nil
}

// start restores one run's system and binds its faultload. A member of
// a group whose site has a live rung starts there, its controller
// caught up from the stub counters — unless the corrected cycle total
// already reaches the budget, where the run might have stopped before
// the site. Every other run starts from the latest live rung at or
// below its anchor.
func (r *snapshotRunner) start(exp *Experiment, cp *scenario.CompiledPlan, budget uint64) (*vm.System, *controller.Controller, error) {
	anchor := 0
	if r.memo != nil {
		anchor = r.memo.anchorOf(exp)
		site, ok := groupOf(exp)
		switch {
		case ok && r.memo.groupSize(site) >= 2:
			if snap := r.memo.site(site); snap != nil {
				sys := snap.Restore()
				ctl, err := r.bind(sys, cp)
				if err != nil {
					return nil, nil, err
				}
				ctl.Resume(sys, site.fn)
				if sys.TotalCycles < budget {
					r.memo.note(func(s *MemoStats) { s.Restored++ })
					return sys, ctl, nil
				}
			}
		case ok:
			r.memo.note(func(s *MemoStats) { s.Singletons++ })
		case exp.Compiled != nil:
			r.memo.note(func(s *MemoStats) { s.Unmemoizable++ })
		}
	}
	sys, err := r.system(anchor)
	if err != nil {
		return nil, nil, err
	}
	ctl, err := r.bind(sys, cp)
	return sys, ctl, err
}

// pruneEntry short-circuits an experiment the baseline proves inert:
// if none of its faultload's functions was called through its stub in
// the clean run, no trigger was ever evaluated, so the run replays the
// baseline exactly and the baseline is its result. Experiments with a
// missing, empty or uncompilable faultload are never pruned; the
// executor surfaces their outcomes and errors in plan order, exactly as
// the oracle does.
func pruneEntry(exp *Experiment, called map[string]bool, base *Report, avail *AvailSpec) (SweepEntry, bool) {
	fns := experimentFunctions(exp)
	if len(fns) == 0 {
		return SweepEntry{}, false
	}
	for _, fn := range fns {
		if called[fn] {
			return SweepEntry{}, false
		}
	}
	// A plan the executor would reject must still abort the sweep —
	// pruning skips work, never validation.
	if exp.Compiled == nil && exp.Plan.Validate() != nil {
		return SweepEntry{}, false
	}
	entry := exp.entry()
	entry.classify(base, base, avail)
	return entry, true
}
