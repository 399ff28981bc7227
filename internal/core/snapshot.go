package core

import (
	"fmt"
	"slices"

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
	// stubVAs maps each intercepted function to its stub entry address
	// in the template — the stops of prefix memoization.
	stubVAs map[string]uint32
	// memo, when non-nil, is the sweep-wide prefix cache and memo
	// ladder (memo.go); nil runs every experiment in full from the
	// entry.
	memo *memoCache
}

// newSnapshotRunner synthesises the sweep's stub surface and, under
// opts.Snapshot, builds and freezes the template and plans the memo
// cache.
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
	if r.stubs == nil || opts.NoMemo {
		return r, nil
	}
	r.stubVAs = make(map[string]uint32)
	if im, ok := sys.Procs()[0].ImageByName(controller.StubLibName); ok {
		for _, fn := range r.stubs.Functions() {
			if va, ok := im.SymbolVA(fn); ok {
				r.stubVAs[fn] = va
			}
		}
	}
	r.memo = newMemoCache(opts.MemoBudget, r.snap)
	r.memo.plan(exps)
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
		e := r.memo.start(anchor)
		if e.rung > 0 {
			r.memo.note(func(s *MemoStats) { s.Anchored++ })
		}
		return e.snap.Restore(), nil
	case r.snap != nil:
		return r.snap.Restore(), nil
	}
	return r.spawn(r.cfg.VM)
}

// exec binds the faultload to sys's stub surface — seeded from ck when
// sys is a memoized prefix — and runs it to completion under the
// budget.
func (r *snapshotRunner) exec(sys *vm.System, cp *scenario.CompiledPlan, ck *controller.Checkpoint, budget uint64) (*Report, error) {
	ctl, err := r.bind(sys, cp, ck)
	if err != nil {
		return nil, err
	}
	return r.report(sys, ctl, sys.Run(budget))
}

// bind installs a controller for the faultload on sys's stub surface,
// seeded from ck when sys is a memoized prefix. A surface-less template
// has nothing to bind (nil controller) and runs uninstrumented.
func (r *snapshotRunner) bind(sys *vm.System, cp *scenario.CompiledPlan, ck *controller.Checkpoint) (*controller.Controller, error) {
	if r.stubs == nil {
		return nil, nil
	}
	ctl := controller.NewWithStubs(r.stubs, cp)
	if ck != nil {
		ctl.SeedCheckpoint(ck)
	}
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
	ctl, err := r.bind(sys, r.passthru, nil)
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

// climb runs the baseline to completion, minting the memo ladder's
// rungs (memo.go) on the way: it stops at the first arrival at the
// stub entry of every function with a call-1 group. At each stop it
// anchors the functions first called since the last one on the latest
// rung, then — unless some process already called the stop's function
// — seals a snapshot as the next rung. Each stop is disarmed once hit;
// the run continues with the rest, and with none left it is a plain
// Run, after which the functions called since the last stop anchor on
// the last rung. Snapshotting leaves the system untouched, so the
// baseline's report is the unbroken run's.
func (r *snapshotRunner) climb(sys *vm.System, budget uint64) error {
	if r.memo == nil {
		return sys.Run(budget)
	}
	var (
		fns   []string
		stops []vm.Stop
	)
	for _, fn := range r.memo.stops {
		if va, ok := r.stubVAs[fn]; ok {
			fns = append(fns, fn)
			stops = append(stops, vm.Stop{VA: va, Target: 1})
		}
	}
	watch := r.stubs.Watch()
	for {
		hit, err := sys.RunStops(stops, budget)
		watch.Poll(sys, r.memo.anchor)
		if hit < 0 {
			return err
		}
		if fn := fns[hit]; !r.memo.called(fn) {
			if snap, err := sys.Snapshot(); err == nil {
				r.memo.mint(fn, snap)
			}
		}
		fns = slices.Delete(fns, hit, hit+1)
		stops = slices.Delete(stops, hit, hit+1)
	}
}

// run executes one experiment from its anchor on the memo ladder.
// Precompiled experiments whose faultload has a deterministic
// first-fire site shared with at least one other experiment go through
// the prefix memo cache (memo.go); everything else runs whole via
// runPlain. The served flag is true when the entry was satisfied
// without a member-specific run (terminated shared prefix).
func (r *snapshotRunner) run(exp Experiment, base *Report, budget uint64) (SweepEntry, *Report, bool, error) {
	anchor := 0
	if r.memo != nil {
		anchor = r.memo.anchorOf(&exp)
		defer r.memo.release(anchor)
		key, ok := groupOf(&exp)
		switch {
		case ok && r.memo.groupSize(key) >= 2:
			return r.runMemo(exp, key, anchor, base, budget)
		case ok:
			r.memo.note(func(s *MemoStats) { s.Singletons++ })
		case exp.Compiled != nil:
			r.memo.note(func(s *MemoStats) { s.Unmemoizable++ })
		}
	}
	entry, rep, err := r.runPlain(exp, anchor, base, budget)
	return entry, rep, false, err
}

// runPlain executes one experiment whole from its anchor and classifies
// it, returning the run report for OnResult observers alongside the
// entry. An experiment without a faultload binds the pass-through plan
// and so classifies not-triggered; a faultload that names no function
// has no fault to inject and fails the sweep, in plan order.
func (r *snapshotRunner) runPlain(exp Experiment, anchor int, base *Report, budget uint64) (SweepEntry, *Report, error) {
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
	sys, err := r.system(anchor)
	if err != nil {
		return entry, nil, err
	}
	rep, err := r.exec(sys, cp, nil, budget)
	if err != nil {
		return entry, nil, err
	}
	entry.classify(rep, base, r.cfg.Avail)
	return entry, rep, nil
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
