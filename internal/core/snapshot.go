package core

import (
	"fmt"

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
	// in the template — the breakpoint targets of prefix memoization.
	stubVAs map[string]uint32
	// memo, when non-nil, is the sweep-wide prefix cache (memo.go);
	// nil runs every experiment in full.
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
	r.memo = newMemoCache(opts.MemoBudget)
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

// system returns a private template system for one run: a restore of
// the snapshot, or on the oracle path a fresh build of the template.
func (r *snapshotRunner) system() (*vm.System, error) {
	if r.snap != nil {
		return r.snap.Restore(), nil
	}
	return r.spawn(r.cfg.VM)
}

// exec binds the faultload to sys's stub surface — seeded from ck when
// sys is a memoized prefix — and runs it to completion under the
// budget. A surface-less template has nothing to bind and runs
// uninstrumented.
func (r *snapshotRunner) exec(sys *vm.System, cp *scenario.CompiledPlan, ck *controller.Checkpoint, budget uint64) (*Report, error) {
	var ctl *controller.Controller
	if r.stubs != nil {
		ctl = controller.NewWithStubs(r.stubs, cp)
		if ck != nil {
			ctl.SeedCheckpoint(ck)
		}
		if err := ctl.Install(sys); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	err := sys.Run(budget) // sequenced: status/cycles are read post-run
	rep, rerr := assembleReport(err, sys, ctl, r.cfg.Avail)
	if r.cfg.VM.Coverage {
		rep.Coverage = coveredInsts(sys)
	}
	return rep, rerr
}

// baseline runs the clean reference that anchors outcome and
// availability classification: the template with the pass-through
// faultload, whose stubs all call through. On the production path it
// also returns the functions the run entered through the stub surface
// (StubSet.Called), the call set pruneEntry decides from; the
// fresh-spawn oracle returns no call set and runs every experiment.
func (r *snapshotRunner) baseline(budget uint64) (*Report, map[string]bool, error) {
	sys, err := r.system()
	if err != nil {
		return nil, nil, err
	}
	rep, err := r.exec(sys, r.passthru, nil, budget)
	if err != nil {
		return nil, nil, err
	}
	if err := checkBaseline(rep, r.cfg.Avail); err != nil {
		return nil, nil, err
	}
	if r.snap == nil || r.stubs == nil {
		return rep, nil, nil
	}
	return rep, r.stubs.Called(sys), nil
}

// run executes one experiment. Precompiled experiments whose faultload
// has a deterministic first-fire site shared with at least one other
// experiment go through the prefix memo cache (memo.go); everything
// else runs in full via runPlain. The served flag is true when the
// entry was satisfied without a member-specific run (terminated shared
// prefix).
func (r *snapshotRunner) run(exp Experiment, base *Report, budget uint64) (SweepEntry, *Report, bool, error) {
	if r.memo != nil && exp.Compiled != nil {
		site, reason := exp.Compiled.FirstFireSite()
		if reason == "" {
			key := memoKey{fn: site.Function, call: site.Call, ntrig: exp.Compiled.TriggerCount(site.Function)}
			if r.memo.groupSize(key) >= 2 {
				return r.runMemo(exp, key, base, budget)
			}
			r.memo.note(func(s *MemoStats) { s.Singletons++ })
		} else {
			r.memo.note(func(s *MemoStats) { s.Unmemoizable++ })
		}
	}
	entry, rep, err := r.runPlain(exp, base, budget)
	return entry, rep, false, err
}

// runPlain executes one experiment in full and classifies it, returning
// the run report for OnResult observers alongside the entry. An
// experiment without a faultload binds the pass-through plan and so
// classifies not-triggered; a faultload that names no function has no
// fault to inject and fails the sweep, in plan order.
func (r *snapshotRunner) runPlain(exp Experiment, base *Report, budget uint64) (SweepEntry, *Report, error) {
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
	sys, err := r.system()
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
