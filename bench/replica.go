package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"lfi/internal/campaign"
	"lfi/internal/controller"
	"lfi/internal/core"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// replica is a benchmark-side copy of the snapshot executor with prefix
// memoization (internal/core/snapshot.go and memo.go), built only from
// public vm, controller, scenario and core calls and run sequentially
// with a span around every call into a layer. Interception, trigger
// scanning and kernel syscalls all happen inside vm.System.Run, so they
// show as vm.run; separating them needs counters inside the program.
type replica struct {
	tr     *tracer
	cfg    core.CampaignConfig
	budget uint64

	stubs    *controller.StubSet
	snap     *vm.Snapshot
	passthru *scenario.CompiledPlan
	stubVAs  map[string]uint32
	base     *core.Report

	// sizes counts the plan's members per first-fire site; prefixes holds
	// the built prefix of each site until its last member has run, or
	// until the sweep ends when some members were served from a store.
	sizes    map[memoKey]int
	prefixes map[memoKey]*prefix
}

// memoKey is core's prefix-sharing group: plans with the same first-fire
// site and trigger count evaluate identical prefixes.
type memoKey struct {
	fn    string
	call  int32
	ntrig int
}

// prefix is one group's shared run up to its site: a mid-execution
// snapshot plus controller checkpoint, or the report of a prefix that
// terminated first, or failed.
type prefix struct {
	snap   *vm.Snapshot
	ckpt   *controller.Checkpoint
	term   *core.Report
	failed bool
	left   int
}

// replicaSweep runs one target's plan through the replica. skip, when
// non-nil, serves completed experiments as a resumed campaign does; every
// other committed experiment is handed to onResult with its report.
func replicaSweep(tr *tracer, t target, skip func(*core.Experiment) (core.SweepEntry, bool),
	onResult func(*core.Experiment, core.SweepEntry, *core.Report)) ([]core.SweepEntry, error) {
	start := time.Now()
	r := &replica{tr: tr, cfg: t.cfg, budget: core.DefaultSweepBudget}
	if err := r.template(t.exps); err != nil {
		return nil, err
	}
	if err := r.baseline(); err != nil {
		return nil, err
	}
	sp := tr.begin("core.memo_plan")
	r.plan(t.exps)
	tr.end(sp)
	tr.add("core.first_dispatch_ns", float64(time.Since(start)))

	entries := make([]core.SweepEntry, 0, len(t.exps))
	for i := range t.exps {
		exp := &t.exps[i]
		tr.exp = i
		sp := tr.begin("core.experiment")
		entry, rep, served, err := r.run(exp, skip)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replica: %s: %w", exp.Key(), err)
		}
		if rep != nil {
			onResult(exp, entry, rep)
		}
		if !served {
			tr.add("exec.experiments", 1)
			tr.add("controller.injections", float64(len(rep.Injections)))
		}
		entries = append(entries, entry)
	}
	tr.exp = -1
	return entries, nil
}

// template builds the stub surface for every function the plan
// intercepts, spawns the target with it preloaded and freezes the
// system — newSnapshotRunner.
func (r *replica) template(exps []core.Experiment) error {
	var fns []string
	for i := range exps {
		if exps[i].Compiled == nil {
			return fmt.Errorf("replica: %s has no compiled plan", exps[i].Key())
		}
		fns = append(fns, exps[i].Compiled.Functions()...)
	}
	sp := r.tr.begin("controller.stubset")
	stubs, err := controller.NewStubSet(fns)
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.stubs = stubs
	r.tr.add("controller.stubs", float64(len(stubs.Functions())))

	sp = r.tr.begin("vm.load")
	sys := vm.NewSystem(r.cfg.VM)
	for _, f := range r.cfg.Programs {
		sys.Register(f)
	}
	for path, data := range r.cfg.Files {
		sys.Kernel().AddFile(path, data)
	}
	stubs.InstallTemplate(sys)
	proc, err := sys.Spawn(r.cfg.Executable, vm.SpawnConfig{Preload: stubs.PreloadList()})
	r.tr.end(sp)
	if err != nil {
		return err
	}

	sp = r.tr.begin("vm.snapshot")
	r.snap, err = sys.Snapshot()
	r.tr.end(sp)
	if err != nil {
		return err
	}
	r.tr.add("vm.snapshot_bytes", float64(r.snap.Footprint()))

	sp = r.tr.begin("vm.symbols")
	r.stubVAs = make(map[string]uint32)
	if im, ok := proc.ImageByName(controller.StubLibName); ok {
		for _, fn := range stubs.Functions() {
			if va, ok := im.SymbolVA(fn); ok {
				r.stubVAs[fn] = va
			}
		}
	}
	r.tr.end(sp)

	sp = r.tr.begin("scenario.compile")
	r.passthru = scenario.MustCompile(&scenario.Plan{}, nil)
	r.tr.end(sp)
	return nil
}

// baseline runs the clean reference from the template through the
// pass-through surface and rejects an unhealthy one — checkBaseline.
func (r *replica) baseline() error {
	sp := r.tr.begin("core.baseline")
	defer r.tr.end(sp)
	rep, err := r.exec(r.passthru, r.snap, nil)
	if err != nil {
		return err
	}
	sp = r.tr.begin("core.classify")
	defer r.tr.end(sp)
	if rep.Status.Signal != 0 || rep.Deadlocked {
		return fmt.Errorf("replica: baseline run is unhealthy: %+v", rep.Status)
	}
	if r.cfg.Avail != nil {
		c := rep.Avail
		if c == nil || !c.Done || c.ServerSignal != 0 ||
			c.WarmFail+c.SteadyFail+c.PostFail+c.TailFail != 0 ||
			c.WarmErr+c.SteadyErr+c.PostErr != 0 {
			return fmt.Errorf("replica: baseline traffic run is unhealthy: %+v", c)
		}
	}
	r.base = rep
	return nil
}

// plan counts the members of every first-fire site — memoCache.plan.
func (r *replica) plan(exps []core.Experiment) {
	r.sizes = make(map[memoKey]int)
	r.prefixes = make(map[memoKey]*prefix)
	for i := range exps {
		if key, ok := siteKey(exps[i].Compiled); ok {
			r.sizes[key]++
		}
	}
}

func siteKey(cp *scenario.CompiledPlan) (memoKey, bool) {
	site, reason := cp.FirstFireSite()
	if reason != "" {
		return memoKey{}, false
	}
	return memoKey{fn: site.Function, call: site.Call, ntrig: cp.TriggerCount(site.Function)}, true
}

// run commits one experiment: served by skip, through its group's shared
// prefix, or in full — snapshotRunner.run. served reports an entry that
// needed no member-specific run; rep is nil only for skipped entries.
func (r *replica) run(exp *core.Experiment, skip func(*core.Experiment) (core.SweepEntry, bool)) (core.SweepEntry, *core.Report, bool, error) {
	if skip != nil {
		if entry, ok := skip(exp); ok {
			return entry, nil, true, nil
		}
	}
	sp := r.tr.begin("scenario.fire_site")
	key, memo := siteKey(exp.Compiled)
	r.tr.end(sp)
	if memo && r.sizes[key] >= 2 {
		return r.runMemo(exp, key)
	}
	entry, rep, err := r.runPlain(exp)
	return entry, rep, false, err
}

func (r *replica) runPlain(exp *core.Experiment) (core.SweepEntry, *core.Report, error) {
	rep, err := r.exec(exp.Compiled, r.snap, nil)
	if err != nil {
		return core.SweepEntry{}, nil, err
	}
	return r.classify(exp, rep), rep, nil
}

// runMemo runs a group member from its site's prefix, building the
// prefix first for the group's first member — snapshotRunner.runMemo.
func (r *replica) runMemo(exp *core.Experiment, key memoKey) (core.SweepEntry, *core.Report, bool, error) {
	e := r.prefixes[key]
	if e == nil {
		e = r.buildPrefix(exp.Compiled, key)
		e.left = r.sizes[key]
		r.prefixes[key] = e
	}
	if e.left--; e.left == 0 {
		delete(r.prefixes, key)
	}
	switch {
	case e.failed:
		entry, rep, err := r.runPlain(exp)
		return entry, rep, false, err
	case e.term != nil:
		return r.classify(exp, e.term), e.term, true, nil
	}
	rep, err := r.exec(exp.Compiled, e.snap, e.ckpt)
	if err != nil {
		return core.SweepEntry{}, nil, false, err
	}
	return r.classify(exp, rep), rep, false, nil
}

// buildPrefix runs a group's shared prefix to just before its site and
// freezes guest and controller state — snapshotRunner.buildPrefix.
func (r *replica) buildPrefix(cp *scenario.CompiledPlan, key memoKey) *prefix {
	sp := r.tr.begin("core.prefix")
	defer r.tr.end(sp)
	e := &prefix{}
	va, ok := r.stubVAs[key.fn]
	if !ok {
		e.failed = true
		return e
	}
	sys, ctl, err := r.restore(cp, r.snap, nil)
	if err != nil {
		e.failed = true
		return e
	}
	c0 := sys.TotalCycles
	sp = r.tr.begin("vm.prefix")
	hit, err := sys.RunBreak(va, key.call, r.budget)
	r.tr.end(sp)
	r.tr.add("vm.prefix_cycles", float64(sys.TotalCycles-c0))
	r.tr.add("core.prefixes", 1)

	sp = r.tr.begin("controller.report")
	injected := len(ctl.Log()) > 0
	r.tr.end(sp)
	if injected {
		e.failed = true
		return e
	}
	if !hit {
		rep, rerr := r.report(err, sys, ctl)
		if rerr != nil {
			e.failed = true
			return e
		}
		e.term = rep
		return e
	}
	sp = r.tr.begin("vm.midsnap")
	snap, err := sys.Snapshot()
	r.tr.end(sp)
	if err != nil {
		e.failed = true
		return e
	}
	sp = r.tr.begin("controller.checkpoint")
	e.snap, e.ckpt = snap, ctl.Checkpoint()
	r.tr.end(sp)
	return e
}

// restore mints a run from a snapshot and binds the faultload to the
// shared stub surface, seeded from a prefix checkpoint when given.
func (r *replica) restore(cp *scenario.CompiledPlan, from *vm.Snapshot, ck *controller.Checkpoint) (*vm.System, *controller.Controller, error) {
	sp := r.tr.begin("vm.restore")
	sys := from.Restore()
	r.tr.end(sp)
	sp = r.tr.begin("controller.bind")
	ctl := controller.NewWithStubs(r.stubs, cp)
	if ck != nil {
		ctl.SeedCheckpoint(ck)
	}
	err := ctl.Install(sys)
	r.tr.end(sp)
	return sys, ctl, err
}

// exec restores, binds and runs one faultload to completion —
// snapshotRunner.exec.
func (r *replica) exec(cp *scenario.CompiledPlan, from *vm.Snapshot, ck *controller.Checkpoint) (*core.Report, error) {
	sys, ctl, err := r.restore(cp, from, ck)
	if err != nil {
		return nil, err
	}
	c0 := sys.TotalCycles
	sp := r.tr.begin("vm.run")
	err = sys.Run(r.budget)
	r.tr.end(sp)
	r.tr.add("vm.run_cycles", float64(sys.TotalCycles-c0))
	return r.report(err, sys, ctl)
}

// availSymbols are the traffic client's phase-counter globals, in
// core.AvailCounters field order.
var availSymbols = []string{
	"av_warm_ok", "av_warm_fail", "av_warm_err",
	"av_steady_ok", "av_steady_fail", "av_steady_err",
	"av_post_ok", "av_post_fail", "av_post_err",
	"av_tail_fail", "av_done",
}

// report turns a finished run into a core.Report — assembleReport.
func (r *replica) report(runErr error, sys *vm.System, ctl *controller.Controller) (*core.Report, error) {
	sp := r.tr.begin("controller.report")
	log, replay := ctl.Log(), ctl.ReplayPlan()
	r.tr.end(sp)

	sp = r.tr.begin("core.report")
	defer r.tr.end(sp)
	procs := sys.Procs()
	rep := &core.Report{
		Status: procs[0].Status, Cycles: sys.TotalCycles,
		Degradation: sys.Kernel().Degradation(),
		Injections:  log, ReplayPlan: replay,
	}
	if procs[0].Status.Signal != 0 {
		rep.CrashStack = crashStack(procs[0])
	}
	if spec := r.cfg.Avail; spec != nil {
		c := &core.AvailCounters{}
		if im, ok := procs[0].ImageByName(spec.Client); ok {
			vals := make([]int32, len(availSymbols))
			for i, sym := range availSymbols {
				if va, ok := im.SymbolVA(sym); ok {
					if v, err := procs[0].ReadWord(va); err == nil {
						vals[i] = v
					}
				}
			}
			c.WarmOK, c.WarmFail, c.WarmErr = vals[0], vals[1], vals[2]
			c.SteadyOK, c.SteadyFail, c.SteadyErr = vals[3], vals[4], vals[5]
			c.PostOK, c.PostFail, c.PostErr = vals[6], vals[7], vals[8]
			c.TailFail = vals[9]
			c.Done = vals[10] == 1
		}
		for _, p := range procs[1:] {
			if p.Status.Signal != 0 {
				c.ServerSignal = p.Status.Signal
				if rep.CrashStack == nil {
					rep.CrashStack = crashStack(p)
				}
				break
			}
		}
		rep.Avail = c
	}
	switch {
	case runErr == nil:
	case errors.Is(runErr, vm.ErrDeadlock):
		rep.Deadlocked = true
	case errors.Is(runErr, vm.ErrBudget):
		rep.Deadlocked, rep.BudgetExhausted = true, true
	default:
		return rep, runErr
	}
	return rep, nil
}

func crashStack(p *vm.Proc) []string {
	out := make([]string, 0, len(p.CallStack))
	for i := len(p.CallStack) - 1; i >= 0; i-- {
		f := p.CallStack[i]
		out = append(out, controller.FrameLabel(f.Symbol, f.FuncVA))
	}
	return out
}

// classify fills an experiment's report row from its run —
// SweepEntry.classify.
func (r *replica) classify(exp *core.Experiment, rep *core.Report) core.SweepEntry {
	sp := r.tr.begin("core.classify")
	defer r.tr.end(sp)
	e := core.SweepEntry{
		Library: exp.Library, Function: exp.Function, Retval: exp.Retval,
		Errno: exp.Errno, HasErrno: exp.HasErrno, Fault: exp.Fault,
		ExitCode: rep.Status.Code, Signal: rep.Status.Signal,
		Outcome: core.Classify(rep, r.base.Status.Code),
	}
	if spec := r.cfg.Avail; spec != nil && rep.Avail != nil {
		pct := spec.LatencyPct
		if pct <= 0 {
			pct = core.DefaultAvailLatencyPct
		}
		e.Avail = core.ClassifyAvail(rep, r.base, pct)
		e.AvailBefore, e.AvailDuring, e.AvailAfter = rep.Avail.WarmOK, rep.Avail.SteadyOK, rep.Avail.PostOK
	}
	return e
}

// manifest is the campaign identity campaign.Sweep pins a store to:
// target name, an order-independent digest of every program image, the
// engine and the budget.
func manifest(cfg core.CampaignConfig) campaign.Manifest {
	engine := cfg.VM.Engine
	if engine == "" {
		engine = vm.DefaultEngine
	}
	byName := make(map[string][]byte, len(cfg.Programs))
	names := make([]string, 0, len(cfg.Programs))
	for _, f := range cfg.Programs {
		names = append(names, f.Name)
		byName[f.Name] = f.Encode()
	}
	sort.Strings(names)
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		h.Write(byName[n])
	}
	return campaign.Manifest{
		Executable:     cfg.Executable,
		ProgramsDigest: fmt.Sprintf("%016x", h.Sum64()),
		Engine:         engine,
		Budget:         core.DefaultSweepBudget,
	}
}
