// Package core is the top-level LFI facade: the library-level fault
// injector of Marinescu & Candea (DSN'09) assembled from its parts.
//
// Using LFI is the paper's two-step workflow (§2):
//
//  1. Profile: point LFI at a target application; it finds the shared
//     libraries the application links against (like ldd), statically
//     analyses their binaries — and the kernel image beneath libc — and
//     produces per-library fault profiles (error return values plus errno
//     and output-argument side effects).
//
//  2. Inject: combine the profiles with a fault scenario (exhaustive,
//     random, ready-made libc faultloads, or a hand-written XML plan);
//     the controller synthesises an interceptor library, preloads it
//     ahead of the originals, runs the workload, logs each injection and
//     emits a replay script.
//
// A minimal campaign:
//
//	l := core.New(core.Options{})
//	l.AddLibrary(libcObj)
//	l.AddKernelImage()
//	set, _ := l.ProfileApplication(appObj)
//	plan := scenario.Random(set, 10, seed)
//	c, _ := core.NewCampaign(core.CampaignConfig{
//	    Programs: []*obj.File{libcObj, appObj},
//	    Executable: appObj.Name, Profiles: set, Plan: plan,
//	})
//	report, _ := c.Run(0)
//
// # Parallel campaigns
//
// The §2 robustness benchmark — every (function, error code) of the
// profile set injected once into a fresh run — is embarrassingly
// parallel: experiments share nothing but read-only inputs. The sweep
// engine splits it into a generator and an executor:
//
//	exps := core.PlanExperiments(set)                      // the matrix, in plan order
//	res, _ := core.RunExperiments(cfg, exps, 0, core.SweepOptions{
//	    Workers:    8,
//	    Snapshot:   true,                 // the production executor
//	    MaxCrashes: 5,                    // triage: stop at the 5th crash
//	    Progress:   func(p core.SweepProgress) { ... },    // live tallies
//	})
//
// Each run owns a private vm.System, controller and evaluators;
// completions are re-ordered into plan order before they are
// committed, so the SweepResult — including early-stopped ones, whose
// crash threshold is counted in plan order — renders byte-identical at
// every worker count. Seeded random faultloads stay reproducible too:
// an evaluator's random stream derives from its plan's Seed, never from
// scheduling.
//
// A single Campaign is not safe for concurrent use; concurrency comes
// from running many systems. CampaignConfig inputs (Programs, Profiles,
// Files) are shared across workers and must not be mutated during a
// sweep — the VM loader copies text and data segments per
// process, the controller treats profiles as immutable, and faultloads
// are compiled once into an immutable scenario.CompiledPlan
// (PlanExperiments pre-compiles each experiment's single-trigger plan
// so all runs and workers share it), so sharing is read-only.
//
// # The sweep executor
//
// Every sweep runs one guest: the executable spawned with a single
// interceptor stub library preloaded, synthesised for the union of
// every function any experiment intercepts (ZOFI's fork-server trade;
// a standalone Campaign instead preloads stubs for its own faultload's
// functions, as the paper's controller does). Each run — the baseline
// included — binds only its own compiled faultload to that surface
// through a thin controller (controller.NewWithStubs); stubs for
// functions the faultload does not name pass through. The production
// executor, SweepOptions.Snapshot, pays the load pipeline once:
//
//  1. Template build (once): register programs and kernel files,
//     synthesise the union stub library, and spawn the executable with
//     it preloaded — text copy, relocation, instruction decode and
//     symbol-map construction happen exactly once.
//  2. Freeze: vm.Snapshot captures the spawned system at the post-load
//     entry point.
//  3. Restore (per run, baseline included): Snapshot.Restore mints a
//     private System — writable data/TLS/stack/heap pages are shared
//     copy-on-write, registers, kernel FS/FD state and cycle counters
//     are copied; patched text, decoded instructions, symbol tables and
//     the whole Image are shared immutably.
//  4. Baseline: the clean run, with the pass-through faultload. On its
//     way it stops just before every first-fire site that a memo group
//     of two or more experiments shares and freezes a rung there, and
//     it notes each function's anchor: the latest rung minted before
//     the function's first call (memo.go). A group member starts from
//     its site's rung; every other run starts from the latest live rung
//     at or below its functions' earliest anchor; the entry snapshot is
//     rung 0.
//  5. Prune: the stubs count their calls (§5.1), so the baseline tells
//     which functions the workload calls through the surface; an
//     experiment naming none of them can only replay the baseline and
//     is committed as that run without executing.
//
// The zero SweepOptions is the fresh-spawn oracle: it rebuilds the same
// template for every run instead of restoring it, and runs every
// experiment, pruned or not. Because both execute
// the same guest, cycle counts, injection logs, budget verdicts,
// availability envelopes and campaign-store records are equal by
// construction, seeded random faultloads and -max-crashes early stops
// included. The concurrency contract: the Snapshot, StubSet and
// CompiledPlans are immutable and shared by every worker; each System
// and its controller belong to exactly one run and must not outlive it
// into another.
//
// The snapshot executor also memoizes shared pre-fault prefixes
// (memo.go): experiments whose faultload has a deterministic first-fire
// site (scenario.FirstFireSite) are grouped by site, and the baseline
// freezes each group's prefix once, just before the site, as a rung
// (vm.System.RunStops). Members restore their site's rung and run only
// their suffix, with a fresh controller caught up from the stubs' call
// counters (controller.Resume). Rungs are minted under a byte budget
// before any experiment runs; SweepResult.Memo reports the ladder's
// statistics. The rendered report stays byte-identical at any budget
// (TestSweepMemoIdentical).
package core

import (
	"fmt"
	"math/bits"

	"lfi/internal/controller"
	"lfi/internal/kernel"
	"lfi/internal/obj"
	"lfi/internal/profile"
	"lfi/internal/profiler"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// Options configures profiling.
type Options struct {
	// Heuristics enables the paper's two unsound §3.1 filters
	// (drop-zero-returns, drop-predicate-functions). Off by default,
	// exactly as in the paper.
	Heuristics bool
	// MaxStates bounds the per-function product-graph search.
	MaxStates int
}

// LFI is the profiling half of the tool.
type LFI struct {
	prof *profiler.Profiler
}

// New creates an LFI instance.
func New(opts Options) *LFI {
	return &LFI{prof: profiler.New(profiler.Options{
		DropZeroReturns: opts.Heuristics,
		DropPredicates:  opts.Heuristics,
		MaxStates:       opts.MaxStates,
	})}
}

// AddLibrary registers a library (or application) binary for analysis.
func (l *LFI) AddLibrary(f *obj.File) error { return l.prof.AddLibrary(f) }

// AddKernelImage compiles and registers the synthetic kernel image so
// that libc-style syscall wrappers resolve their kernel dependencies
// (§3.1).
func (l *LFI) AddKernelImage() error {
	img, err := kernel.Image()
	if err != nil {
		return err
	}
	return l.prof.AddLibrary(img)
}

// ProfileLibrary profiles one library by name.
func (l *LFI) ProfileLibrary(name string) (*profile.Profile, error) {
	return l.prof.ProfileLibrary(name)
}

// ProfileApplication walks the application's needed libraries (the ldd
// step) and profiles each of them.
func (l *LFI) ProfileApplication(appName string) (profile.Set, error) {
	return l.prof.ProfileApplication(appName)
}

// Stats exposes profiling statistics (functions analysed, product-graph
// states expanded) for the §6.2 efficiency measurements.
func (l *LFI) Stats() profiler.Stats { return l.prof.Stats() }

// Diagnostics reports per-function analysis-budget exhaustion — one
// line per exported function whose return-origin search was truncated
// at MaxStates or whose dependent calls were cut at the recursion
// depth bound. Empty when every profile is budget-complete.
func (l *LFI) Diagnostics() []string { return l.prof.Diagnostics() }

// CampaignConfig describes one fault-injection experiment.
type CampaignConfig struct {
	// Programs are the executable and all libraries it needs.
	Programs []*obj.File
	// Executable is the program to run under injection.
	Executable string
	// Profiles drive random scenarios and side-effect application.
	Profiles profile.Set
	// Plan is the fault scenario; nil runs without injection. It is
	// compiled once per campaign (NewCampaign reports compile errors).
	Plan *scenario.Plan
	// Files are installed into the kernel file system before the run.
	Files map[string][]byte
	// VM tunes the virtual machine (coverage, heap limit, ...).
	VM vm.Options
	// Avail, when set, opts the campaign into availability collection:
	// the Executable is treated as a traffic driver and every report
	// carries its phase counters (Report.Avail). Nil leaves reports
	// exactly as before.
	Avail *AvailSpec
}

// Campaign is a configured injection experiment.
type Campaign struct {
	cfg CampaignConfig
	sys *vm.System
	ctl *controller.Controller
}

// Report summarises a campaign run (§5.2's log plus replay script).
type Report struct {
	Status     vm.ExitStatus
	Injections []controller.InjectionRecord
	ReplayPlan *scenario.Plan
	Cycles     uint64
	// Deadlocked is set when the run wedged rather than exiting — a true
	// scheduler deadlock or an exhausted cycle budget (back-compat: both
	// keep setting this flag).
	Deadlocked bool
	// BudgetExhausted distinguishes the two Deadlocked causes: true when
	// the run hit its cycle budget (possible livelock — the availability
	// classifier's wedge signal), false when the scheduler proved a true
	// deadlock (every process blocked).
	BudgetExhausted bool
	// Avail carries the run's service-level phase counters when the
	// campaign ran with CampaignConfig.Avail set; nil otherwise.
	Avail *AvailCounters
	// Degradation is the kernel's resource-degradation state at end of
	// run: which exhaustion faults were armed and whether they actually
	// failed an operation (tripped). Zero when the faultload armed none.
	Degradation kernel.DegradationState
	// CrashStack is the dying process's shadow call stack, innermost
	// frame first (symbol names, hex addresses for stripped locals),
	// captured when the run terminated on a signal. It is the identity
	// crash triage clusters on (controller.StackHash); nil for clean
	// exits and hangs.
	CrashStack []string
	// Coverage counts the distinct instructions executed across every
	// image of every process when the campaign's VM ran with coverage
	// enabled; 0 otherwise. Campaign stores persist it as the per-run
	// coverage summary.
	Coverage int
}

// NewCampaign builds the system: registers programs, installs kernel
// files, synthesises and installs the interceptor library, and spawns the
// executable with the interceptor preloaded.
func NewCampaign(cfg CampaignConfig) (*Campaign, error) {
	c := &Campaign{cfg: cfg, sys: vm.NewSystem(cfg.VM)}
	for _, f := range cfg.Programs {
		c.sys.Register(f)
	}
	for path, data := range cfg.Files {
		c.sys.Kernel().AddFile(path, data)
	}
	spawnCfg := vm.SpawnConfig{}
	if cfg.Plan != nil {
		c.ctl = controller.New(cfg.Profiles, cfg.Plan)
		if err := c.ctl.Install(c.sys); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		spawnCfg.Preload = c.ctl.PreloadList()
	}
	if _, err := c.sys.Spawn(cfg.Executable, spawnCfg); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return c, nil
}

// Controller returns the injection controller (nil without a plan).
func (c *Campaign) Controller() *controller.Controller { return c.ctl }

// Run executes to completion (budget 0 = unlimited) and reports.
func (c *Campaign) Run(budget uint64) (*Report, error) {
	err := c.sys.Run(budget) // sequenced: status/cycles are read post-run
	rep, rerr := assembleReport(err, c.sys, c.ctl, c.cfg.Avail)
	if c.cfg.VM.Coverage {
		rep.Coverage = coveredInsts(c.sys)
	}
	return rep, rerr
}

// assembleReport turns a finished run (fresh-spawn or snapshot-restore)
// into a Report: it splits budget exhaustion from true deadlock (both
// keep Deadlocked set for back-compat), captures the crash backtrace on
// signal deaths, and — under an availability spec — collects the
// traffic client's phase counters. The run's own process is the first
// spawned one; when it survived but a server process it spawned died,
// the server's backtrace becomes the report's crash stack so triage
// clusters server deaths by where the server died.
func assembleReport(err error, sys *vm.System, ctl *controller.Controller, avail *AvailSpec) (*Report, error) {
	proc := sys.Procs()[0]
	rep := &Report{Status: proc.Status, Cycles: sys.TotalCycles}
	rep.Degradation = sys.Kernel().Degradation()
	if proc.Status.Signal != 0 {
		rep.CrashStack = crashStack(proc)
	}
	if ctl != nil {
		rep.Injections = ctl.Log()
		rep.ReplayPlan = ctl.ReplayPlan()
	}
	if avail != nil {
		rep.Avail = collectAvail(sys, avail)
		if rep.CrashStack == nil && rep.Avail.ServerSignal != 0 {
			for _, p := range sys.Procs()[1:] {
				if p.Status.Signal != 0 {
					rep.CrashStack = crashStack(p)
					break
				}
			}
		}
	}
	switch err {
	case nil:
	case vm.ErrDeadlock:
		rep.Deadlocked = true
	case vm.ErrBudget:
		rep.Deadlocked = true
		rep.BudgetExhausted = true
	default:
		return rep, err
	}
	return rep, nil
}

// crashStack renders the process shadow stack at death as triage
// frames, innermost first — the controller's frame renderer and
// orientation, so crash stacks and injection-record stacks hash into
// the same StackHash space.
func crashStack(proc *vm.Proc) []string {
	out := make([]string, 0, len(proc.CallStack))
	for i := len(proc.CallStack) - 1; i >= 0; i-- {
		f := proc.CallStack[i]
		out = append(out, controller.FrameLabel(f.Symbol, f.FuncVA))
	}
	return out
}

// coveredInsts counts executed instructions across every image of every
// process — the coverage summary persisted per experiment when the
// campaign runs with vm.Options.Coverage.
func coveredInsts(sys *vm.System) int {
	n := 0
	for _, p := range sys.Procs() {
		for _, im := range p.Images {
			for _, w := range im.CoverBits {
				n += bits.OnesCount64(w)
			}
		}
	}
	return n
}
