package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"lfi/internal/kernel"
	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// DefaultSweepBudget is the per-run cycle budget used when a sweep is
// started with budget 0. A run that exhausts it is classified as a hang.
const DefaultSweepBudget = 200_000_000

// Outcome classifies one fault-injection run — the rows of the §2 test
// report ("the results in the report can pinpoint bugs or weak spots in
// the target software").
type Outcome string

// Outcomes.
const (
	// OutcomeHandled: the program terminated exactly as it does without
	// injection — it tolerated the fault.
	OutcomeHandled Outcome = "handled"
	// OutcomeErrorExit: the program terminated normally but with a
	// different exit code — it detected the fault and degraded.
	OutcomeErrorExit Outcome = "error-exit"
	// OutcomeCrash: the program died on a signal (SIGSEGV, SIGABRT...).
	OutcomeCrash Outcome = "crash"
	// OutcomeHang: the program deadlocked or exhausted its cycle budget.
	OutcomeHang Outcome = "hang"
	// OutcomeNotTriggered: the workload never called the function, so
	// the fault was not exercised.
	OutcomeNotTriggered Outcome = "not-triggered"
)

// Classify maps one campaign report onto the five §2 outcomes, relative
// to the clean-run baseline exit code.
func Classify(rep *Report, baseline int32) Outcome {
	switch {
	case len(rep.Injections) == 0:
		return OutcomeNotTriggered
	case rep.Status.Signal != 0:
		return OutcomeCrash
	case rep.Deadlocked:
		return OutcomeHang
	case rep.Status.Code == baseline:
		return OutcomeHandled
	default:
		return OutcomeErrorExit
	}
}

// SweepEntry is one (function, fault) experiment: an error-return store
// (Retval/Errno) or, when Fault is set, a stateful degradation.
type SweepEntry struct {
	Library  string
	Function string
	Retval   int32
	Errno    int32
	HasErrno bool
	// Fault, when non-empty, labels a degradation fault model
	// ("delay=N", "exhaust=disk:after=K", "exhaust=fds:slots=K") in
	// place of the retval/errno coordinates. Empty for error-return
	// experiments, so their report rows render exactly as before.
	Fault    string
	Outcome  Outcome
	ExitCode int32
	Signal   int32
	// Avail is the availability class of a traffic-driven run, with the
	// requests served before/during/after the fault window alongside.
	// Empty without an availability spec, so plain sweep rows render
	// exactly as before.
	Avail       AvailClass
	AvailBefore int32
	AvailDuring int32
	AvailAfter  int32
}

// String renders the entry as a report line.
func (e SweepEntry) String() string {
	var fault string
	if e.Fault != "" {
		fault = fmt.Sprintf("%s.%s %s", e.Library, e.Function, e.Fault)
	} else {
		fault = fmt.Sprintf("%s.%s -> %d", e.Library, e.Function, e.Retval)
		if e.HasErrno {
			name := kernel.ErrnoName(e.Errno)
			if name == "" {
				name = fmt.Sprint(e.Errno)
			}
			fault += " errno=" + name
		}
	}
	line := fmt.Sprintf("%-46s %s", fault, e.Outcome)
	if e.Avail != "" {
		line += fmt.Sprintf(" avail=%s served=%d/%d/%d",
			e.Avail, e.AvailBefore, e.AvailDuring, e.AvailAfter)
	}
	return line
}

// SweepResult is the robustness matrix of one application.
type SweepResult struct {
	Executable string
	Baseline   int32 // clean-run exit code
	Entries    []SweepEntry
	// Memo, when the sweep ran on the memoizing snapshot executor,
	// carries its prefix-sharing statistics. Deliberately not part of
	// Render: the rendered report stays byte-identical to a
	// non-memoized sweep's.
	Memo *MemoStats
}

// Summary counts entries per outcome.
func (r *SweepResult) Summary() map[Outcome]int {
	out := make(map[Outcome]int)
	for _, e := range r.Entries {
		out[e.Outcome]++
	}
	return out
}

// Render prints the report: per-fault rows then the outcome summary.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "robustness sweep: %s (baseline exit %d, %d faults)\n",
		r.Executable, r.Baseline, len(r.Entries))
	for _, e := range r.Entries {
		fmt.Fprintf(&b, "  %s\n", e.String())
	}
	sum := r.Summary()
	keys := make([]string, 0, len(sum))
	for k := range sum {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	b.WriteString("summary:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, sum[Outcome(k)])
	}
	b.WriteString("\n")
	return b.String()
}

// Experiment is one planned fault-injection run: the (library, function,
// error code) coordinates of a SweepEntry plus the single-trigger
// faultload that realises it. Experiments are self-contained — the plan
// is owned by the experiment and cloned again per run — so they can be
// executed in any order, on any worker, with identical results.
type Experiment struct {
	Library  string
	Function string
	Retval   int32
	Errno    int32
	HasErrno bool
	// Fault labels a degradation fault model (see SweepEntry.Fault);
	// empty for error-return experiments.
	Fault string
	// Audit is the caller-side audit class of the target function's
	// most fragile call site ("checked", "stored",
	// "unchecked-propagated", "unchecked-clobbered"; empty = unknown).
	// Purely an annotation: it rides into campaign records and triage
	// but is not part of the experiment's identity (Key) or its report
	// row, so annotated and unannotated sweeps render identically.
	Audit string
	// Plan is the faultload for this run. PlanExperiments builds a
	// deterministic once-on-first-call trigger; hand-built experiments
	// may use any plan, including seeded random triggers (the per-run
	// evaluator derives its stream from Plan.Seed, so random draws are
	// reproducible regardless of scheduling).
	Plan *scenario.Plan
	// Compiled, when set, is Plan's pre-compiled form. PlanExperiments
	// fills it so every run and worker shares one immutable compiled
	// plan; hand-built experiments may leave it nil, and the plan is
	// then compiled once per campaign (errors surface in plan order).
	Compiled *scenario.CompiledPlan
}

// Key is the experiment's canonical identity for persistent campaign
// stores: the report coordinates plus the faultload's canonical key
// (scenario.Plan.CanonicalKey). Two experiments share a key iff they
// would produce the same report row from the same faultload, so a
// resumed sweep can skip completed keys and still render byte-identical
// to a fresh run. The key is stable across processes and machines —
// PlanExperiments is deterministic and plans marshal canonically.
func (exp *Experiment) Key() string {
	plan := exp.Plan
	if plan == nil && exp.Compiled != nil {
		plan = exp.Compiled.Plan()
	}
	key := fmt.Sprintf("%s/%s/%d/%d/%t/%s",
		exp.Library, exp.Function, exp.Retval, exp.Errno, exp.HasErrno, plan.CanonicalKey())
	if exp.Fault != "" {
		// Degradation experiments append their fault label; error-return
		// keys keep the historical five-segment shape, so stores written
		// by earlier campaigns resume unchanged.
		key += "/" + exp.Fault
	}
	return key
}

// PlanExperiments expands a profile set into the full experiment matrix —
// one experiment per (library, function, error code), in deterministic
// lexicographic library order. This is the generator half of a sweep; the
// executor half is RunExperiments.
func PlanExperiments(set profile.Set) []Experiment {
	return expand(set, scenario.Trigger{Inject: 1, Once: true}, true, nil)
}

// expand is the one experiment-matrix generator. For every profiled
// function (libraries in lexicographic order, functions in profile
// order) it emits these experiments, each armed by the trigger arm:
//   - with errorReturns, one error return per profiled error code,
//     which also stores the code's errno side effect;
//   - with delays non-nil, one latency injection per delay, then a
//     disk-full and an fd-saturation degradation.
//
// Each experiment owns a one-trigger plan, pre-compiled against set so
// that every run and worker shares one immutable compiled plan. The
// order is deterministic, so sweeps shard, resume and memoize
// identically.
func expand(set profile.Set, arm scenario.Trigger, errorReturns bool, delays []uint64) []Experiment {
	libs := make([]string, 0, len(set))
	for lib := range set {
		libs = append(libs, lib)
	}
	sort.Strings(libs)
	// Fault labels are computed once and shared: strings are immutable.
	delayLabels := make([]string, len(delays))
	for i, d := range delays {
		delayLabels[i] = fmt.Sprintf("delay=%d", d)
	}
	diskLabel := fmt.Sprintf("exhaust=disk:after=%d", DegradationDiskBytes)
	fdsLabel := fmt.Sprintf("exhaust=fds:slots=%d", DegradationFDSlots)
	var out []Experiment
	add := func(exp Experiment, fault string, t scenario.Trigger) {
		exp.Fault = fault
		t.Function = exp.Function
		t.Conds = slices.Clone(t.Conds)
		exp.Plan = &scenario.Plan{Triggers: []scenario.Trigger{t}}
		// Generated triggers always compile.
		if cp, err := scenario.Compile(exp.Plan, set); err == nil {
			exp.Compiled = cp
		}
		out = append(out, exp)
	}
	for _, lib := range libs {
		for _, fn := range set[lib].Functions {
			row := Experiment{Library: lib, Function: fn.Name}
			if errorReturns {
				for _, ec := range fn.ErrorCodes {
					exp, t := row, arm
					exp.Retval, t.Retval = ec.Retval, fmt.Sprint(ec.Retval)
					if errno, ok := errnoSideEffect(ec); ok {
						exp.HasErrno, exp.Errno, t.Errno = true, errno, errnoLabel(errno)
					}
					add(exp, "", t)
				}
			}
			if delays == nil {
				continue
			}
			for i, d := range delays {
				t := arm
				t.Delay = &scenario.Delay{Cycles: d}
				add(row, delayLabels[i], t)
			}
			t := arm
			t.Exhaust = &scenario.Exhaust{Resource: scenario.ResourceDisk, After: DegradationDiskBytes}
			add(row, diskLabel, t)
			t = arm
			t.Exhaust = &scenario.Exhaust{Resource: scenario.ResourceFDs, Slots: DegradationFDSlots}
			add(row, fdsLabel, t)
		}
	}
	return out
}

// Degradation fault-model parameters used by DegradationExperiments.
// They pick the harshest point of each model so one sweep answers "what
// happens when this resource degrades at this call site":
const (
	// DegradationDelayCycles stalls the intercepted call past the
	// default per-run budget — the call effectively never returns, the
	// ZOFI-style timing fault — so a fired delay under the default
	// budget classifies as a hang. Sweeps with a larger explicit budget
	// see a slow call instead.
	DegradationDelayCycles = DefaultSweepBudget
	// DegradationDiskBytes = 0: the disk is full from the moment the
	// trigger fires; the next write or creating open fails with ENOSPC.
	DegradationDiskBytes = 0
	// DegradationFDSlots = 0: the fd table saturates at fire time; the
	// fired call's own descriptor allocation (and every later one)
	// fails with EMFILE.
	DegradationFDSlots = 0
)

// DegradationExperiments expands a profile set into the stateful
// degradation matrix: for every profiled function, one latency
// injection, one disk-exhaustion and one fd-pressure experiment, each
// armed on the function's first call (pass-through triggers — the
// original proceeds against the degraded kernel). The generator is
// deterministic in the same lexicographic order as PlanExperiments,
// so degradation sweeps shard, resume and memoize identically.
func DegradationExperiments(set profile.Set) []Experiment {
	return expand(set, scenario.Trigger{Inject: 1, Once: true}, false, []uint64{DegradationDelayCycles})
}

// checkBaseline rejects crashed or wedged baselines — no classification
// can anchor on those — and, under an availability spec, baselines whose
// traffic run did not complete cleanly (a fault-free client that drops
// requests would poison every availability class). The error names
// which of these it was.
func checkBaseline(rep *Report, avail *AvailSpec) error {
	switch {
	case rep.Status.Signal != 0:
		return fmt.Errorf("core: baseline run is unhealthy: killed by %s", vm.SignalName(rep.Status.Signal))
	case rep.BudgetExhausted:
		return fmt.Errorf("core: baseline run is unhealthy: cycle budget exhausted after %d cycles", rep.Cycles)
	case rep.Deadlocked:
		return fmt.Errorf("core: baseline run is unhealthy: deadlocked after %d cycles", rep.Cycles)
	}
	if avail != nil {
		c := rep.Avail
		if c == nil || !c.Done || c.ServerSignal != 0 ||
			c.WarmFail+c.SteadyFail+c.PostFail+c.TailFail != 0 ||
			c.WarmErr+c.SteadyErr+c.PostErr != 0 {
			return fmt.Errorf("core: baseline traffic run is unhealthy: %+v", c)
		}
	}
	return nil
}

// entry seeds the report row for an experiment's coordinates.
func (exp *Experiment) entry() SweepEntry {
	return SweepEntry{
		Library: exp.Library, Function: exp.Function, Retval: exp.Retval,
		Errno: exp.Errno, HasErrno: exp.HasErrno, Fault: exp.Fault,
	}
}

// classify fills the outcome half of the entry from a finished run:
// the process-shaped Outcome against the baseline exit code and — when
// the sweep runs under an availability spec — the service-level class
// against the baseline's counters and cycle envelope. Every executor
// path (full run, memo-restored, memo-terminal) funnels through here,
// against a baseline run on the same guest.
func (e *SweepEntry) classify(rep *Report, base *Report, avail *AvailSpec) {
	e.ExitCode = rep.Status.Code
	e.Signal = rep.Status.Signal
	e.Outcome = Classify(rep, base.Status.Code)
	if avail == nil || rep.Avail == nil {
		return
	}
	e.Avail = ClassifyAvail(rep, base, avail.latencyPct())
	e.AvailBefore = rep.Avail.WarmOK
	e.AvailDuring = rep.Avail.SteadyOK
	e.AvailAfter = rep.Avail.PostOK
}
