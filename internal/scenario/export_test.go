package scenario

// Test-only builders and string-keyed evaluator calls. Programs build
// conditions from XML or with Calls and AfterFault, and interceptors
// evaluate calls by index (CompiledPlan.FuncIndex, OnCallIndex).

import "lfi/internal/profile"

// And builds an <and> condition.
func And(kids ...Cond) Cond { return Cond{XMLName: condName(condAnd), Kids: kids} }

// Or builds an <or> condition.
func Or(kids ...Cond) Cond { return Cond{XMLName: condName(condOr), Kids: kids} }

// Not builds a <not> condition.
func Not(kid Cond) Cond { return Cond{XMLName: condName(condNot), Kids: []Cond{kid}} }

// Cycles builds a <cycles> virtual-cycle window (max 0 = open-ended).
func Cycles(min, max uint64) Cond {
	return Cond{XMLName: condName(condCycles), Min: min, Max: max}
}

// PidIs builds a <pid> condition.
func PidIs(pid int) Cond { return Cond{XMLName: condName(condPid), Is: pid} }

// Probability builds a <probability> condition (pct in (0, 100]).
func Probability(pct float64) Cond { return Cond{XMLName: condName(condProb), Pct: pct} }

// Stack builds a <stacktrace> condition, innermost frame first.
func Stack(frames ...string) Cond {
	return Cond{XMLName: condName(condStack), Frames: frames}
}

// AfterFaultN builds an <after-fault> condition requiring count prior
// faults. Count 0 means the default of 1, matching the XML attribute.
func AfterFaultN(function string, count int32) Cond {
	return Cond{XMLName: condName(condAfterFault), Function: function, Count: count}
}

// NewEvaluator compiles the plan and mints an evaluator in one step — a
// convenience for plans known to be valid (it panics on compile errors,
// which Unmarshal and Compile report gracefully). Callers running many
// evaluators over one plan should Compile once and mint evaluators from
// the CompiledPlan instead.
func NewEvaluator(plan *Plan, set profile.Set) *Evaluator {
	return MustCompile(plan, set).NewEvaluator()
}

// CallCount returns the number of calls seen so far for fn. Calls are
// counted only for functions the plan triggers on — nothing reads the
// others: decisions, injection logs and <after-fault> conditions all
// concern triggered functions — so for any other function it is 0.
func (e *Evaluator) CallCount(fn string) int32 {
	if fi := e.cp.FuncIndex(fn); fi >= 0 {
		return e.count[fi]
	}
	return 0
}

// FaultCount returns the number of faults injected into fn so far — the
// state <after-fault> conditions read.
func (e *Evaluator) FaultCount(fn string) int32 {
	if fi := e.cp.FuncIndex(fn); fi >= 0 {
		return e.faults[fi]
	}
	return 0
}

// OnCall records one call to fn and evaluates its triggers. stack is
// the runtime backtrace, innermost frame first. Cycle-window conditions
// see cycle 0; interceptors with a clock use OnCallAt.
func (e *Evaluator) OnCall(fn string, stack []StackFrame) Decision {
	return e.OnCallAt(fn, stack, 0)
}

// OnCallAt is OnCall with the process's current virtual cycle, for
// <cycles> window conditions. A call to a function no trigger names
// examines nothing and returns the zero Decision.
func (e *Evaluator) OnCallAt(fn string, stack []StackFrame, cycle uint64) Decision {
	fi := e.cp.FuncIndex(fn)
	if fi < 0 {
		return Decision{}
	}
	return e.OnCallIndex(fi, stack, cycle)
}
