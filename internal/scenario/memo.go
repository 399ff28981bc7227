// Static first-fire-site analysis for prefix-memoized sweeps.
//
// A sweep's snapshot executor can share the deterministic execution
// prefix of many experiments — everything up to the moment a faultload
// first becomes fireable — by checkpointing the guest just before that
// point once and restoring every group member from the checkpoint. That
// is only sound when the analyzer can prove, statically, that (a) no
// trigger of the plan can fire before a specific (function, call-N)
// site, and (b) evaluating calls 1..N-1 is observably identical across
// every plan mapped to the same site: same per-call cycle charge (a
// function of the per-function trigger count), no injections, and no
// random draws (a <probability> condition consumes the seeded stream on
// every examined call, so its mere presence rules memoization out;
// random="true" faults draw only at fire time and stay memoizable).
package scenario

import "fmt"

// FireSite is a deterministic first-fire site: no trigger of the
// analyzed plan can fire before the Call-th intercepted call (1-based,
// counted per process) to Function.
type FireSite struct {
	Function string
	Call     int32
}

// FirstFireSite conservatively maps a plan to the deterministic site of
// its earliest possible injection. The empty reason means the plan is
// memoizable: a sweep may run any same-shaped plan to just before the
// site and reuse the resulting state for every plan sharing the site.
// A non-empty reason names what forces the fallback to the entry
// snapshot: "probability", "after-fault", "sticky", "pid", "cycles",
// "triggers target multiple functions", or "no triggers".
//
// The site is a lower bound, not an exact fire point — conditions the
// analyzer does not model (stacktrace, <calls> windows inside <or>)
// only make the real first fire later, which is safe: the shared prefix
// just ends earlier than it ideally could.
func FirstFireSite(p *Plan) (FireSite, string) {
	if p == nil || len(p.Triggers) == 0 {
		return FireSite{}, "no triggers"
	}
	fn := p.Triggers[0].Function
	var site int32
	for i := range p.Triggers {
		t := &p.Triggers[i]
		if t.Function != fn {
			return FireSite{}, "triggers target multiple functions"
		}
		if b := memoBlocker(t); b != "" {
			return FireSite{}, b
		}
		if c := earliestCall(t); site == 0 || c < site {
			site = c
		}
	}
	return FireSite{Function: fn, Call: site}, ""
}

// memoBlocker reports why one trigger rules out prefix memoization
// ("" = it does not): probability consumes random draws on examined
// calls before the fire, after-fault couples the trigger to other
// triggers' fire history, sticky makes the first fire site load-bearing
// for every later call, and pid/cycles windows depend on runtime state
// the analyzer does not model.
func memoBlocker(t *Trigger) string {
	switch {
	case t.Sticky:
		return "sticky"
	case t.Probability > 0:
		return "probability"
	case t.Pid != 0:
		return "pid"
	}
	blocked := ""
	for i := range t.Conds {
		t.Conds[i].walk(func(c *Cond) {
			if blocked != "" {
				return
			}
			switch c.XMLName.Local {
			case condProb:
				blocked = "probability"
			case condAfterFault:
				blocked = "after-fault"
			case condPid:
				blocked = "pid"
			case condCycles:
				blocked = "cycles"
			}
		})
		if blocked != "" {
			break
		}
	}
	return blocked
}

// earliestCall lower-bounds the first call number at which the trigger
// could fire. inject="n" is an exact n-th-call match, and top-level
// <calls> conditions (including those under top-level <and> chains) are
// ANDed with it, so their `after` bounds raise the floor; conditions
// nested under <or>/<not> are ignored (conservative — they can only be
// modeled as "might hold on any call").
func earliestCall(t *Trigger) int32 {
	n := int32(1)
	if t.Inject > 0 && t.Inject > n {
		n = t.Inject
	}
	var visit func(c *Cond)
	visit = func(c *Cond) {
		switch c.XMLName.Local {
		case condAnd:
			for i := range c.Kids {
				visit(&c.Kids[i])
			}
		case condCalls:
			if c.After+1 > n {
				n = c.After + 1
			}
		}
	}
	for i := range t.Conds {
		visit(&t.Conds[i])
	}
	return n
}

// FirstFireSite applies the static analyzer to the compiled plan's
// source faultload; see the package-level FirstFireSite.
func (cp *CompiledPlan) FirstFireSite() (FireSite, string) {
	return FirstFireSite(cp.plan)
}

// Fire phases reported by FirePhase.
const (
	PhaseStartup = "startup"
	PhaseSteady  = "steady-state"
	PhaseNever   = "never"
)

// FirePhase statically classifies when the plan's earliest injection
// can land in the guest's lifecycle. Unlike FirstFireSite it needs no
// memoizability proof: each trigger is lower-bounded independently
// (inject="n", top-level ANDed <calls after> windows, and <cycles min>
// floors) and the loosest trigger wins. PhaseStartup means some
// trigger may fire at its function's very first call with no cycle
// floor — the fault can hit initialization paths. PhaseSteady means
// every trigger waits out a warmup window, so the fault lands on a
// guest that is already serving. The second return is human-readable
// evidence for the earliest fireable site.
func FirePhase(p *Plan) (phase, site string) {
	if p == nil || len(p.Triggers) == 0 {
		return PhaseNever, "no triggers"
	}
	type bound struct {
		fn     string
		call   int32
		cycles uint64
	}
	var best *bound
	for i := range p.Triggers {
		t := &p.Triggers[i]
		b := bound{fn: t.Function, call: earliestCall(t), cycles: cycleFloor(t)}
		if b.call <= 1 && b.cycles == 0 {
			return PhaseStartup, fmt.Sprintf("%s fireable from call 1", b.fn)
		}
		if best == nil || b.call < best.call ||
			(b.call == best.call && b.cycles < best.cycles) {
			best = &b
		}
	}
	site = fmt.Sprintf("%s fireable from call %d", best.fn, best.call)
	if best.cycles > 0 {
		site += fmt.Sprintf(" and cycle %d", best.cycles)
	}
	return PhaseSteady, site
}

// cycleFloor lower-bounds the virtual cycle count before which the
// trigger cannot fire: top-level <cycles min> conditions (including
// under top-level <and> chains) are ANDed with everything else, so
// their floors bind; <or>/<not> children are conservatively ignored.
func cycleFloor(t *Trigger) uint64 {
	var n uint64
	var visit func(c *Cond)
	visit = func(c *Cond) {
		switch c.XMLName.Local {
		case condAnd:
			for i := range c.Kids {
				visit(&c.Kids[i])
			}
		case condCycles:
			if c.Min > n {
				n = c.Min
			}
		}
	}
	for i := range t.Conds {
		visit(&t.Conds[i])
	}
	return n
}

// FirePhase applies the phase classifier to the compiled plan's source
// faultload; see the package-level FirePhase.
func (cp *CompiledPlan) FirePhase() (phase, site string) {
	return FirePhase(cp.plan)
}

// Stateful reports whether the plan carries stateful degradation
// faults (<delay> or <exhaust>) — faults whose effect persists beyond
// the fired call. Statefulness does NOT block prefix memoization: a
// degradation only acts at or after its trigger's fire site, so the
// shared prefix (calls 1..N-1, strictly pre-fire) carries no armed
// state and is identical across every plan mapped to the same site.
// What statefulness rules out is sharing anything at or beyond the
// fire — the suffix is private per experiment, which is exactly the
// memoization scheme's shape already.
func (p *Plan) Stateful() bool {
	if p == nil {
		return false
	}
	for i := range p.Triggers {
		if p.Triggers[i].Delay != nil || p.Triggers[i].Exhaust != nil {
			return true
		}
	}
	return false
}

// EvalState is the exportable mutable state of an Evaluator: per-
// function call counts, per-trigger once-latches and per-function fault
// counts. State/SetState move it between evaluators of same-shaped
// CompiledPlans so a restored mid-execution snapshot resumes trigger
// decisions bit-identically.
//
// Counts cover only the functions the plan triggers on, because nothing
// reads the others: decisions, injection logs and <after-fault>
// conditions all concern triggered functions. A checkpoint of a
// one-function plan therefore carries one count, however many stubs the
// interception surface has.
//
// The seeded random stream is deliberately not part of the state: the
// transfer contract covers evaluation prefixes that consumed no
// randomness — no <probability> conditions examined, no random faults
// fired — which is exactly the class FirstFireSite admits, and there a
// freshly seeded stream is bit-identical to the donor's.
type EvalState struct {
	Count  map[string]int32
	Fired  map[int]bool // only fired triggers, by plan-order index
	Faults map[string]int32
}

// State deep-copies the evaluator's mutable state.
func (e *Evaluator) State() EvalState {
	st := EvalState{
		Count:  make(map[string]int32, len(e.count)),
		Fired:  make(map[int]bool),
		Faults: make(map[string]int32, len(e.faults)),
	}
	for fi, fn := range e.cp.fns {
		st.Count[fn] = e.count[fi]
		st.Faults[fn] = e.faults[fi]
	}
	for idx, fired := range e.fired {
		if fired {
			st.Fired[idx] = true
		}
	}
	return st
}

// SetState overwrites the evaluator's mutable state with st. Entries
// for functions or triggers this evaluator's plan does not have are
// dropped, so many evaluators may be seeded from one exported state.
func (e *Evaluator) SetState(st EvalState) {
	clear(e.count)
	clear(e.fired)
	clear(e.faults)
	for fn, n := range st.Count {
		if fi := e.cp.FuncIndex(fn); fi >= 0 {
			e.count[fi] = n
		}
	}
	for idx, fired := range st.Fired {
		if idx >= 0 && idx < len(e.fired) {
			e.fired[idx] = fired
		}
	}
	for fn, n := range st.Faults {
		if fi := e.cp.FuncIndex(fn); fi >= 0 {
			e.faults[fi] = n
		}
	}
}
