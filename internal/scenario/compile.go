// Compile-then-evaluate trigger engine. A Plan is compiled once into an
// immutable CompiledPlan — per-function trigger index, pre-parsed
// retvals/errnos/frame addresses, pre-resolved random-fault candidates —
// and any number of Evaluators (one per process) carry the thin mutable
// state on top: call counts, the fired set, per-function fault counts
// and the seeded random stream.
//
// The plan's triggered functions are numbered densely in sorted order
// (FuncIndex); the evaluator's counters are slices indexed by that
// number, so an intercepted call costs no string hashing and no map
// growth. Functions the plan never triggers on have no index and no
// state at all.
package scenario

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"lfi/internal/kernel"
	"lfi/internal/profile"
)

// CompileError is a position-carrying plan validation/compilation error:
// it names the offending trigger by plan-order index and function.
type CompileError struct {
	// Trigger is the 0-based plan-order index of the bad trigger.
	Trigger int
	// Function is the trigger's function attribute.
	Function string
	// Err is the underlying complaint.
	Err error
}

func (e *CompileError) Error() string {
	return fmt.Sprintf("scenario: trigger %d (function %q): %v", e.Trigger, e.Function, e.Err)
}

func (e *CompileError) Unwrap() error { return e.Err }

// Validate checks every trigger without needing a profile set: retval
// and errno attributes must parse, sticky/once must not contradict, and
// condition trees must follow the grammar. Unmarshal calls it, so a
// faultload with an unparsable retval is rejected when it is read, not
// silently skipped when it fires. A plan is valid iff it compiles, so
// Validate is a set-free compile with the result discarded — there is
// no second copy of the rules to drift.
func (p *Plan) Validate() error {
	_, err := Compile(p, nil)
	return err
}

// CompiledPlan is the immutable compiled form of a faultload. It is safe
// to share across goroutines and campaigns: all evaluation state lives
// in the Evaluators it mints.
type CompiledPlan struct {
	plan *Plan
	set  profile.Set
	// fns are the triggered functions, sorted; a function's position is
	// its FuncIndex, which indexes byFn, readsStack and every
	// evaluator's counters.
	fns   []string
	index map[string]int
	byFn  [][]compiledTrigger
	// readsStack marks functions with at least one stack condition: only
	// their calls need a backtrace before evaluation.
	readsStack []bool
}

// compiledTrigger is one trigger with everything parse-time resolved.
type compiledTrigger struct {
	idx    int // plan-order index
	cond   cnode
	once   bool
	sticky bool

	hasRetval    bool
	retval       int32
	hasErrno     bool
	errno        int32
	callOriginal bool
	modify       []Modify
	delay        uint64
	exhaust      *Exhaust

	random bool
	// candidates are the pre-resolved random-fault error codes from the
	// function's profile (nil when no profile covers the function).
	candidates []profile.ErrorCode
}

// Compile validates the plan and builds its immutable compiled form.
// The profile set supplies error codes for random triggers; it may be
// nil when the plan is fully explicit.
func Compile(plan *Plan, set profile.Set) (*CompiledPlan, error) {
	if plan == nil {
		return nil, errors.New("scenario: compile: nil plan")
	}
	cp := &CompiledPlan{plan: plan, set: set, index: make(map[string]int)}
	for i := range plan.Triggers {
		fn := plan.Triggers[i].Function
		if _, seen := cp.index[fn]; !seen {
			cp.index[fn] = 0
			cp.fns = append(cp.fns, fn)
		}
	}
	sort.Strings(cp.fns)
	for i, fn := range cp.fns {
		cp.index[fn] = i
	}
	cp.byFn = make([][]compiledTrigger, len(cp.fns))
	cp.readsStack = make([]bool, len(cp.fns))
	for i := range plan.Triggers {
		t := &plan.Triggers[i]
		ct, err := compileTrigger(i, t, set, cp.index)
		if err != nil {
			return nil, &CompileError{Trigger: i, Function: t.Function, Err: err}
		}
		fi := cp.index[t.Function]
		cp.byFn[fi] = append(cp.byFn[fi], ct)
		cp.readsStack[fi] = cp.readsStack[fi] || t.readsStack()
	}
	return cp, nil
}

// MustCompile is Compile for plans known to be valid; it panics on error.
func MustCompile(plan *Plan, set profile.Set) *CompiledPlan {
	cp, err := Compile(plan, set)
	if err != nil {
		panic(err)
	}
	return cp
}

// Plan returns the source plan (treat as immutable).
func (cp *CompiledPlan) Plan() *Plan { return cp.plan }

// Functions returns the distinct intercepted function names, sorted.
func (cp *CompiledPlan) Functions() []string { return append([]string(nil), cp.fns...) }

// FuncIndex returns fn's dense index among the plan's triggered
// functions, or -1 when no trigger names fn. Interceptors resolve it
// once per bind and evaluate calls with OnCallIndex.
func (cp *CompiledPlan) FuncIndex(fn string) int {
	if i, ok := cp.index[fn]; ok {
		return i
	}
	return -1
}

// ReadsStack reports whether any trigger on the function at index fi
// has a stack condition — whether OnCallIndex needs a backtrace for it.
func (cp *CompiledPlan) ReadsStack(fi int) bool { return cp.readsStack[fi] }

// TriggerCount returns how many triggers guard fn — the number examined
// per intercepted call, i.e. the per-call evaluation cost.
func (cp *CompiledPlan) TriggerCount(fn string) int {
	if i := cp.FuncIndex(fn); i >= 0 {
		return len(cp.byFn[i])
	}
	return 0
}

// compileTrigger resolves one trigger's static parts and builds its
// condition chain in the engine's evaluation order: pid, inject,
// probability, stacktrace, then composed condition elements — the order
// fixes how many random draws a partially-matching call consumes, so it
// is part of the deterministic-replay contract.
//
// index maps each triggered function to its FuncIndex, for <after-fault>
// conditions.
func compileTrigger(idx int, t *Trigger, set profile.Set, index map[string]int) (compiledTrigger, error) {
	ct := compiledTrigger{
		idx:          idx,
		once:         t.Once,
		sticky:       t.Sticky,
		callOriginal: t.CallOriginal,
		modify:       t.Modify,
		random:       t.Random,
	}
	if t.Function == "" {
		return ct, errors.New("missing function name")
	}
	if t.Sticky && t.Once {
		return ct, errors.New(`sticky="true" contradicts once="true"`)
	}
	// Structural grammar checks must precede condition compilation
	// (compileCond assumes container arity holds).
	for i := range t.Conds {
		if err := t.Conds[i].validate(); err != nil {
			return ct, err
		}
	}
	if t.Retval != "" {
		v, err := strconv.ParseInt(t.Retval, 0, 32)
		if err != nil {
			return ct, fmt.Errorf("bad retval %q: not a 32-bit integer", t.Retval)
		}
		ct.hasRetval, ct.retval = true, int32(v)
	}
	if t.Errno != "" {
		v, ok := ParseErrno(t.Errno)
		if !ok {
			return ct, fmt.Errorf("bad errno %q: neither a known errno name nor a number", t.Errno)
		}
		ct.hasErrno, ct.errno = true, v
	}
	if t.Delay != nil {
		if t.Delay.Cycles == 0 {
			return ct, errors.New(`<delay> needs cycles > 0`)
		}
		ct.delay = t.Delay.Cycles
	}
	if t.Exhaust != nil {
		switch t.Exhaust.Resource {
		case ResourceDisk:
			if t.Exhaust.Slots != 0 {
				return ct, errors.New(`<exhaust resource="disk"> takes after=, not slots=`)
			}
			if t.Exhaust.After < 0 {
				return ct, fmt.Errorf("bad disk quota after=%d: must be >= 0", t.Exhaust.After)
			}
		case ResourceFDs:
			if t.Exhaust.After != 0 {
				return ct, errors.New(`<exhaust resource="fds"> takes slots=, not after=`)
			}
			if t.Exhaust.Slots < 0 {
				return ct, fmt.Errorf("bad fd headroom slots=%d: must be >= 0", t.Exhaust.Slots)
			}
		default:
			return ct, fmt.Errorf("unknown <exhaust> resource %q (want %q or %q)",
				t.Exhaust.Resource, ResourceDisk, ResourceFDs)
		}
		ct.exhaust = t.Exhaust
	}
	if t.Random && set != nil {
		if _, pf, ok := set.FindFunction(t.Function); ok && len(pf.ErrorCodes) > 0 {
			ct.candidates = pf.ErrorCodes
		}
	}
	// A trigger that neither returns a value nor modifies arguments and
	// does not call the original would hang the caller; resolve it to a
	// pure pass-through probe (or the C convention -1 for errno-only
	// injections) once, at compile time.
	if !ct.hasRetval && len(ct.modify) == 0 && !t.CallOriginal && !t.Random {
		if !ct.hasErrno {
			ct.callOriginal = true
		} else {
			ct.hasRetval, ct.retval = true, -1
		}
	}

	var conds []cnode
	if t.Pid != 0 {
		conds = append(conds, pidCond(t.Pid))
	}
	if t.Inject > 0 {
		conds = append(conds, nthCond(t.Inject))
	}
	if t.Probability > 0 {
		conds = append(conds, probCond(t.Probability))
	}
	if frames := t.Frames(); len(frames) > 0 {
		m, err := compileFrames(frames)
		if err != nil {
			return ct, err
		}
		conds = append(conds, stackCond(m))
	}
	for i := range t.Conds {
		n, err := compileCond(&t.Conds[i], index)
		if err != nil {
			return ct, err
		}
		conds = append(conds, n)
	}
	switch len(conds) {
	case 0:
	case 1:
		ct.cond = conds[0]
	default:
		ct.cond = andCond(conds)
	}
	return ct, nil
}

func compileCond(c *Cond, index map[string]int) (cnode, error) {
	kids := make([]cnode, len(c.Kids))
	for i := range c.Kids {
		k, err := compileCond(&c.Kids[i], index)
		if err != nil {
			return nil, err
		}
		kids[i] = k
	}
	switch c.XMLName.Local {
	case condAnd:
		return andCond(kids), nil
	case condOr:
		return orCond(kids), nil
	case condNot:
		return notCond{kids[0]}, nil
	case condCalls:
		return callsCond{after: c.After, every: c.Every, until: c.Until}, nil
	case condCycles:
		return cyclesCond{min: c.Min, max: c.Max}, nil
	case condPid:
		return pidCond(c.Is), nil
	case condProb:
		return probCond(c.Pct), nil
	case condStack:
		m, err := compileFrames(c.Frames)
		if err != nil {
			return nil, err
		}
		return stackCond(m), nil
	case condAfterFault:
		count := c.Count
		if count == 0 {
			count = 1
		}
		fi, ok := index[c.Function]
		if !ok {
			// No trigger targets the function, so it never faults: the
			// condition can never hold (Lint warns about it).
			fi = -1
		}
		return afterFaultCond{fi: fi, count: count}, nil
	}
	return nil, fmt.Errorf("unknown condition element <%s>", c.XMLName.Local)
}

// ---------------------------------------------------------------------------
// Compiled condition nodes
// ---------------------------------------------------------------------------

// callSite is the per-call context a condition node sees.
type callSite struct {
	n     int32 // 1-based call count for the intercepted function
	cycle uint64
	stack []StackFrame
}

// cnode is a compiled condition; eval may consume the evaluator's
// random stream (probability nodes), so evaluation order matters.
type cnode interface {
	eval(e *Evaluator, at *callSite) bool
}

type andCond []cnode

func (c andCond) eval(e *Evaluator, at *callSite) bool {
	for _, k := range c {
		if !k.eval(e, at) {
			return false
		}
	}
	return true
}

type orCond []cnode

func (c orCond) eval(e *Evaluator, at *callSite) bool {
	for _, k := range c {
		if k.eval(e, at) {
			return true
		}
	}
	return false
}

type notCond struct{ kid cnode }

func (c notCond) eval(e *Evaluator, at *callSite) bool { return !c.kid.eval(e, at) }

// nthCond is the flat inject= attribute: exactly the n-th call.
type nthCond int32

func (c nthCond) eval(_ *Evaluator, at *callSite) bool { return int32(c) == at.n }

type pidCond int

func (c pidCond) eval(e *Evaluator, _ *callSite) bool { return int(c) == e.pid }

type probCond float64

func (c probCond) eval(e *Evaluator, _ *callSite) bool {
	return e.rand().Float64()*100 < float64(c)
}

type callsCond struct{ after, every, until int32 }

func (c callsCond) eval(_ *Evaluator, at *callSite) bool {
	if at.n <= c.after {
		return false
	}
	if c.until > 0 && at.n > c.until {
		return false
	}
	if c.every > 1 && (at.n-c.after-1)%c.every != 0 {
		return false
	}
	return true
}

type cyclesCond struct{ min, max uint64 }

func (c cyclesCond) eval(_ *Evaluator, at *callSite) bool {
	return at.cycle >= c.min && (c.max == 0 || at.cycle <= c.max)
}

// afterFaultCond holds once the function at index fi (-1: a function
// no trigger targets) has been faulted count times.
type afterFaultCond struct {
	fi    int
	count int32
}

func (c afterFaultCond) eval(e *Evaluator, _ *callSite) bool {
	return c.fi >= 0 && e.faults[c.fi] >= c.count
}

// frameMatcher is one pre-parsed backtrace frame condition.
type frameMatcher struct {
	isAddr bool
	addr   uint32
	symbol string
}

func compileFrames(frames []string) ([]frameMatcher, error) {
	out := make([]frameMatcher, len(frames))
	for i, w := range frames {
		if strings.HasPrefix(w, "0x") || strings.HasPrefix(w, "0X") {
			v, err := strconv.ParseUint(w[2:], 16, 32)
			if err != nil {
				return nil, fmt.Errorf("bad stack frame address %q: %v", w, err)
			}
			out[i] = frameMatcher{isAddr: true, addr: uint32(v)}
			continue
		}
		out[i] = frameMatcher{symbol: w}
	}
	return out, nil
}

// readsStack reports whether the trigger has a stack condition, as a
// stacktrace element or anywhere in its condition tree.
func (t *Trigger) readsStack() bool {
	reads := len(t.Frames()) > 0
	for i := range t.Conds {
		t.Conds[i].walk(func(c *Cond) { reads = reads || c.XMLName.Local == condStack })
	}
	return reads
}

type stackCond []frameMatcher

// eval checks the paper's partial stack-trace condition: matcher i is
// compared against backtrace entry i, innermost first.
func (c stackCond) eval(_ *Evaluator, at *callSite) bool {
	if len(c) > len(at.stack) {
		return false
	}
	for i, m := range c {
		f := at.stack[i]
		if m.isAddr {
			if m.addr != f.Addr {
				return false
			}
			continue
		}
		if m.symbol != f.Symbol {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------------

// StackFrame describes one backtrace entry for stack-trace triggers.
type StackFrame struct {
	Addr   uint32
	Symbol string
}

// Decision is the outcome of evaluating the triggers for one call.
type Decision struct {
	Inject bool
	// Trigger indexes the fired trigger within the plan.
	Trigger int
	// HasRetval/Retval: value to return instead of calling the original.
	HasRetval bool
	Retval    int32
	// Errno, when HasErrno, must be stored to the errno channel.
	HasErrno bool
	Errno    int32
	// SideEffects from the fault profile to apply (already concrete).
	SideEffects []profile.SideEffect
	// CallOriginal passes the (possibly modified) call through.
	CallOriginal bool
	Modify       []Modify
	// DelayCycles, when non-zero, is latency to charge at the call
	// boundary before anything else happens (latency injection).
	DelayCycles uint64
	// Exhaust, when non-nil, is a resource-exhaustion degradation to arm
	// in the kernel at this fire.
	Exhaust   *Exhaust
	CallCount int32
	// Scanned counts the triggers examined for this function on this
	// call; the controller charges virtual cycles proportional to it,
	// modelling native trigger-evaluation cost. With the compiled
	// per-function index this is O(triggers for fn), not O(|plan|).
	Scanned int
}

// Evaluator evaluates a compiled plan's triggers against a stream of
// intercepted calls. One evaluator corresponds to one process (call
// counts are per-process, as with an LD_PRELOADed interceptor's static
// counters). An evaluator owns all of its mutable state — call counts,
// fired set, per-function fault counts and the random stream seeded
// from Plan.Seed — so concurrent campaigns each mint their own from a
// shared, immutable CompiledPlan.
type Evaluator struct {
	cp *CompiledPlan
	// rng is created on the first draw: most plans never draw, and a
	// stream seeded at first use is the stream seeded at mint time.
	rng    *rand.Rand
	count  []int32 // by FuncIndex
	fired  []bool  // by plan-order trigger index
	faults []int32 // by FuncIndex
	pid    int
	// at is the call site under evaluation, kept here so condition nodes
	// read it through a pointer without a per-call allocation.
	at callSite
}

// NewEvaluator mints a fresh evaluator over the compiled plan.
func (cp *CompiledPlan) NewEvaluator() *Evaluator {
	return &Evaluator{
		cp:     cp,
		count:  make([]int32, len(cp.fns)),
		fired:  make([]bool, len(cp.plan.Triggers)),
		faults: make([]int32, len(cp.fns)),
	}
}

// NewEvaluator compiles the plan and mints an evaluator in one step — a
// convenience for plans known to be valid (it panics on compile errors,
// which Unmarshal and Compile report gracefully). Callers running many
// evaluators over one plan should Compile once and mint evaluators from
// the CompiledPlan instead.
func NewEvaluator(plan *Plan, set profile.Set) *Evaluator {
	return MustCompile(plan, set).NewEvaluator()
}

// rand returns the evaluator's random stream, seeding it from Plan.Seed
// on first use.
func (e *Evaluator) rand() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.cp.plan.Seed))
	}
	return e.rng
}

// SetPID identifies the process this evaluator serves, for pid-pinned
// replay triggers.
func (e *Evaluator) SetPID(pid int) { e.pid = pid }

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

// OnCallIndex records one call to the triggered function at index fi
// (CompiledPlan.FuncIndex) and evaluates its triggers, in plan order;
// the first match fires. stack is only read when ReadsStack(fi) holds,
// so callers may pass nil otherwise.
func (e *Evaluator) OnCallIndex(fi int, stack []StackFrame, cycle uint64) Decision {
	e.count[fi]++
	e.at = callSite{n: e.count[fi], cycle: cycle, stack: stack}
	at := &e.at
	triggers := e.cp.byFn[fi]
	scanned := 0
	for i := range triggers {
		ct := &triggers[i]
		scanned++
		if e.fired[ct.idx] {
			if ct.sticky {
				// A sticky trigger keeps failing once fired, without
				// re-evaluating its conditions (or consuming randomness
				// for deterministic ones; random faults re-draw).
				d := e.fire(ct, fi, at.n)
				d.Scanned = scanned
				return d
			}
			if ct.once {
				continue
			}
		}
		if ct.cond != nil && !ct.cond.eval(e, at) {
			continue
		}
		e.fired[ct.idx] = true
		d := e.fire(ct, fi, at.n)
		d.Scanned = scanned
		return d
	}
	return Decision{CallCount: at.n, Scanned: scanned}
}

// fire materialises the decision for a matched trigger.
func (e *Evaluator) fire(ct *compiledTrigger, fi int, n int32) Decision {
	e.faults[fi]++
	d := Decision{
		Inject:       true,
		Trigger:      ct.idx,
		HasRetval:    ct.hasRetval,
		Retval:       ct.retval,
		HasErrno:     ct.hasErrno,
		Errno:        ct.errno,
		CallOriginal: ct.callOriginal,
		Modify:       ct.modify,
		DelayCycles:  ct.delay,
		Exhaust:      ct.exhaust,
		CallCount:    n,
	}
	if ct.random && len(ct.candidates) > 0 {
		rng := e.rand()
		ec := ct.candidates[rng.Intn(len(ct.candidates))]
		d.HasRetval = true
		d.Retval = ec.Retval
		if len(ec.SideEffects) > 0 {
			se := ec.SideEffects[rng.Intn(len(ec.SideEffects))]
			d.SideEffects = []profile.SideEffect{se}
			if se.Type == profile.SideEffectTLS {
				d.HasErrno = true
				d.Errno = se.Applied()
			}
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Lint
// ---------------------------------------------------------------------------

// Lint reports non-fatal faultload smells: conditions that can never
// hold and random triggers with nothing to draw from. The profile set
// may be nil (profile-dependent checks are skipped against a nil set
// only when the trigger is not random).
func Lint(plan *Plan, set profile.Set) []string {
	var warns []string
	warn := func(i int, fn, format string, args ...any) {
		warns = append(warns, fmt.Sprintf("trigger %d (%s): %s", i, fn, fmt.Sprintf(format, args...)))
	}
	named := make(map[string]bool, len(plan.Triggers))
	for _, t := range plan.Triggers {
		named[t.Function] = true
	}
	for i := range plan.Triggers {
		t := &plan.Triggers[i]
		if t.Random {
			covered := false
			if set != nil {
				if _, pf, ok := set.FindFunction(t.Function); ok && len(pf.ErrorCodes) > 0 {
					covered = true
				}
			}
			if !covered {
				warn(i, t.Function, "random fault but no profile supplies error codes for %q", t.Function)
			}
		}
		if t.Probability > 100 {
			warn(i, t.Function, "probability %v exceeds 100: fires on every call", t.Probability)
		}
		if t.Exhaust != nil && t.Exhaust.Resource == ResourceFDs && int(t.Exhaust.Slots) >= kernel.MaxFDs {
			warn(i, t.Function, "fd headroom slots=%d >= MaxFDs (%d): the pressure never binds",
				t.Exhaust.Slots, kernel.MaxFDs)
		}
		for j := range t.Conds {
			t.Conds[j].walk(func(c *Cond) {
				if c.XMLName.Local == condAfterFault && !named[c.Function] {
					warn(i, t.Function, "<after-fault function=%q> can never hold: no trigger targets %q", c.Function, c.Function)
				}
			})
		}
	}
	// One warning per blocking condition kind: snapshot sweeps cannot
	// share the pre-fault prefix of a plan whose first fire site is not
	// statically deterministic, and fall back to replaying the whole run
	// from the entry snapshot.
	memoWarned := make(map[string]bool)
	for i := range plan.Triggers {
		t := &plan.Triggers[i]
		if b := memoBlocker(t); b != "" && !memoWarned[b] {
			memoWarned[b] = true
			warn(i, t.Function, "%s condition makes the plan non-memoizable: snapshot sweeps fall back to the entry snapshot", b)
		}
	}
	return warns
}
