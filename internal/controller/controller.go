// Package controller implements the LFI controller (DSN'09 §5): it
// combines fault profiles with a fault scenario, synthesises an
// interceptor library, drives the injection at run time, records an
// injection log and generates replay scripts.
//
// Following Figure 3, the stub generator (NewStubSet) emits one SIA-32
// interception stub per function of an interception surface, combines
// them with boilerplate (a call counter and the dlsym(RTLD_NEXT)-style
// tail jump), and the result is a real SLEF library that the VM loader
// preloads ahead of the original libraries — the LD_PRELOAD analogue.
// A controller (NewWithStubs) binds one compiled scenario to such a
// surface; stubs for functions the scenario does not name pass
// through. Each stub:
//
//  1. increments its static call counter (as in the paper's stub sketch);
//  2. calls the trigger evaluator with its function id;
//  3. if a fault is to be injected, loads the injected return value from
//     the controller mailbox and returns without calling the original;
//  4. otherwise restores the stack and tail-jumps (DlNext + JmpI) to the
//     next definition of its own symbol — the original library function.
//
// Trigger evaluation, side-effect application (errno stores) and argument
// modification run on the host — in the paper these are compiled C inside
// the synthesised library; here they are the Go half of the same
// controller, reached through the __lfi_eval host import.
package controller

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"lfi/internal/profile"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// StubLibName is the module name of the synthesised interceptor library.
const StubLibName = "liblfi.so"

// ErrNoTriggers reports a faultload that names no functions: there is
// nothing to synthesise a stub for. The campaign executor surfaces it
// for such an experiment in its plan-order position, whether the run
// restores the template or spawns it fresh.
var ErrNoTriggers = errors.New("scenario has no triggers")

// evalHostFunc is the host import every stub calls.
const evalHostFunc = "__lfi_eval"

// mailboxSym is the stub-library data word through which the host passes
// the injected return value to the stub.
const mailboxSym = "__lfi_ret"

// counterSym names the stub-library data word holding fn's static call
// count (§5.1), which fn's stub bumps on every intercepted call.
func counterSym(fn string) string { return "__cnt_" + fn }

// InjectionRecord is one line of the LFI log (§5.2): which injection
// happened, its side effects, and the triggering context.
type InjectionRecord struct {
	PID       int
	Function  string
	CallCount int32
	Retval    int32
	HasRetval bool
	Errno     int32
	HasErrno  bool
	// ErrnoFailed is set when the faultload asked for an errno store but
	// no errno symbol resolved (neither the intercepted function's owning
	// image nor the main executable exports one). The injection log then
	// says what really happened instead of silently claiming the full
	// faultload was applied.
	ErrnoFailed bool
	Modified    []scenario.Modify
	// ModifyFailed lists argument modifications whose target address
	// could not be read or written (e.g. an out-of-range argument index
	// reaching past the stack segment). They were requested by the
	// faultload but NOT applied; replay re-attempts them so the replayed
	// log fails identically.
	ModifyFailed []scenario.Modify
	CallOrig     bool
	Stack        []string
	Cycle        uint64
	// DelayCycles is injected latency charged at the call boundary
	// (the <delay> fault model); 0 when none.
	DelayCycles uint64
	// ExhaustResource names the resource-exhaustion degradation armed by
	// this injection (scenario.ResourceDisk or scenario.ResourceFDs);
	// empty when none. ExhaustAfter/ExhaustSlots carry the model's
	// parameter so replay re-arms the identical degradation.
	ExhaustResource string
	ExhaustAfter    int64
	ExhaustSlots    int32
}

// String renders the record as a log line.
func (r InjectionRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pid=%d cycle=%d fn=%s call=%d", r.PID, r.Cycle, r.Function, r.CallCount)
	if r.HasRetval {
		fmt.Fprintf(&b, " retval=%d", r.Retval)
	}
	if r.HasErrno {
		fmt.Fprintf(&b, " errno=%d", r.Errno)
	}
	if r.ErrnoFailed {
		b.WriteString(" errno-unresolved")
	}
	if r.DelayCycles > 0 {
		fmt.Fprintf(&b, " delay=%d", r.DelayCycles)
	}
	switch r.ExhaustResource {
	case scenario.ResourceDisk:
		fmt.Fprintf(&b, " exhaust=disk:after=%d", r.ExhaustAfter)
	case scenario.ResourceFDs:
		fmt.Fprintf(&b, " exhaust=fds:slots=%d", r.ExhaustSlots)
	}
	for _, m := range r.Modified {
		fmt.Fprintf(&b, " modify(arg%d %s %d)", m.Argument, m.Op, m.Value)
	}
	for _, m := range r.ModifyFailed {
		fmt.Fprintf(&b, " modify-failed(arg%d %s %d)", m.Argument, m.Op, m.Value)
	}
	if r.CallOrig {
		b.WriteString(" calloriginal")
	}
	if len(r.Stack) > 0 {
		fmt.Fprintf(&b, " stack=%s", strings.Join(r.Stack, "<-"))
	}
	return b.String()
}

// backtraceDepth is how many backtrace frames an injection record
// keeps, innermost first.
const backtraceDepth = 6

// Controller drives one fault-injection campaign.
type Controller struct {
	cp *scenario.CompiledPlan

	// fidToFunc names each stub's function by fid; fidIndex maps the fid
	// to 1 + the function's scenario.FuncIndex in the plan, or 0 when no
	// trigger names it. Both are resolved once, when the stubs are bound.
	fidToFunc []string
	fidIndex  []int32
	stubs     *StubSet
	evals     map[int]*scenario.Evaluator
	log       []InjectionRecord
	// frames is the backtrace buffer, reused across intercepted calls.
	frames []scenario.StackFrame
	// spin proves the evaluator's calls during a spin (vm.HostSpin).
	spin evalSpin
	// PassThrough forces every decision to call the original function
	// after trigger evaluation — used by the overhead experiments
	// (Tables 3 and 4), which must let the workload complete.
	PassThrough bool
}

// Log returns the injection records so far.
func (c *Controller) Log() []InjectionRecord { return append([]InjectionRecord(nil), c.log...) }

// GenerateStubSource emits the interceptor library's assembly: per-function
// stubs plus shared boilerplate, mirroring the paper's §5.1 stub shape.
func GenerateStubSource(fns []string) string {
	var b strings.Builder
	b.WriteString("; synthesised by the LFI controller — do not edit\n")
	b.WriteString(".lib " + StubLibName + "\n")
	b.WriteString(".extern " + evalHostFunc + "\n")
	b.WriteString(".global " + mailboxSym + "\n")
	b.WriteString(".dataw " + mailboxSym + " 0\n")
	sorted := append([]string(nil), fns...)
	sort.Strings(sorted)
	for fid, fn := range sorted {
		fmt.Fprintf(&b, ".global %s\n", fn)
		fmt.Fprintf(&b, ".dataw %s 0\n", counterSym(fn))
		fmt.Fprintf(&b, ".func %s\n", fn)
		// static call_count++ (kept in the stub itself, as in the paper).
		fmt.Fprintf(&b, "  lea r1, %s\n", counterSym(fn))
		b.WriteString("  load r2, [r1+0]\n")
		b.WriteString("  add r2, 1\n")
		b.WriteString("  store [r1+0], r2\n")
		// if (eval_trigger(fid)) { return mailbox; }
		fmt.Fprintf(&b, "  push %d\n", fid)
		fmt.Fprintf(&b, "  call %s\n", evalHostFunc)
		b.WriteString("  add sp, 4\n")
		b.WriteString("  cmp r0, 0\n")
		b.WriteString("  je .pass\n")
		fmt.Fprintf(&b, "  lea r1, %s\n", mailboxSym)
		b.WriteString("  load r0, [r1+0]\n")
		b.WriteString("  ret\n")
		// else: restore stack (already clean) and tail-jump to the
		// original — dlsym(RTLD_NEXT) + jmp.
		b.WriteString(".pass:\n")
		fmt.Fprintf(&b, "  dlnext r1, %s\n", fn)
		b.WriteString("  jmpi r1\n")
		b.WriteString(".endfunc\n")
	}
	return b.String()
}

// Install registers the stub library and the trigger-evaluation host
// function with the system. Spawn the target with the stub set's
// PreloadList() to enable interception.
func (c *Controller) Install(sys *vm.System) error {
	sys.Register(c.stubs.lib)
	c.spin.c = c
	sys.RegisterHostSpin(evalHostFunc, c.evalTrigger, &c.spin)
	return nil
}

// evalSpin is the trigger evaluator's half of the block engine's spin
// proofs (vm.HostSpin): the intercepted calls of a period repeat
// exactly when they injected nothing and every trigger on each
// function they called has spent itself (scenario.Evaluator.Repeats),
// since each later call then passes through with the same scan charge.
// Calls to functions no trigger names always repeat. The proof reads
// only the evaluators: a spent trigger consults neither the cycle
// clock nor the random stream.
type evalSpin struct {
	c   *Controller
	pid int
	// log and counts are the injection-log length and the process's
	// evaluator counts at Mark.
	log    int
	counts []int32
}

func (s *evalSpin) Mark(p *vm.Proc) {
	s.pid, s.log, s.counts = p.ID, len(s.c.log), s.counts[:0]
	if ev, ok := s.c.evals[p.ID]; ok {
		s.counts = ev.Counts(s.counts)
	}
}

func (s *evalSpin) Repeats(p *vm.Proc) uint64 {
	if p.ID != s.pid || len(s.c.log) != s.log {
		return 0
	}
	ev, ok := s.c.evals[p.ID]
	if !ok {
		return math.MaxUint64
	}
	return ev.Repeats(s.counts)
}

func (s *evalSpin) Advance(p *vm.Proc, n uint64) {
	if ev, ok := s.c.evals[p.ID]; ok {
		ev.Advance(s.counts, n)
	}
}

// Counter owns the stubs' __cnt_ words: each stub bumps its own, and
// nothing else reads them.
func (s *evalSpin) Counter(p *vm.Proc, addr uint32) bool {
	im, ok := p.ImageByName(StubLibName)
	return ok && s.c.stubs.counter(int32(addr-im.DataBase))
}

// evaluatorFor returns (creating on demand) the per-process evaluator;
// call counts and random streams are per process, like the static
// counters in a preloaded interceptor. All evaluators are thin mutable
// state over the one compiled plan.
func (c *Controller) evaluatorFor(pid int) *scenario.Evaluator {
	ev, ok := c.evals[pid]
	if !ok {
		ev = c.cp.NewEvaluator()
		ev.SetPID(pid)
		c.evals[pid] = ev
	}
	return ev
}

// Virtual cost of one intercepted call's trigger evaluation: a fixed
// dispatch charge plus a tight per-examined-trigger scan term — this is
// what the paper's Tables 3/4 measure.
const (
	evalDispatchCycles = 10
	evalScanCycles     = 2
)

// Resume primes the controller for a system restored from a
// pass-through run on the same stub surface, stopped where no process
// can yet have reached fn's first-fire site (scenario.FirstFireSite;
// every trigger of the plan names fn). The plan's run would have
// evaluated fn's triggers on each earlier call without firing, so each
// process's evaluator resumes at the count fn's stub counter holds in
// it, and each process is charged the trigger scans the pass-through
// stubs skipped: evalScanCycles per trigger on fn, per call, on its
// Cycles and the system's TotalCycles. Call it after Install and
// before the system runs.
func (c *Controller) Resume(sys *vm.System, fn string) {
	scan := uint64(evalScanCycles * c.cp.TriggerCount(fn))
	for _, p := range sys.Procs() {
		n := c.stubs.Count(p, fn)
		if n == 0 {
			continue
		}
		c.evaluatorFor(p.ID).SetState(scenario.EvalState{Count: map[string]int32{fn: n}})
		p.Cycles += scan * uint64(n)
		sys.TotalCycles += scan * uint64(n)
	}
}

// evalTrigger is the __lfi_eval host function: it evaluates the triggers
// for the intercepted call, applies side effects and argument
// modifications, logs the injection, and tells the stub whether to return
// the mailbox value (1) or pass through (0).
func (c *Controller) evalTrigger(hc *vm.HostCall) int32 {
	fid := int(hc.Arg(0))
	if fid < 0 || fid >= len(c.fidIndex) {
		return 0
	}
	fi := int(c.fidIndex[fid]) - 1
	if fi < 0 {
		// No trigger names this function: nothing is examined, so the
		// call costs the dispatch charge alone and passes through.
		hc.ChargeCycles(evalDispatchCycles)
		return 0
	}
	fn := c.fidToFunc[fid]
	ev := c.evaluatorFor(hc.Proc.ID)

	var frames []scenario.StackFrame
	if c.cp.ReadsStack(fi) {
		frames = c.backtrace(hc.Proc)
	}
	d := ev.OnCallIndex(fi, frames, hc.Proc.Cycles)
	// Scanned is the triggers examined for this function (the compiled
	// index never touches the rest of the plan).
	hc.ChargeCycles(uint64(evalDispatchCycles + evalScanCycles*d.Scanned))
	if !d.Inject {
		return 0
	}
	if frames == nil {
		frames = c.backtrace(hc.Proc)
	}

	rec := InjectionRecord{
		PID:       hc.Proc.ID,
		Function:  fn,
		CallCount: d.CallCount,
		Cycle:     hc.Proc.Cycles,
	}
	if d.DelayCycles > 0 {
		// Latency injection: charge the delay in virtual time at the
		// call boundary, before the original proceeds or the errno
		// return happens — cycle budgets, <cycles> windows and hang
		// classification all see it honestly.
		rec.DelayCycles = d.DelayCycles
		hc.ChargeCycles(d.DelayCycles)
	}
	if ex := d.Exhaust; ex != nil {
		// Resource exhaustion: arm the stateful degradation in the
		// kernel. From here on the kernel itself fails operations
		// (ENOSPC/EMFILE) — no further controller involvement.
		rec.ExhaustResource = ex.Resource
		kern := hc.Proc.Sys.Kernel()
		switch ex.Resource {
		case scenario.ResourceDisk:
			rec.ExhaustAfter = ex.After
			kern.ArmDiskQuota(ex.After)
		case scenario.ResourceFDs:
			rec.ExhaustSlots = ex.Slots
			kern.ArmFDPressure(hc.Proc.ID, ex.Slots)
		}
	}
	for _, f := range frames {
		rec.Stack = append(rec.Stack, FrameLabel(f.Symbol, f.Addr))
		if len(rec.Stack) >= backtraceDepth {
			break
		}
	}

	// Argument modifications: the intercepted function's original
	// arguments sit above the stub frame — arg i (1-based) lives at
	// ArgAddr(1+i) relative to this host call (retaddr, fid, stub
	// return address, then the arguments).
	for _, m := range d.Modify {
		addr := hc.ArgAddr(int(1 + m.Argument))
		old, err := hc.Proc.ReadWord(addr)
		if err != nil {
			rec.ModifyFailed = append(rec.ModifyFailed, m)
			continue
		}
		if err := hc.Proc.WriteWord(addr, m.Apply(old)); err != nil {
			rec.ModifyFailed = append(rec.ModifyFailed, m)
			continue
		}
		rec.Modified = append(rec.Modified, m)
	}

	// Side effects from the fault profile (TLS/global stores).
	for _, se := range d.SideEffects {
		c.applySideEffect(hc.Proc, se)
	}
	// Symbolic errno (errno="EBADF") without a profile side effect:
	// store into the errno of the image owning the intercepted function.
	if d.HasErrno {
		rec.HasErrno = true
		rec.Errno = d.Errno
		rec.ErrnoFailed = !c.applyErrno(hc.Proc, fn, d.Errno)
	}

	callOriginal := d.CallOriginal || c.PassThrough || !d.HasRetval
	rec.CallOrig = callOriginal
	rec.HasRetval = d.HasRetval && !callOriginal
	rec.Retval = d.Retval
	c.log = append(c.log, rec)

	if callOriginal {
		return 0
	}
	// Place the return value in the mailbox for the stub to load.
	if im, ok := hc.Proc.ImageByName(StubLibName); ok {
		if va, ok := im.SymbolVA(mailboxSym); ok {
			if err := hc.Proc.WriteWord(va, d.Retval); err == nil {
				return 1
			}
		}
	}
	return 0
}

// applySideEffect stores a profile side effect into the target process.
func (c *Controller) applySideEffect(p *vm.Proc, se profile.SideEffect) {
	switch se.Type {
	case profile.SideEffectTLS, profile.SideEffectGlobal:
		im, ok := p.ImageByName(se.Module)
		if !ok {
			return
		}
		base := im.TLSBase
		if se.Type == profile.SideEffectGlobal {
			base = im.DataBase
		}
		_ = p.WriteWord(base+uint32(se.Offset), se.Applied())
	case profile.SideEffectArgument:
		// Argument side effects require the argument pointer, applied in
		// evalTrigger via Modify; profiles drive retval/errno only.
	}
}

// applyErrno stores v into the errno owned by the image that defines
// the intercepted function fn, and reports whether a store happened.
//
// With several loaded libraries each exporting errno, "the first errno
// in image load order" — the old resolution — can be a different
// library's copy than the one the intercepted function's callers read,
// so the injected errno silently lands in dead storage. The owner is
// the first image after the interceptor in symbol search order that
// exports fn: exactly the definition the stub's dlnext tail-jump would
// reach, so the store hits the errno its library (and the code paths
// around the call) actually uses. When the owner exports no errno the
// main executable's errno is the fallback; when neither resolves the
// failure is recorded on the InjectionRecord (ErrnoFailed) rather than
// dropped.
func (c *Controller) applyErrno(p *vm.Proc, fn string, v int32) bool {
	if va, ok := errnoTarget(p, fn); ok {
		return p.WriteWord(va, v) == nil
	}
	return false
}

// errnoTarget resolves the errno word an injection into fn must store
// to: the owning image's errno, else the main executable's.
func errnoTarget(p *vm.Proc, fn string) (uint32, bool) {
	// Mirror dlsym(RTLD_NEXT) from the interceptor: the owner is the
	// first definition of fn past the stub library in search order.
	past := false
	for _, im := range p.Images {
		if im.File.Name == StubLibName {
			past = true
			continue
		}
		if !past {
			continue
		}
		if _, owns := im.SymbolVA(fn); !owns {
			continue
		}
		if va, ok := im.SymbolVA("errno"); ok {
			return va, true
		}
		break // owner found but it exports no errno: fall back
	}
	if len(p.Images) > 0 && p.Images[0].File.Name != StubLibName {
		if va, ok := p.Images[0].SymbolVA("errno"); ok {
			return va, true
		}
	}
	return 0, false
}

// backtrace converts the process shadow stack (innermost last) into
// scenario frames (innermost first), skipping nothing: the stub frame is
// the innermost, exactly like an LD_PRELOAD interceptor's. The frames
// live in the controller's reused buffer, valid until the next call.
func (c *Controller) backtrace(p *vm.Proc) []scenario.StackFrame {
	c.frames = c.frames[:0]
	for i := len(p.CallStack) - 1; i >= 0; i-- {
		f := p.CallStack[i]
		c.frames = append(c.frames, scenario.StackFrame{Addr: f.FuncVA, Symbol: f.Symbol})
	}
	return c.frames
}

// FrameLabel renders one backtrace frame for logs, triage stacks and
// stack hashing: the symbol name, or the hex address for stripped
// locals. Injection-record stacks and core's crash stacks both go
// through this renderer — StackHash mixes the two frame streams in one
// hash space, so a frame must label identically wherever it appears or
// the same failure site would split into distinct triage clusters.
func FrameLabel(symbol string, addr uint32) string {
	if symbol != "" {
		return symbol
	}
	return "0x" + strconv.FormatUint(uint64(addr), 16)
}

// StackHash digests a crash's identity for triage clustering: a stable
// 16-hex-digit hash over the dying process's backtrace frames. Two runs
// crash-alike iff they die with the same stack, regardless of which
// faultload drove them there — that is what lets a campaign store dedup
// hundreds of crashing experiments into a handful of distinct failure
// sites ranked by how many faultloads reach each. When no crash stack
// is available the innermost context recorded in the injection log (the
// last injection's backtrace) stands in, so injection-log-only records
// still cluster. Returns "" when there is nothing to hash.
func StackHash(crashStack []string, log []InjectionRecord) string {
	frames := crashStack
	if len(frames) == 0 {
		for i := len(log) - 1; i >= 0; i-- {
			if len(log[i].Stack) > 0 {
				frames = log[i].Stack
				break
			}
		}
	}
	if len(frames) == 0 {
		return ""
	}
	h := fnv.New64a()
	for _, f := range frames {
		h.Write([]byte(f))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// LogDigest digests the full injection log — every record's rendered
// line — into a stable 16-hex-digit value. Campaign stores persist it
// per experiment so a replayed run can be checked for log fidelity
// without storing the whole log. Returns "" for an empty log.
func LogDigest(log []InjectionRecord) string {
	if len(log) == 0 {
		return ""
	}
	h := fnv.New64a()
	for _, r := range log {
		h.Write([]byte(r.String()))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteLog writes the text injection log (§5.2).
func (c *Controller) WriteLog(w io.Writer) error {
	for _, r := range c.log {
		if _, err := fmt.Fprintln(w, r.String()); err != nil {
			return err
		}
	}
	return nil
}

// ReplayPlan generates a replay script (§5.2) from the injection log: a
// deterministic plan that re-fires each logged injection at the same call
// count. Replay is exact in the single-threaded VM; the
// paper notes native replay may diverge under nondeterminism.
func (c *Controller) ReplayPlan() *scenario.Plan {
	out := &scenario.Plan{}
	for _, r := range c.log {
		t := scenario.Trigger{
			Function:     r.Function,
			Inject:       r.CallCount,
			CallOriginal: r.CallOrig,
			Once:         true,
			Pid:          r.PID,
		}
		if r.HasRetval {
			t.Retval = strconv.Itoa(int(r.Retval))
		}
		if r.HasErrno {
			t.Errno = strconv.Itoa(int(r.Errno))
		}
		if r.DelayCycles > 0 {
			t.Delay = &scenario.Delay{Cycles: r.DelayCycles}
		}
		switch r.ExhaustResource {
		case scenario.ResourceDisk:
			t.Exhaust = &scenario.Exhaust{Resource: scenario.ResourceDisk, After: r.ExhaustAfter}
		case scenario.ResourceFDs:
			t.Exhaust = &scenario.Exhaust{Resource: scenario.ResourceFDs, Slots: r.ExhaustSlots}
		}
		t.Modify = append(t.Modify, r.Modified...)
		// Failed modifications are replayed too: their target addresses
		// are invalid again in the deterministic VM, so the replayed log
		// records the same ModifyFailed set instead of silently claiming
		// a cleaner faultload than the original run applied.
		t.Modify = append(t.Modify, r.ModifyFailed...)
		out.Triggers = append(out.Triggers, t)
	}
	return out
}
