// Spin fast-forward: the block engine skips whole periods of a
// provable spin exactly.
//
// A guest that retries a failing call forever — a server whose accept
// fails with EMFILE under fd pressure while its client waits for a
// reply — runs until the cycle budget stops it, and the verdict
// (wedged) is fixed long before that. Only monotone counters still
// move: the cycle counters, the interceptor stubs' call counters and
// the trigger evaluators' call counts. ZOFI spends simulator time only
// on the part of a run the fault can still change; here the engine
// proves the spin, computes where those counters stand k periods later
// and jumps there, then runs the tail normally so the budget stops the
// run on the same instruction and cycle as an unaccelerated run.
//
// Detection costs nothing on the hot path. A syscall that fails at the
// same PC, with the same stack pointer, number and result as the
// process's previous failing syscall opens a proof; nothing else is
// watched. The proof then runs one period — up to the next failing
// syscall at that PC — on the reference interpreter with a watch on
// every instruction (observe), and closes when all of this holds:
//
//   - every other live process was blocked at the start and still is,
//     having spent only its one-cycle retry per scheduler round;
//   - the process is back at the same PC with the same call stack and
//     flags, and every register it read before writing holds the value
//     it held at the start;
//   - the kernel state equals its snapshot from the start (a blocked
//     peer cannot wake: the kernel has no clock);
//   - every guest byte the period wrote holds its value from the start,
//     except the call counters of the interception code a called host
//     function vouches for (HostSpin.Counter: the stubs' __cnt_ words),
//     and copies of them. A counter must advance by a constant: the
//     period loads it, adds constants and stores it back. Its value, in
//     memory or in a register (a stub leaves its counter in r2), must
//     not reach a compare, an address, a syscall or host argument, or
//     any operation but adding a constant, so it cannot steer the
//     period;
//   - each host function the period called proves that its next calls
//     repeat exactly (HostSpin).
//
// A time slice counts instructions, and the scheduler checks the budget
// after every slice, so the jump keeps the slice phase: it skips whole
// multiples of lcm(TimeSlice, period) instructions, which brings the
// process back to the same offset in its slice and the system back to
// the same point of the same round. k such super-periods are skipped,
// the largest k that keeps TotalCycles below the budget (so no skipped
// slice end would have stopped the run) and within the hosts' proofs.
// The engine then adds k times each counter's per-super-period delta:
// the process's cycles, every blocked peer's one cycle per round,
// TotalCycles, the advancing words and registers, and the hosts'
// counts (HostSpin.Advance).
//
// Only Run-style schedule calls with a budget jump; RunUntil (whose
// condition may read anything) and RunStops (whose arrival counts a
// jump would skip) never do, and the step engine never does: it stays
// the unaccelerated reference the lockstep and sweep determinism tests
// judge the jump against.
package vm

import (
	"math"
	"slices"

	"lfi/internal/isa"
	"lfi/internal/kernel"
)

// HostSpin is a host function's half of a spin proof. A period of a
// spin may call host functions; the block engine jumps over it only if
// every host function it called can prove that its calls during the
// next periods repeat those of the observed one exactly: the same
// return values and cycle charges, no guest memory writes, and results
// that depend on nothing but the calls' stack arguments, the calling
// process's identity and call stack, and the host's own state. Cycle
// counters advance across periods, so a host whose decisions read them
// cannot prove a repeat.
type HostSpin interface {
	// Mark records the host's state for process p before the first
	// call of an observed period.
	Mark(p *Proc)
	// Repeats reports how many more periods, each making the calls p
	// made since Mark, the host can prove to repeat exactly; 0 when it
	// cannot prove one.
	Repeats(p *Proc) uint64
	// Advance moves the host's state for p forward by n periods, as if
	// they had run.
	Advance(p *Proc, n uint64)
	// Counter reports whether the word at addr in p is a call counter
	// of the host's own interception code: a word only that code reads,
	// which it advances by a constant per call. Such words are the only
	// guest memory a spin may change.
	Counter(p *Proc, addr uint32) bool
}

// host is one host-function slot: the function, and its spin prover
// (nil when it has none, which rules out every spin that calls it).
type host struct {
	fn   HostFunc
	spin HostSpin
}

// maxSpinPeriod bounds a proof's period, in instructions: a loop that
// does not return to its failing syscall within it is not proved.
const maxSpinPeriod = 1 << 14

// maxSpinBackoff caps the exponent of the backoff after failed proofs.
const maxSpinBackoff = 16

// spinState is one process's spin detector.
type spinState struct {
	// The last failing syscall: its PC, stack pointer, number, result.
	seen     bool
	pc, sp   uint32
	num, ret int32
	// skip is how many more matching failures to ignore after failed
	// proofs (fails of them, so far), backing off exponentially.
	skip, fails int
	// hold is the spin limit under which a proof already held: one more
	// period cannot fit under that budget, so none is opened.
	hold uint64
	// pr is the open proof, nil when none is.
	pr *spinProof
}

// spinProof is one period under observation, from the failing syscall
// at pc to its next failure there.
type spinProof struct {
	pc uint32
	// The process's state at the start.
	regs           [isa.NumRegs]uint32
	flagEQ, flagLT bool
	stack          []Frame
	cycles, total  uint64
	peers          []spinPeer
	kern           *kernel.Snapshot
	// slices counts the time slices the process began since the start
	// (each is one scheduler round: every peer retried once); insts
	// counts its instructions.
	slices, insts int
	// closed is set when the period's closing syscall has executed.
	closed bool

	// Value tracking. A tag names the source word a value advances
	// with, if any: tags[r] for each register, cells for words stored
	// with a tagged value.
	tags          [isa.NumRegs]tag
	wrote, readIn uint16 // registers written, registers read before written
	srcs          []spinSrc
	srcAt         map[uint32]int32 // word address -> source index + 1
	old           map[uint32]byte  // each written byte's value at the start
	cells         map[uint32]tag
	pins          []uint32 // bytes read before written, outside any source
	hosts         []int    // host slots called
}

// tag is a value equal to its source word's value at the start of the
// period plus off, or a value that is the same in every period (src 0).
type tag struct {
	src int32 // index into spinProof.srcs plus one; 0 = none
	off uint32
}

// spinSrc is a word the period read before writing it. It varies when
// its value at the end of the period differs from val, its value at the
// start; used marks a read of the value other than adding constants.
type spinSrc struct {
	addr, val uint32
	used      bool
}

// spinPeer is another live process, blocked at pc when the proof opened.
type spinPeer struct {
	p      *Proc
	pc     uint32
	cycles uint64
}

// SkippedCycles returns the cycles of TotalCycles that spin
// fast-forwards skipped instead of executing (see spin.go); it is 0 on
// the step engine.
func (s *System) SkippedCycles() uint64 { return s.skipped }

// spinBudget arms spin fast-forward for one schedule call and returns
// the function that disarms it: only a block-engine Run with a budget
// and no stop set jumps, up to the absolute TotalCycles limit start +
// budget.
func (s *System) spinBudget(cond func() bool, start, budget uint64) func() {
	if cond != nil || budget == 0 || s.stop.armed || s.opts.Engine == EngineStep {
		return nil
	}
	s.spinLimit = start + budget
	if s.spinLimit < start {
		s.spinLimit = math.MaxUint64
	}
	return func() {
		s.spinLimit = 0
		for _, p := range s.procs {
			p.spin.pr = nil
		}
	}
}

// failedSyscall sees a syscall fail at p.PC-isa.Size (p has moved on).
// It closes the open proof when this is its syscall, and otherwise
// opens one when the failure repeats the previous one.
func (p *Proc) failedSyscall(num, ret int32) {
	sp := &p.spin
	pc := p.PC - isa.Size
	if sp.pr != nil {
		sp.pr.closed = sp.pr.closed || pc == sp.pr.pc
		return
	}
	repeat := sp.seen && sp.pc == pc && sp.sp == p.Regs[isa.SP] && sp.num == num && sp.ret == ret
	sp.seen, sp.pc, sp.sp, sp.num, sp.ret = true, pc, p.Regs[isa.SP], num, ret
	if !repeat || sp.hold == p.Sys.spinLimit {
		return
	}
	if sp.skip > 0 {
		sp.skip--
		return
	}
	sp.pr = p.openSpin(pc)
}

// openSpin starts a proof at the failing syscall at pc, or returns nil
// when another live process is not blocked.
func (p *Proc) openSpin(pc uint32) *spinProof {
	s := p.Sys
	pr := &spinProof{
		pc: pc, regs: p.Regs, flagEQ: p.flagEQ, flagLT: p.flagLT,
		stack: slices.Clone(p.CallStack), cycles: p.Cycles, total: s.TotalCycles,
	}
	for _, q := range s.procs {
		if q == p || q.Exited {
			continue
		}
		if !q.blocked {
			return nil
		}
		pr.peers = append(pr.peers, spinPeer{q, q.PC, q.Cycles})
	}
	pr.kern = s.kern.Snapshot()
	pr.srcAt = make(map[uint32]int32)
	pr.old = make(map[uint32]byte)
	pr.cells = make(map[uint32]tag)
	return pr
}

// proveSpin runs up to n instructions of the open proof's period on the
// reference interpreter, observing each, and closes the proof at its
// syscall. It returns like execBlock: instructions advanced, and false
// when the process blocked (which ends the proof).
func (p *Proc) proveSpin(n int) (int, bool) {
	pr := p.spin.pr
	ran := 0
	for ran < n && !p.Exited {
		if !pr.observe(p) {
			p.dropSpin()
			return ran, true
		}
		if !p.step() {
			p.dropSpin()
			return ran, false
		}
		ran++
		if pr.closed {
			p.closeSpin()
			return ran, true
		}
	}
	if p.Exited {
		p.dropSpin()
	}
	return ran, true
}

// dropSpin abandons the open proof and backs off: after f failed
// proofs the detector ignores the next 2^f repeats.
func (p *Proc) dropSpin() {
	sp := &p.spin
	sp.pr = nil
	sp.fails = min(sp.fails+1, maxSpinBackoff)
	sp.skip = 1 << sp.fails
}

// closeSpin checks the observed period and, if the spin is proved,
// jumps over as many whole super-periods as the budget and the hosts
// allow.
func (p *Proc) closeSpin() {
	pr, s := p.spin.pr, p.Sys
	vary, reps, ok := pr.holds(p)
	if !ok || reps == 0 {
		p.dropSpin()
		return
	}
	p.spin.pr, p.spin.fails, p.spin.hold = nil, 0, s.spinLimit

	// A super-period is lcm(slice, period) instructions: m periods of
	// the process, q scheduler rounds, dTotal cycles.
	period, slice := uint64(pr.insts), uint64(s.opts.TimeSlice)
	g := gcd(period, slice)
	m, q := slice/g, period/g
	cyc := p.Cycles - pr.cycles
	dTotal := m*cyc + q*uint64(len(pr.peers))
	if s.TotalCycles >= s.spinLimit {
		return
	}
	k := min((s.spinLimit-1-s.TotalCycles)/dTotal, reps/m)
	if k == 0 {
		return
	}
	n := k * m // periods skipped
	p.Cycles += n * cyc
	for _, pe := range pr.peers {
		pe.p.Cycles += k * q
	}
	s.TotalCycles += k * dTotal
	s.skipped += k * dTotal
	adv := func(t tag) uint32 { return uint32(n) * vary[t.src-1] }
	for r, t := range pr.tags {
		if t.src != 0 && vary[t.src-1] != 0 {
			p.Regs[r] += adv(t)
		}
	}
	for addr, t := range pr.cells {
		if t.src != 0 && vary[t.src-1] != 0 {
			v, _ := p.ReadWord(addr)
			_ = p.WriteWord(addr, v+int32(adv(t)))
		}
	}
	for _, h := range pr.hosts {
		s.hosts[h].spin.Advance(p, n)
	}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// holds checks the period that just closed against its start (see the
// package comment's list). It returns each source's per-period advance
// (0 for a source that does not vary) and how many more periods every
// host called can prove.
func (pr *spinProof) holds(p *Proc) (vary []uint32, reps uint64, ok bool) {
	if p.Exited || p.flagEQ != pr.flagEQ || p.flagLT != pr.flagLT || !slices.Equal(p.CallStack, pr.stack) {
		return nil, 0, false
	}
	for r := range pr.regs {
		if pr.readIn&(1<<r) != 0 && p.Regs[r] != pr.regs[r] {
			return nil, 0, false
		}
	}
	s := p.Sys
	for _, pe := range pr.peers {
		q := pe.p
		if q.Exited || !q.blocked || q.PC != pe.pc || q.Cycles != pe.cycles+uint64(pr.slices) {
			return nil, 0, false
		}
	}
	if s.TotalCycles-pr.total != p.Cycles-pr.cycles+uint64(pr.slices*len(pr.peers)) {
		return nil, 0, false
	}
	// A varying source must advance by a constant: its word ends the
	// period tagged with itself, and nothing but additions read it.
	vary = make([]uint32, len(pr.srcs))
	for i, src := range pr.srcs {
		v, err := p.ReadWord(src.addr)
		if err != nil {
			return nil, 0, false
		}
		if uint32(v) == src.val {
			continue
		}
		if src.used || pr.cells[src.addr] != (tag{int32(i + 1), uint32(v) - src.val}) || !pr.counter(p, src.addr) {
			return nil, 0, false
		}
		vary[i] = uint32(v) - src.val
	}
	for addr, b := range pr.old {
		if cur, _ := p.ReadByteAt(addr); cur != b && !pr.advances(addr, vary) {
			return nil, 0, false
		}
	}
	for _, addr := range pr.pins {
		if b, ok := pr.old[addr]; ok {
			if cur, _ := p.ReadByteAt(addr); cur != b {
				return nil, 0, false
			}
		}
	}
	if !pr.kern.Same(s.kern) {
		return nil, 0, false
	}
	reps = math.MaxUint64
	for _, h := range pr.hosts {
		reps = min(reps, s.hosts[h].spin.Repeats(p))
	}
	return vary, reps, true
}

// counter reports whether a host the period called owns the word at
// addr as a call counter.
func (pr *spinProof) counter(p *Proc, addr uint32) bool {
	for _, h := range pr.hosts {
		if p.Sys.hosts[h].spin.Counter(p, addr) {
			return true
		}
	}
	return false
}

// advances reports whether the byte at addr lies in a word stored with
// a value that advances with a varying source.
func (pr *spinProof) advances(addr uint32, vary []uint32) bool {
	for c := addr - 3; c != addr+1; c++ {
		if t, ok := pr.cells[c]; ok {
			return t.src != 0 && vary[t.src-1] != 0
		}
	}
	return false
}

// get returns register r's tag, noting a read before any write.
func (pr *spinProof) get(r int) tag {
	if pr.wrote&(1<<r) == 0 {
		pr.readIn |= 1 << r
	}
	return pr.tags[r]
}

func (pr *spinProof) set(r int, t tag) {
	pr.wrote |= 1 << r
	pr.tags[r] = t
}

// use notes a read of a tagged value other than adding a constant: it
// may steer the period, so its source must not vary.
func (pr *spinProof) use(t tag) {
	if t.src != 0 {
		pr.srcs[t.src-1].used = true
	}
}

// split uses and forgets every tagged word that an access to the n
// bytes at addr covers only in part.
func (pr *spinProof) split(addr uint32, n uint32) {
	for c := addr - 3; c != addr+n; c++ {
		if t, ok := pr.cells[c]; ok && (c != addr || n != 4) {
			pr.use(t)
			delete(pr.cells, c)
		}
	}
}

// written records the start value of the n bytes at addr before the
// period writes them.
func (pr *spinProof) written(p *Proc, addr uint32, n uint32) {
	for a := addr; a != addr+n; a++ {
		if _, ok := pr.old[a]; !ok {
			b, _ := p.ReadByteAt(a)
			pr.old[a] = b
		}
	}
}

// store tracks a store of n bytes at addr; a word store keeps the
// stored value's tag t.
func (pr *spinProof) store(p *Proc, addr, n uint32, t tag) {
	pr.written(p, addr, n)
	pr.split(addr, n)
	if t.src != 0 {
		pr.cells[addr] = t
	} else {
		delete(pr.cells, addr)
	}
}

// load returns the tag of the n bytes loaded from addr: the stored tag
// of a word written with one, a source for a word the period has not
// written yet, and no tag otherwise. The start values of bytes it reads
// outside a source are pinned: they must not change.
func (pr *spinProof) load(p *Proc, addr, n uint32) tag {
	if t, ok := pr.cells[addr]; ok && n == 4 {
		return t
	}
	pr.split(addr, n)
	fresh := n == 4
	for a := addr; a != addr+n; a++ {
		if _, ok := pr.old[a]; ok {
			fresh = false
		}
	}
	if !fresh {
		for a := addr; a != addr+n; a++ {
			if _, ok := pr.old[a]; !ok {
				pr.pins = append(pr.pins, a)
			}
		}
		return tag{}
	}
	i, ok := pr.srcAt[addr]
	if !ok {
		v, _ := p.ReadWord(addr)
		pr.srcs = append(pr.srcs, spinSrc{addr: addr, val: uint32(v)})
		i = int32(len(pr.srcs))
		pr.srcAt[addr] = i
	}
	return tag{src: i}
}

// syscallArgs reports how many argument registers (R1..R3) syscall num
// reads, and false for syscalls a proof does not follow: those that
// may read or write guest memory, spawn or reap processes, exit, or
// move the break.
func syscallArgs(num int32) (int, bool) {
	switch num {
	case kernel.SysGetpid, kernel.SysYield, kernel.SysSocket:
		return 0, true
	case kernel.SysClose, kernel.SysAccept:
		return 1, true
	case kernel.SysListen, kernel.SysConnect:
		return 2, true
	}
	return 0, false
}

// observe tracks the instruction at p.PC, before it executes, and
// reports false when the proof cannot follow it.
func (pr *spinProof) observe(p *Proc) bool {
	im := p.imageAt(p.PC)
	if im == nil || (p.PC-im.TextBase)%isa.Size != 0 {
		return false
	}
	idx := int(p.PC-im.TextBase) / isa.Size
	if idx >= len(im.Insts) {
		return false
	}
	if pr.insts++; pr.insts > maxSpinPeriod {
		return false
	}
	in := im.Insts[idx]
	a, b := int(in.A&regMask), int(in.B&regMask)
	regs := &p.Regs
	const sp = int(isa.SP)
	switch in.Op {
	case isa.OpNop, isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge:
	case isa.OpMovRI, isa.OpLea, isa.OpTLSBase, isa.OpDlNext:
		pr.set(a, tag{})
	case isa.OpMovRR:
		pr.set(a, pr.get(b))
	case isa.OpLoad:
		pr.use(pr.get(b))
		pr.set(a, pr.load(p, regs[b]+uint32(in.Imm), 4))
	case isa.OpLoadB:
		pr.use(pr.get(b))
		pr.load(p, regs[b]+uint32(in.Imm), 1)
		pr.set(a, tag{})
	case isa.OpStoreR:
		pr.use(pr.get(a))
		pr.store(p, regs[a]+uint32(in.Imm), 4, pr.get(b))
	case isa.OpStoreB:
		pr.use(pr.get(a))
		pr.use(pr.get(b))
		pr.store(p, regs[a]+uint32(in.Imm), 1, tag{})
	case isa.OpStoreI:
		pr.use(pr.get(a))
		pr.store(p, regs[a]+uint32(in.StoreIDisp()), 4, tag{})
	case isa.OpPushR, isa.OpPushI:
		pr.use(pr.get(sp))
		t := tag{}
		if in.Op == isa.OpPushR {
			t = pr.get(a)
		}
		pr.store(p, regs[sp]-4, 4, t)
		pr.set(sp, tag{})
	case isa.OpPopR:
		pr.use(pr.get(sp))
		t := pr.load(p, regs[sp], 4)
		pr.set(sp, tag{})
		pr.set(a, t)
	case isa.OpAddRI, isa.OpSubRI:
		t := pr.get(a)
		if in.Op == isa.OpAddRI {
			t.off += uint32(in.Imm)
		} else {
			t.off -= uint32(in.Imm)
		}
		pr.set(a, t)
	case isa.OpAddRR, isa.OpSubRR:
		ta, tb := pr.get(a), pr.get(b)
		switch {
		case tb.src == 0 && in.Op == isa.OpAddRR:
			ta.off += regs[b]
		case tb.src == 0:
			ta.off -= regs[b]
		case ta.src == 0 && in.Op == isa.OpAddRR:
			ta = tag{tb.src, tb.off + regs[a]}
		default:
			pr.use(ta)
			pr.use(tb)
			ta = tag{}
		}
		pr.set(a, ta)
	case isa.OpMulRR, isa.OpDivRR, isa.OpModRR, isa.OpAndRR, isa.OpOrRR, isa.OpXorRR:
		pr.use(pr.get(a))
		pr.use(pr.get(b))
		pr.set(a, tag{})
	case isa.OpAndRI, isa.OpOrRI, isa.OpXorRI, isa.OpShlRI, isa.OpShrRI, isa.OpNeg, isa.OpNot:
		pr.use(pr.get(a))
		pr.set(a, tag{})
	case isa.OpCmpRI:
		pr.use(pr.get(a))
	case isa.OpCmpRR:
		pr.use(pr.get(a))
		pr.use(pr.get(b))
	case isa.OpCall, isa.OpCallR:
		target := uint32(in.Imm)
		if in.Op == isa.OpCallR {
			pr.use(pr.get(a))
			target = regs[a]
		}
		pr.use(pr.get(sp))
		pr.store(p, regs[sp]-4, 4, tag{})
		pr.set(sp, tag{})
		if isHostTarget(target) {
			return pr.host(p, int(target-hostBase)/8, regs[sp]-4)
		}
	case isa.OpJmpI:
		pr.use(pr.get(a))
	case isa.OpRet:
		pr.use(pr.get(sp))
		pr.use(pr.load(p, regs[sp], 4))
		pr.set(sp, tag{})
	case isa.OpSyscall:
		n, ok := syscallArgs(int32(regs[isa.R0]))
		if !ok {
			return false
		}
		for r := 0; r <= n; r++ {
			pr.use(pr.get(r))
		}
		pr.set(int(isa.R0), tag{})
	default:
		return false // halts or faults: not a spin
	}
	return true
}

// host tracks a call to host slot h with the stack pointer at sp: the
// host must prove its calls (HostSpin), and may read its stack
// arguments, so every tagged word on the live stack counts as read.
func (pr *spinProof) host(p *Proc, h int, sp uint32) bool {
	if h < 0 || h >= len(p.Sys.hosts) || p.Sys.hosts[h].spin == nil {
		return false
	}
	if !slices.Contains(pr.hosts, h) {
		pr.hosts = append(pr.hosts, h)
		p.Sys.hosts[h].spin.Mark(p)
	}
	for addr, t := range pr.cells {
		if addr >= sp && addr < stackTop {
			pr.use(t)
		}
	}
	pr.set(int(isa.R0), tag{})
	return true
}
