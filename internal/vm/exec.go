// Block-compiled execution engine.
//
// The legacy interpreter (step, the EngineStep reference) pays a fixed
// per-instruction tax: an image lookup, an index bounds check, a
// coverage bit-set and two cycle-counter increments for every single
// instruction executed. For a fault-injection campaign the guest-side
// work between two observable events — a host call, a syscall, a branch
// — is pure straight-line interpretation, so the tax dominates exactly
// where throughput matters (ZOFI's coverage-per-hour argument).
//
// EngineBlock removes the tax by compiling each image's decoded text
// into superblocks once, at load time (compileExec, invoked from
// relocate, which makes the result part of the immutable image shared
// by every snapshot restore). Block leaders come from
// cfg.StreamLeaders — the profiler's §3.1 leader analysis applied to
// the whole relocated stream — and ends[i] gives, for *every*
// instruction index, the end of the straight-line run beginning there,
// so control may enter a block anywhere (computed jumps, corrupted
// return addresses, syscall resume) and still find a valid run.
//
// Per dispatched run the engine resolves the image once, bounds-checks
// once, and executes the run with no per-instruction bookkeeping.
// Superblock chaining extends the amortisation across runs: each direct
// branch carries a compile-time link to its in-image target (execCode
// chain), and the dispatch loop follows links — and straight-line
// fall-through — without leaving execBlock. Calls, returns, computed
// jumps and completed syscalls keep the loop going too, whenever their
// run-time target is inside the same image (stay), so a guest spinning
// through in-image calls and syscalls pays the image resolution once
// per time slice instead of once per block;
// cycles (Proc.Cycles, System.TotalCycles) and coverage are folded in
// at run exit — before any control transfer, so a host function, a
// syscall or the scheduler observes exactly the counters the reference
// interpreter would produce. Runs are also split at the time-slice
// boundary, keeping round-robin scheduling, budget checks and ErrIdle/
// ErrDeadlock detection decision-for-decision identical to EngineStep;
// the lockstep differential test (exec_test.go) enforces the contract
// instruction-slice by instruction-slice. Block starts also serve
// RunStops: every path to a block start, function-symbol entries
// included, enters the dispatch loop there, so checking the stop set at
// each dispatch sees every arrival the step engine's per-instruction
// check sees (break_parity_test.go).
package vm

import (
	"encoding/binary"

	"lfi/internal/cfg"
	"lfi/internal/isa"
)

// regMask re-proves to the compiler what isa.Decode already enforces
// (register operands < NumRegs), making every register-file access in
// the dispatch loop bounds-check-free. That identity only holds while
// NumRegs is a power of two; the constant below fails to compile (a
// negative value cannot convert to uint8) if a register is ever added
// without rounding the file up, instead of silently aliasing registers
// in this engine only.
const regMask = isa.NumRegs - 1

const _ = uint8(-(isa.NumRegs & (isa.NumRegs - 1))) // NumRegs must be a power of two

// execCode is the block-compiled form of one image's text. It is
// derived purely from the immutable post-relocation instruction stream,
// never written after compileExec returns, and therefore shared by
// pointer across snapshot restores and coverage image copies.
type execCode struct {
	// ends[i] is the exclusive end, in instruction indexes, of the
	// superblock run starting at instruction i: every instruction in
	// [i, ends[i]-1) is straight-line, and ends[i]-1 is either a
	// control transfer (isa.Op.Transfers), the instruction before the
	// next block leader, or the last instruction of the image.
	ends []int32
	// blocks counts distinct leaders — the block-granular unit coverage
	// and accounting are batched over (exposed for tests and stats).
	blocks int
	// chain[i] is the block-to-block successor of a direct branch at i:
	// the instruction index of its (taken) target when that target is an
	// aligned address inside this image's text, -1 otherwise. The
	// dispatch loop follows chain links — and straight-line fall-through
	// — without re-resolving the owning image or re-checking bounds, so
	// loop-heavy guests stay inside one dispatch call for a whole time
	// slice.
	//
	// The table needs no runtime invalidation because it is structural:
	// like ends it is derived from the immutable post-relocation
	// instruction stream, so snapshot restores share it safely, and
	// chaining never crosses the slice boundary (the ran/max budget
	// below). Transfers whose target is only known at run time — calls,
	// returns, computed jumps (the DlNext tail jump among them) and
	// syscall resumes — are not in the table: stay range-checks each
	// against the current image as it happens.
	chain []int32
}

// compileExec builds the superblock table for a relocated image.
func compileExec(im *Image) *execCode {
	insts := im.Insts
	// local maps a branch/call immediate to an instruction index iff it
	// is an aligned virtual address inside this image's text after
	// relocation (cross-module calls and host addresses are not).
	local := func(imm int32) (int, bool) {
		if uint32(imm) < im.TextBase {
			return 0, false
		}
		off := uint32(imm) - im.TextBase
		if off%isa.Size != 0 {
			return 0, false
		}
		idx := int(off / isa.Size)
		if idx >= len(insts) {
			return 0, false
		}
		return idx, true
	}
	leaders := cfg.StreamLeaders(insts, local)
	// Every function-symbol entry starts a block, so a RunStops stop on
	// a function sees each arrival at a block entry.
	for _, fs := range im.funcsVA {
		if i, ok := local(int32(fs.va)); ok {
			leaders[i] = true
		}
	}
	ec := &execCode{
		ends:  make([]int32, len(insts)),
		chain: make([]int32, len(insts)),
	}
	for i := len(insts) - 1; i >= 0; i-- {
		if insts[i].Op.Transfers() || i+1 == len(insts) || leaders[i+1] {
			ec.ends[i] = int32(i + 1)
		} else {
			ec.ends[i] = ec.ends[i+1]
		}
		ec.chain[i] = -1
		switch insts[i].Op {
		case isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge:
			if t, ok := local(insts[i].Imm); ok {
				ec.chain[i] = int32(t)
			}
		}
	}
	for _, l := range leaders {
		if l {
			ec.blocks++
		}
	}
	return ec
}

// starts reports whether a block begins at instruction i: every path
// to i — a branch, a call or return, straight-line fall-through —
// enters the dispatch loop there.
func (ec *execCode) starts(i int) bool {
	return i == 0 || ec.ends[i-1] == int32(i)
}

// coverRange sets the coverage bits for instruction indexes [lo, hi]
// (inclusive) word-at-a-time — the block-granular expansion into the
// per-instruction CoverBits contract Image.Covered and package coverage
// rely on.
func coverRange(bits []uint64, lo, hi int) {
	loW, hiW := lo/64, hi/64
	loMask := ^uint64(0) << (lo % 64)
	hiMask := ^uint64(0) >> (63 - hi%64)
	if loW == hiW {
		bits[loW] |= loMask & hiMask
		return
	}
	bits[loW] |= loMask
	for w := loW + 1; w < hiW; w++ {
		bits[w] = ^uint64(0)
	}
	bits[hiW] |= hiMask
}

// chargeRun folds a finished run's batched accounting — instructions
// [start, last], inclusive — into the cycle counters and coverage bits.
// It runs before any control transfer out of the block, so everything
// that can observe the counters (host functions, syscalls, the budget
// check between slices, <cycles> triggers) sees the same values the
// reference interpreter accumulates one instruction at a time.
func (p *Proc) chargeRun(im *Image, start, last int) {
	n := uint64(last - start + 1)
	p.Cycles += n
	p.Sys.TotalCycles += n
	if im.CoverBits != nil {
		coverRange(im.CoverBits, start, last)
	}
}

// blockFault is the shared cold-path epilogue for an instruction that
// faults mid-block: fold the batched accounting for the run up to and
// including the faulting instruction, park PC on it (the step engine's
// resting state), and kill. Every faulting arm of execBlock must go
// through here — the charge/park/kill sequence is part of the
// step-equivalence contract the lockstep oracle enforces.
func (p *Proc) blockFault(im *Image, idx, k int, sig int32) {
	p.chargeRun(im, idx, idx+k)
	p.PC = im.TextBase + uint32(idx+k)*isa.Size
	p.kill(sig)
}

// stepOnce delegates one instruction to the reference interpreter —
// the slow path for states the block cache does not cover (a
// misaligned PC from a corrupted return address or computed jump).
func (p *Proc) stepOnce() (int, bool) {
	if p.step() {
		return 1, true
	}
	return 0, false
}

// breakEntry handles a block entry at an armed stop: count the
// arrival, and stop there (cont=false) if it is the target one.
// Otherwise the instruction at the stop runs on the reference
// interpreter and the arrival flag clears once the PC moves on, exactly
// as the step engine's per-instruction check would leave it.
func (p *Proc) breakEntry(im *Image, idx, ran int) (int, bool) {
	va := im.TextBase + uint32(idx)*isa.Size
	p.PC = va
	if p.atBreak() {
		return ran, false
	}
	m, cont := p.stepOnce()
	if p.PC != va {
		p.parked = 0
	}
	return ran + m, cont
}

// transfer executes the call, computed jump, return or syscall at
// instruction i of im, whose run execBlock has already charged. PC is
// parked on i first — the step engine's resting state for a call whose
// push faults, a blocked syscall and an exiting one — and the transfer
// moves it to its target. It reports false when the syscall blocked.
func (p *Proc) transfer(im *Image, i int, in isa.Inst) bool {
	p.PC = im.TextBase + uint32(i)*isa.Size
	switch in.Op {
	case isa.OpCall:
		p.doCall(uint32(in.Imm), p.PC+isa.Size, im.callLabel(i))
	case isa.OpCallR:
		p.doCall(p.Regs[in.A&regMask], p.PC+isa.Size, nil)
	case isa.OpJmpI:
		p.PC = p.Regs[in.A&regMask]
	case isa.OpRet:
		v, err := p.ReadWord(p.Regs[isa.SP])
		if err != nil {
			p.kill(SigSEGV)
			return true
		}
		p.Regs[isa.SP] += 4
		p.PC = uint32(v)
		if len(p.CallStack) > 0 {
			p.CallStack = p.CallStack[:len(p.CallStack)-1]
		}
	case isa.OpSyscall:
		return p.doSyscall(p.PC + isa.Size)
	}
	return true
}

// stay returns the instruction index at which the dispatch loop
// continues after a control transfer resolved at run time — a call
// (host calls included), a return, a computed jump or a completed
// syscall — or -1 when execBlock must return instead. The loop
// continues when the process is still running, the slice budget allows
// (ran < max) and p.PC is an aligned address inside im's text; it
// re-enters at the top of dispatch, which runs the stop-set check and
// the budget split exactly as a fresh execBlock call would. Anywhere
// else the next execBlock call resolves the PC from scratch.
func (p *Proc) stay(im *Image, ran, max int) int {
	off := p.PC - im.TextBase
	if ran >= max || p.Exited || off%isa.Size != 0 || int(off/isa.Size) >= len(im.Insts) {
		return -1
	}
	return int(off / isa.Size)
}

// runSliceBlocks executes up to n instructions by dispatching whole
// superblock runs; returns how many ran. Runs never cross the slice
// boundary: a block longer than the slice remainder is split and the
// process resumes mid-block next slice (ends[] is indexed per
// instruction, so any split point is a valid entry).
func (p *Proc) runSliceBlocks(n int) int {
	ran := 0
	if p.spin.pr != nil {
		p.spin.pr.slices++
	}
	for ran < n && !p.Exited {
		var m int
		var cont bool
		if p.spin.pr == nil {
			m, cont = p.execBlock(n - ran)
		} else {
			m, cont = p.proveSpin(n - ran)
		}
		ran += m
		if !cont {
			break // blocked in a syscall or at a stop: yield the slice
		}
	}
	return ran
}

// execBlock executes up to max instructions by dispatching superblock
// runs and following chain links between them. It returns how many
// instructions advanced and whether the process can keep running this
// slice (false = blocked in a syscall, or stopped at a RunStops
// target arrival; PC unchanged either way). Every path
// through here is behaviourally identical to iterating step(): same
// kills, same cycle counts, same coverage, same PC at every observable
// boundary.
func (p *Proc) execBlock(max int) (int, bool) {
	if p.PC == exitSentinel {
		p.exit(int32(p.Regs[isa.R0]))
		return 1, true
	}
	im := p.imageAt(p.PC)
	if im == nil {
		if p.Sys.stop.armed && p.atBreak() {
			return 0, false
		}
		p.kill(SigSEGV)
		return 1, true
	}
	off := p.PC - im.TextBase
	if off%isa.Size != 0 || im.exec == nil {
		return p.stepOnce()
	}
	idx := int(off) / isa.Size
	insts := im.Insts
	if idx >= len(insts) {
		p.kill(SigSEGV)
		return 1, true
	}
	// The image, its instruction stream and its block table are resolved
	// once, here. The dispatch loop re-enters at chain targets and
	// fall-through successors — compile-time-validated indexes into this
	// same image — without repeating that work. p.PC is materialised
	// only when control leaves the loop; every exit arm sets it first.
	ec := im.exec
	regs := &p.Regs
	// [stopLo, stopLo+stopSpan] holds the armed stops in this image;
	// stopLo is -1 when RunStops is not running or they all lie
	// elsewhere, so unbroken runs pay one compare per dispatched block.
	stopLo, stopSpan := -1, uint(0)
	if p.Sys.stop.armed {
		stopLo, stopSpan = p.Sys.stop.rangeIn(im)
	}
	ran := 0
dispatch:
	for {
		if uint(idx-stopLo) <= stopSpan && p.Sys.stop.find(im.TextBase+uint32(idx)*isa.Size) >= 0 {
			return p.breakEntry(im, idx, ran)
		}
		end := int(ec.ends[idx])
		if lim := idx + (max - ran); lim < end {
			end = lim
		}
		blk := insts[idx:end]
		for k := 0; k < len(blk); k++ {
			in := blk[k]
			switch in.Op {
			case isa.OpNop:

			case isa.OpMovRI:
				regs[in.A&regMask] = uint32(in.Imm)
			case isa.OpMovRR:
				regs[in.A&regMask] = regs[in.B&regMask]
			case isa.OpLoad:
				// Memory ops check the segment windows inline — the method
				// fast paths are not inlinable, and a call per load would
				// give back most of the dispatch win on spill-heavy code.
				addr := regs[in.B&regMask] + uint32(in.Imm)
				if off := addr - p.rdc.base; uint64(off)+4 <= uint64(len(p.rdc.data)) {
					regs[in.A&regMask] = binary.LittleEndian.Uint32(p.rdc.data[off:])
				} else if off := addr - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
					regs[in.A&regMask] = binary.LittleEndian.Uint32(p.wrc.data[off:])
				} else if v, err := p.readWordSlow(addr); err == nil {
					regs[in.A&regMask] = uint32(v)
				} else {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
			case isa.OpLoadB:
				addr := regs[in.B&regMask] + uint32(in.Imm)
				if off := addr - p.rdc.base; uint64(off) < uint64(len(p.rdc.data)) {
					regs[in.A&regMask] = uint32(p.rdc.data[off])
				} else if off := addr - p.wrc.base; uint64(off) < uint64(len(p.wrc.data)) {
					regs[in.A&regMask] = uint32(p.wrc.data[off])
				} else if v, err := p.ReadByteAt(addr); err == nil {
					regs[in.A&regMask] = uint32(v)
				} else {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
			case isa.OpStoreR:
				addr := regs[in.A&regMask] + uint32(in.Imm)
				if off := addr - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
					binary.LittleEndian.PutUint32(p.wrc.data[off:], regs[in.B&regMask])
				} else if err := p.writeWordSlow(addr, int32(regs[in.B&regMask])); err != nil {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
			case isa.OpStoreB:
				addr := regs[in.A&regMask] + uint32(in.Imm)
				if off := addr - p.wrc.base; uint64(off) < uint64(len(p.wrc.data)) {
					p.wrc.data[off] = byte(regs[in.B&regMask])
				} else if err := p.WriteByteAt(addr, byte(regs[in.B&regMask])); err != nil {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
			case isa.OpStoreI:
				addr := regs[in.A&regMask] + uint32(in.StoreIDisp())
				if off := addr - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
					binary.LittleEndian.PutUint32(p.wrc.data[off:], uint32(in.Imm))
				} else if err := p.writeWordSlow(addr, in.Imm); err != nil {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
			case isa.OpPushR:
				regs[isa.SP] -= 4
				if off := regs[isa.SP] - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
					binary.LittleEndian.PutUint32(p.wrc.data[off:], regs[in.A&regMask])
				} else if err := p.writeWordSlow(regs[isa.SP], int32(regs[in.A&regMask])); err != nil {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
			case isa.OpPushI:
				regs[isa.SP] -= 4
				if off := regs[isa.SP] - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
					binary.LittleEndian.PutUint32(p.wrc.data[off:], uint32(in.Imm))
				} else if err := p.writeWordSlow(regs[isa.SP], in.Imm); err != nil {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
			case isa.OpPopR:
				// Order matters when the destination is SP itself ("pop
				// sp"): the reference interpreter bumps SP and then assigns
				// the popped value, so the assignment must come last here
				// too or the two engines diverge on that guest.
				if off := regs[isa.SP] - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
					v := binary.LittleEndian.Uint32(p.wrc.data[off:])
					regs[isa.SP] += 4
					regs[in.A&regMask] = v
				} else if v, err := p.ReadWord(regs[isa.SP]); err == nil {
					regs[isa.SP] += 4
					regs[in.A&regMask] = uint32(v)
				} else {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}

			case isa.OpAddRI:
				regs[in.A&regMask] += uint32(in.Imm)
			case isa.OpAddRR:
				regs[in.A&regMask] += regs[in.B&regMask]
			case isa.OpSubRI:
				regs[in.A&regMask] -= uint32(in.Imm)
			case isa.OpSubRR:
				regs[in.A&regMask] -= regs[in.B&regMask]
			case isa.OpMulRR:
				regs[in.A&regMask] = uint32(int32(regs[in.A&regMask]) * int32(regs[in.B&regMask]))
			case isa.OpDivRR:
				if regs[in.B&regMask] == 0 {
					p.blockFault(im, idx, k, SigFPE)
					return ran + k + 1, true
				}
				regs[in.A&regMask] = uint32(int32(regs[in.A&regMask]) / int32(regs[in.B&regMask]))
			case isa.OpModRR:
				if regs[in.B&regMask] == 0 {
					p.blockFault(im, idx, k, SigFPE)
					return ran + k + 1, true
				}
				regs[in.A&regMask] = uint32(int32(regs[in.A&regMask]) % int32(regs[in.B&regMask]))
			case isa.OpAndRI:
				regs[in.A&regMask] &= uint32(in.Imm)
			case isa.OpAndRR:
				regs[in.A&regMask] &= regs[in.B&regMask]
			case isa.OpOrRI:
				regs[in.A&regMask] |= uint32(in.Imm)
			case isa.OpOrRR:
				regs[in.A&regMask] |= regs[in.B&regMask]
			case isa.OpXorRI:
				regs[in.A&regMask] ^= uint32(in.Imm)
			case isa.OpXorRR:
				regs[in.A&regMask] ^= regs[in.B&regMask]
			case isa.OpShlRI:
				regs[in.A&regMask] <<= uint32(in.Imm) & 31
			case isa.OpShrRI:
				regs[in.A&regMask] >>= uint32(in.Imm) & 31
			case isa.OpNeg:
				regs[in.A&regMask] = uint32(-int32(regs[in.A&regMask]))
			case isa.OpNot:
				regs[in.A&regMask] = ^regs[in.A&regMask]

			case isa.OpCmpRI:
				a := int32(regs[in.A&regMask])
				p.flagEQ = a == in.Imm
				p.flagLT = a < in.Imm
			case isa.OpCmpRR:
				a, b := int32(regs[in.A&regMask]), int32(regs[in.B&regMask])
				p.flagEQ = a == b
				p.flagLT = a < b

			case isa.OpJmp:
				// Direct branches chain: a compile-time-validated local
				// target re-enters the dispatch loop without an image
				// lookup, as long as the slice budget allows. Non-local
				// (cross-image or wild) targets exit and re-resolve.
				p.chargeRun(im, idx, idx+k)
				ran += k + 1
				if t := ec.chain[idx+k]; t >= 0 && ran < max {
					idx = int(t)
					continue dispatch
				}
				p.PC = uint32(in.Imm)
				return ran, true
			case isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJle, isa.OpJg, isa.OpJge:
				p.chargeRun(im, idx, idx+k)
				ran += k + 1
				var taken bool
				switch in.Op {
				case isa.OpJe:
					taken = p.flagEQ
				case isa.OpJne:
					taken = !p.flagEQ
				case isa.OpJl:
					taken = p.flagLT
				case isa.OpJle:
					taken = p.flagLT || p.flagEQ
				case isa.OpJg:
					taken = !p.flagLT && !p.flagEQ
				case isa.OpJge:
					taken = !p.flagLT
				}
				if taken {
					if t := ec.chain[idx+k]; t >= 0 && ran < max {
						idx = int(t)
						continue dispatch
					}
					p.PC = uint32(in.Imm)
					return ran, true
				}
				// Not taken: chain to the fall-through successor, unless
				// it lies outside the text — then park PC there and let
				// the next dispatch fault exactly like the step engine.
				if next := idx + k + 1; ran < max && next < len(insts) {
					idx = next
					continue dispatch
				}
				p.PC = im.TextBase + uint32(idx+k+1)*isa.Size
				return ran, true

			case isa.OpCall, isa.OpCallR, isa.OpJmpI, isa.OpRet:
				// A transfer resolved at run time: fold the run, let
				// transfer set p.PC, and stay in the loop when the target
				// is in this image.
				p.chargeRun(im, idx, idx+k)
				p.transfer(im, idx+k, in)
				ran += k + 1
				if idx = p.stay(im, ran, max); idx >= 0 {
					continue dispatch
				}
				return ran, true
			case isa.OpSyscall:
				// As above, but a blocked syscall yields the slice with PC
				// parked on it: each attempt costs a cycle, as on the step
				// engine, but no step of the slice. A failing syscall that
				// opened a spin proof leaves the loop: the proof watches
				// the period from here (spin.go).
				p.chargeRun(im, idx, idx+k)
				if !p.transfer(im, idx+k, in) {
					return ran + k, false
				}
				ran += k + 1
				if idx = p.stay(im, ran, max); idx >= 0 && p.spin.pr == nil {
					continue dispatch
				}
				return ran, true

			case isa.OpHalt:
				p.chargeRun(im, idx, idx+k)
				p.PC = im.TextBase + uint32(idx+k)*isa.Size
				p.exit(int32(regs[isa.R0]))
				return ran + k + 1, true

			case isa.OpLea:
				regs[in.A&regMask] = uint32(in.Imm)
			case isa.OpTLSBase:
				regs[in.A&regMask] = im.TLSBase
			case isa.OpDlNext:
				// Image.dlnext bounds-checks the crafted import index, so
				// a bad one faults the guest (mirrors step()'s arm).
				va, ok := im.dlnext(in.Imm)
				if !ok {
					p.blockFault(im, idx, k, SigSEGV)
					return ran + k + 1, true
				}
				regs[in.A&regMask] = va

			default:
				p.blockFault(im, idx, k, SigSEGV)
				return ran + k + 1, true
			}
		}
		// Straight-line fall-off: the run ended at a block leader, the
		// slice boundary, or the last instruction of the image. Fold the
		// batch and chain into the successor block if the budget allows
		// and the successor is still inside the text; otherwise park PC
		// at the next instruction (possibly outside the text — the next
		// dispatch then faults exactly like the step engine).
		p.chargeRun(im, idx, end-1)
		ran += end - idx
		if ran < max && end < len(insts) {
			idx = end
			continue dispatch
		}
		p.PC = im.TextBase + uint32(end)*isa.Size
		return ran, true
	}
}
