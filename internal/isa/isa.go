// Package isa defines SIA-32, the synthetic 32-bit instruction set
// architecture used throughout the LFI reproduction.
//
// SIA-32 deliberately mirrors the structural features of IA32 that the LFI
// profiler exploits (DSN'09, §3):
//
//   - the function return value is placed in a well-known register (R0,
//     the analogue of eax in the Intel ABI);
//   - position-independent code addresses globals through a base register
//     materialised by a dedicated instruction (Lea, the analogue of the
//     call/add ebx PIC prologue);
//   - thread-local storage (errno) is addressed through a TLS base
//     (TLSBase, the analogue of the gs segment register);
//   - arguments are passed on the stack and addressed at positive offsets
//     from the frame pointer BP (the analogue of ebp), which is what the
//     profiler's output-argument side-effect detection keys on.
//
// Unlike IA32, instructions are a fixed 8 bytes wide. This keeps
// linear-sweep disassembly total; the paper reports >99% disassembly
// accuracy on commercial binaries and treats the disassembler as a loosely
// coupled, replaceable component, so nothing in the reproduced analyses
// depends on variable-length decoding.
package isa

import (
	"encoding/binary"
	"fmt"
	"strconv"
)

// Size is the width, in bytes, of every encoded SIA-32 instruction.
const Size = 8

// Reg identifies a SIA-32 machine register.
type Reg uint8

// Register file. R0 doubles as the return-value register (the eax
// analogue); SP and BP are the stack and frame pointers.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	SP
	BP
	// NumRegs is the number of architectural registers.
	NumRegs
)

var regNames = [...]string{"r0", "r1", "r2", "r3", "r4", "r5", "sp", "bp"}

// String returns the assembler name of the register.
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return regNames[r]
	}
	return "r?" + strconv.Itoa(int(r))
}

// ParseReg parses an assembler register name ("r0".."r5", "sp", "bp").
func ParseReg(s string) (Reg, error) {
	for i, n := range regNames {
		if s == n {
			return Reg(i), nil
		}
	}
	return 0, fmt.Errorf("isa: unknown register %q", s)
}

// Op is a SIA-32 opcode.
type Op uint8

// Opcode space. The numbering starts at one so that a zeroed instruction
// stream decodes as invalid rather than as an endless run of no-ops.
const (
	OpInvalid Op = iota

	OpNop
	OpHalt

	// Data movement.
	OpMovRI  // A <- Imm
	OpMovRR  // A <- B
	OpLoad   // A <- mem32[B+Imm]
	OpLoadB  // A <- zx(mem8[B+Imm])
	OpStoreR // mem32[A+Imm] <- B
	OpStoreB // mem8[A+Imm] <- low8(B)
	OpStoreI // mem32[A+Imm2field] <- Imm ; encoded with B unused, Imm=value, A=base, third field packs displacement
	OpPushR  // push A
	OpPushI  // push Imm
	OpPopR   // A <- pop

	// Arithmetic / logic.
	OpAddRI
	OpAddRR
	OpSubRI
	OpSubRR
	OpMulRR
	OpDivRR
	OpModRR
	OpAndRI
	OpAndRR
	OpOrRI
	OpOrRR
	OpXorRI
	OpXorRR
	OpShlRI
	OpShrRI
	OpNeg
	OpNot

	// Comparison and branches. Cmp sets the machine flags; Jcc consume
	// them. Branch targets are text-section byte offsets (module
	// relative, relocated to virtual addresses at load time).
	OpCmpRI
	OpCmpRR
	OpJmp
	OpJe
	OpJne
	OpJl
	OpJle
	OpJg
	OpJge

	// Calls. OpCall's Imm is a text offset or an import slot resolved
	// through a relocation; OpCallR and OpJmpI are the indirect forms.
	OpCall
	OpCallR
	OpJmpI
	OpRet

	// OpSyscall traps into the synthetic kernel: number in R0,
	// arguments in R1..R3, Linux-style result (-errno on failure) in R0.
	OpSyscall

	// OpLea materialises the virtual address of a symbol (data, TLS or
	// text) into A; the Imm field carries the relocated address. This is
	// the PIC base-address idiom the side-effect analysis keys on.
	OpLea

	// OpTLSBase loads into A the base virtual address of the current
	// module's TLS block (the gs:0x0 analogue).
	OpTLSBase

	// OpDlNext resolves, at run time, the *next* definition of this
	// module's exported symbol whose name-table index is Imm — the
	// dlsym(RTLD_NEXT) analogue used by interceptor stubs to tail-jump
	// to the original library function.
	OpDlNext

	// NumOps is the number of defined opcodes.
	NumOps
)

var opNames = map[Op]string{
	OpNop:     "nop",
	OpHalt:    "halt",
	OpMovRI:   "mov",
	OpMovRR:   "mov",
	OpLoad:    "load",
	OpLoadB:   "loadb",
	OpStoreR:  "store",
	OpStoreB:  "storeb",
	OpStoreI:  "storei",
	OpPushR:   "push",
	OpPushI:   "push",
	OpPopR:    "pop",
	OpAddRI:   "add",
	OpAddRR:   "add",
	OpSubRI:   "sub",
	OpSubRR:   "sub",
	OpMulRR:   "mul",
	OpDivRR:   "div",
	OpModRR:   "mod",
	OpAndRI:   "and",
	OpAndRR:   "and",
	OpOrRI:    "or",
	OpOrRR:    "or",
	OpXorRI:   "xor",
	OpXorRR:   "xor",
	OpShlRI:   "shl",
	OpShrRI:   "shr",
	OpNeg:     "neg",
	OpNot:     "not",
	OpCmpRI:   "cmp",
	OpCmpRR:   "cmp",
	OpJmp:     "jmp",
	OpJe:      "je",
	OpJne:     "jne",
	OpJl:      "jl",
	OpJle:     "jle",
	OpJg:      "jg",
	OpJge:     "jge",
	OpCall:    "call",
	OpCallR:   "callr",
	OpJmpI:    "jmpi",
	OpRet:     "ret",
	OpSyscall: "syscall",
	OpLea:     "lea",
	OpTLSBase: "tlsbase",
	OpDlNext:  "dlnext",
}

// Mnemonic returns the assembler mnemonic for the opcode.
func (o Op) Mnemonic() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Op) Valid() bool { return o > OpInvalid && o < NumOps }

// IsBranch reports whether o is a direct conditional or unconditional
// branch (its Imm is a text-offset target).
func (o Op) IsBranch() bool {
	switch o {
	case OpJmp, OpJe, OpJne, OpJl, OpJle, OpJg, OpJge:
		return true
	}
	return false
}

// IsCondBranch reports whether o is a conditional branch.
func (o Op) IsCondBranch() bool { return o.IsBranch() && o != OpJmp }

// Terminates reports whether o ends a basic block: branches, indirect
// jumps, returns and halts never fall through to the next instruction
// unconditionally (conditional branches do fall through, but they still
// terminate the block).
func (o Op) Terminates() bool {
	switch o {
	case OpRet, OpHalt, OpJmp, OpJmpI:
		return true
	}
	return o.IsCondBranch()
}

// Transfers reports whether o ends a straight-line execution run: every
// block terminator plus calls and syscalls, which hand control to a
// callee, a host function or the kernel before the next instruction of
// this stream runs. This is the boundary set the VM's block-compiled
// execution engine batches cycle and coverage accounting over: between
// two Transfers instructions execution is linear and unobservable from
// outside the process.
func (o Op) Transfers() bool {
	switch o {
	case OpCall, OpCallR, OpSyscall:
		return true
	}
	return o.Terminates()
}

// Inst is one decoded SIA-32 instruction.
//
// Encoding layout (little endian):
//
//	byte 0   opcode
//	byte 1   register A
//	byte 2   register B
//	byte 3   auxiliary displacement (signed, scaled by 4) for OpStoreI
//	byte 4-7 Imm (signed 32-bit)
type Inst struct {
	Op  Op
	A   Reg
	B   Reg
	Aux int8  // OpStoreI displacement / 4
	Imm int32 // immediate, displacement, branch target or relocated address
}

// Encode writes the instruction into an 8-byte buffer.
func (in Inst) Encode(dst []byte) {
	_ = dst[Size-1]
	dst[0] = byte(in.Op)
	dst[1] = byte(in.A)
	dst[2] = byte(in.B)
	dst[3] = byte(in.Aux)
	binary.LittleEndian.PutUint32(dst[4:8], uint32(in.Imm))
}

// Decode decodes one instruction from src. It returns an error if src is
// too short or the opcode or register fields are out of range.
func Decode(src []byte) (Inst, error) {
	if len(src) < Size {
		return Inst{}, fmt.Errorf("isa: truncated instruction: %d bytes", len(src))
	}
	in := Inst{
		Op:  Op(src[0]),
		A:   Reg(src[1]),
		B:   Reg(src[2]),
		Aux: int8(src[3]),
		Imm: int32(binary.LittleEndian.Uint32(src[4:8])),
	}
	if !in.Op.Valid() {
		return in, fmt.Errorf("isa: invalid opcode %d", src[0])
	}
	if in.A >= NumRegs || in.B >= NumRegs {
		return in, fmt.Errorf("isa: invalid register operand in %s", in.Op.Mnemonic())
	}
	return in, nil
}

// StoreIDisp returns the memory displacement of an OpStoreI instruction.
func (in Inst) StoreIDisp() int32 { return int32(in.Aux) * 4 }

// String renders the instruction in assembler syntax. Branch and call
// targets are rendered as raw numbers; the disassembler layers symbolic
// names on top where relocation or symbol information is available.
func (in Inst) String() string {
	m := in.Op.Mnemonic()
	switch in.Op {
	case OpNop, OpHalt, OpRet, OpSyscall:
		return m
	case OpMovRI, OpAddRI, OpSubRI, OpAndRI, OpOrRI, OpXorRI, OpShlRI, OpShrRI, OpCmpRI:
		return fmt.Sprintf("%s %s, %d", m, in.A, in.Imm)
	case OpMovRR, OpAddRR, OpSubRR, OpMulRR, OpDivRR, OpModRR, OpAndRR, OpOrRR, OpXorRR, OpCmpRR:
		return fmt.Sprintf("%s %s, %s", m, in.A, in.B)
	case OpLoad, OpLoadB:
		return fmt.Sprintf("%s %s, [%s%+d]", m, in.A, in.B, in.Imm)
	case OpStoreR, OpStoreB:
		return fmt.Sprintf("%s [%s%+d], %s", m, in.A, in.Imm, in.B)
	case OpStoreI:
		return fmt.Sprintf("%s [%s%+d], %d", m, in.A, in.StoreIDisp(), in.Imm)
	case OpPushR, OpPopR, OpNeg, OpNot, OpCallR, OpJmpI:
		return fmt.Sprintf("%s %s", m, in.A)
	case OpPushI:
		return fmt.Sprintf("%s %d", m, in.Imm)
	case OpJmp, OpJe, OpJne, OpJl, OpJle, OpJg, OpJge, OpCall:
		return fmt.Sprintf("%s %d", m, in.Imm)
	case OpLea, OpDlNext:
		return fmt.Sprintf("%s %s, %d", m, in.A, in.Imm)
	case OpTLSBase:
		return fmt.Sprintf("%s %s", m, in.A)
	}
	return m
}

// DecodeAll decodes an entire text section into instructions. The text
// length must be a multiple of Size.
func DecodeAll(text []byte) ([]Inst, error) {
	if len(text)%Size != 0 {
		return nil, fmt.Errorf("isa: text size %d not a multiple of %d", len(text), Size)
	}
	out := make([]Inst, 0, len(text)/Size)
	for off := 0; off < len(text); off += Size {
		in, err := Decode(text[off:])
		if err != nil {
			return nil, fmt.Errorf("isa: at offset %#x: %w", off, err)
		}
		out = append(out, in)
	}
	return out, nil
}
