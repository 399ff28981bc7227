package isa

import (
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Inst{
		{Op: OpNop},
		{Op: OpMovRI, A: R0, Imm: -1},
		{Op: OpMovRR, A: R3, B: R5},
		{Op: OpLoad, A: R1, B: BP, Imm: -8},
		{Op: OpStoreR, A: BP, B: R0, Imm: 12},
		{Op: OpStoreI, A: BP, Aux: -1, Imm: 7},
		{Op: OpCall, Imm: 0x1234},
		{Op: OpJle, Imm: 64},
		{Op: OpLea, A: R2, Imm: 0x7fffffff},
		{Op: OpDlNext, A: R4, Imm: 3},
		{Op: OpSyscall},
		{Op: OpRet},
	}
	for _, in := range cases {
		got, err := Decode(encode(in))
		if err != nil {
			t.Fatalf("decode %v: %v", in, err)
		}
		if got != in {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	f := func(op uint8, a, b uint8, aux int8, imm int32) bool {
		in := Inst{
			Op:  Op(op%uint8(NumOps-1) + 1),
			A:   Reg(a % uint8(NumRegs)),
			B:   Reg(b % uint8(NumRegs)),
			Aux: aux,
			Imm: imm,
		}
		got, err := Decode(encode(in))
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer should fail")
	}
	bad := encode(Inst{Op: OpNop})
	bad[0] = 0 // OpInvalid
	if _, err := Decode(bad); err == nil {
		t.Error("invalid opcode should fail")
	}
	bad = encode(Inst{Op: OpMovRR})
	bad[1] = byte(NumRegs)
	if _, err := Decode(bad); err == nil {
		t.Error("invalid register should fail")
	}
}

func TestDecodeAll(t *testing.T) {
	prog := []Inst{
		{Op: OpMovRI, A: R0, Imm: 42},
		{Op: OpRet},
	}
	var text []byte
	for _, in := range prog {
		text = append(text, encode(in)...)
	}
	got, err := DecodeAll(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Imm != 42 || got[1].Op != OpRet {
		t.Errorf("unexpected decode: %+v", got)
	}
	if _, err := DecodeAll(text[:9]); err == nil {
		t.Error("misaligned text should fail")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpJmp.IsBranch() || !OpJe.IsBranch() || OpCall.IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if OpJmp.IsCondBranch() || !OpJne.IsCondBranch() {
		t.Error("IsCondBranch misclassifies")
	}
	for _, op := range []Op{OpRet, OpHalt, OpJmp, OpJmpI, OpJl} {
		if !op.Terminates() {
			t.Errorf("%v should terminate a block", op)
		}
	}
	for _, op := range []Op{OpCall, OpMovRI, OpSyscall} {
		if op.Terminates() {
			t.Errorf("%v should not terminate a block", op)
		}
	}
	// Transfers is Terminates plus calls and syscalls — the superblock
	// boundary set the VM's block engine batches accounting over.
	for _, op := range []Op{OpRet, OpHalt, OpJmp, OpJmpI, OpJl, OpCall, OpCallR, OpSyscall} {
		if !op.Transfers() {
			t.Errorf("%v should end a straight-line run", op)
		}
	}
	for _, op := range []Op{OpMovRI, OpAddRR, OpLoad, OpStoreR, OpPushI, OpPopR, OpCmpRI, OpLea, OpTLSBase, OpDlNext, OpNop} {
		if op.Transfers() {
			t.Errorf("%v should not end a straight-line run", op)
		}
	}
}

func TestParseReg(t *testing.T) {
	for r := R0; r < NumRegs; r++ {
		got, err := ParseReg(r.String())
		if err != nil || got != r {
			t.Errorf("ParseReg(%q) = %v, %v", r.String(), got, err)
		}
	}
	if _, err := ParseReg("r9"); err == nil {
		t.Error("r9 should not parse")
	}
}

func TestInstString(t *testing.T) {
	cases := map[string]Inst{
		"mov r0, 5":        {Op: OpMovRI, A: R0, Imm: 5},
		"mov r1, r2":       {Op: OpMovRR, A: R1, B: R2},
		"load r0, [bp-4]":  {Op: OpLoad, A: R0, B: BP, Imm: -4},
		"store [bp+8], r1": {Op: OpStoreR, A: BP, B: R1, Imm: 8},
		"ret":              {Op: OpRet},
		"push 7":           {Op: OpPushI, Imm: 7},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

// encode returns the 8-byte encoding of in.
func encode(in Inst) []byte {
	b := make([]byte, Size)
	in.Encode(b)
	return b
}
