package asm

import (
	"testing"

	"lfi/internal/isa"
	"lfi/internal/obj"
)

const sampleLib = `
.lib demo.so
.needs libc.so
.extern write
.global blah
.global counter
.dataw counter 0
.tls errno 4

.func blah
  push bp
  mov bp, sp
  load r0, [bp+8]
  cmp r0, 0
  jne .nonzero
  mov r0, 0
  jmp .done
.nonzero:
  cmp r0, 1
  jne .other
  mov r0, 5
  jmp .done
.other:
  mov r0, -1
.done:
  mov sp, bp
  pop bp
  ret
.endfunc

.func helper
  push bp
  mov bp, sp
  push 3
  call write
  add sp, 4
  lea r1, counter
  store [r1+0], r0
  lea r2, errno
  store [r2+0], 9
  call blah
  mov sp, bp
  pop bp
  ret
.endfunc
`

func mustAssemble(t *testing.T, src string) *obj.File {
	t.Helper()
	f, err := Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return f
}

func TestAssembleSampleLib(t *testing.T) {
	f := mustAssemble(t, sampleLib)
	if f.Name != "demo.so" || f.Kind != obj.Library {
		t.Errorf("file identity: %q %v", f.Name, f.Kind)
	}
	if len(f.Needed) != 1 || f.Needed[0] != "libc.so" {
		t.Errorf("needed = %v", f.Needed)
	}
	blah, ok := f.LookupExport("blah")
	if !ok || blah.Kind != obj.SymFunc {
		t.Fatalf("blah not exported: %+v", blah)
	}
	if _, ok := f.LookupExport("helper"); ok {
		t.Error("helper should not be exported")
	}
	if _, ok := f.Lookup("helper"); !ok {
		t.Error("helper should exist as a local symbol")
	}
	ctr, ok := f.Lookup("counter")
	if !ok || ctr.Kind != obj.SymData || !ctr.Exported {
		t.Errorf("counter symbol: %+v ok=%v", ctr, ok)
	}
	if f.TLSSize != 4 {
		t.Errorf("TLSSize = %d", f.TLSSize)
	}
	if err := f.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestBranchTargetsResolve(t *testing.T) {
	f := mustAssemble(t, sampleLib)
	insts, err := isa.DecodeAll(f.Text)
	if err != nil {
		t.Fatal(err)
	}
	// Every branch should carry a text reloc whose Index equals its Imm.
	relocs := relocsByOff(f)
	nbranch := 0
	for i, in := range insts {
		if !in.Op.IsBranch() {
			continue
		}
		nbranch++
		off := int32(i * isa.Size)
		r, ok := relocs[off]
		if !ok || r.Kind != obj.RelocText {
			t.Errorf("branch at %#x lacks text reloc", off)
			continue
		}
		if r.Index != in.Imm {
			t.Errorf("branch at %#x: imm %d != reloc %d", off, in.Imm, r.Index)
		}
	}
	if nbranch == 0 {
		t.Error("no branches found")
	}
}

func TestImportAndDataRelocs(t *testing.T) {
	f := mustAssemble(t, sampleLib)
	if len(f.Imports) == 0 || f.Imports[0] != "write" {
		t.Errorf("import table = %v", f.Imports)
	}
	relocs := relocsByOff(f)
	insts, _ := isa.DecodeAll(f.Text)
	var sawImportCall, sawDataLea, sawTLSLea, sawLocalCall bool
	for i, in := range insts {
		off := int32(i * isa.Size)
		r, ok := relocs[off]
		if !ok {
			continue
		}
		switch {
		case in.Op == isa.OpCall && r.Kind == obj.RelocImport:
			sawImportCall = true
		case in.Op == isa.OpCall && r.Kind == obj.RelocText:
			sawLocalCall = true
		case in.Op == isa.OpLea && r.Kind == obj.RelocData:
			sawDataLea = true
		case in.Op == isa.OpLea && r.Kind == obj.RelocTLS:
			sawTLSLea = true
		}
	}
	if !sawImportCall || !sawDataLea || !sawTLSLea || !sawLocalCall {
		t.Errorf("relocs: import=%v data=%v tls=%v local=%v",
			sawImportCall, sawDataLea, sawTLSLea, sawLocalCall)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := mustAssemble(t, sampleLib)
	blob := f.Encode()
	g, err := obj.Decode(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if g.Name != f.Name || len(g.Text) != len(f.Text) ||
		len(g.Symbols) != len(f.Symbols) || len(g.Relocs) != len(f.Relocs) ||
		len(g.Imports) != len(f.Imports) || len(g.Needed) != len(f.Needed) {
		t.Errorf("round trip mismatch: %+v vs %+v", g, f)
	}
	// Deterministic encoding.
	if string(blob) != string(g.Encode()) {
		t.Error("encoding is not deterministic")
	}
}

func TestStrip(t *testing.T) {
	f := mustAssemble(t, sampleLib)
	s := f.Strip()
	if !s.Stripped {
		t.Error("Stripped flag not set")
	}
	if _, ok := s.Lookup("helper"); ok {
		t.Error("local symbol survived strip")
	}
	if _, ok := s.LookupExport("blah"); !ok {
		t.Error("exported symbol lost in strip")
	}
	// Original untouched.
	if _, ok := f.Lookup("helper"); !ok {
		t.Error("strip mutated the original")
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := map[string]string{
		"missing lib":    ".func f\nret\n",
		"dup label":      ".lib x\n.func f\na:\na:\nret\n",
		"bad mnemonic":   ".lib x\n.func f\nfrobnicate r0\nret\n",
		"bad register":   ".lib x\n.func f\nmov r9, 1\nret\n",
		"undef target":   ".lib x\n.func f\njmp nowhere\nret\n",
		"bad directive":  ".lib x\n.bogus\n",
		"bad data size":  ".lib x\n.data buf zero\n",
		"extern missing": ".lib x\n.extern\n",
	}
	for name, src := range cases {
		if _, err := Assemble("t.s", src); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestDataBytesLiteral(t *testing.T) {
	f := mustAssemble(t, ".lib x\n.datab msg \"hi\\n\"\n")
	sym, ok := f.Lookup("msg")
	if !ok || sym.Kind != obj.SymData {
		t.Fatalf("msg symbol missing")
	}
	// "hi\n" + NUL padded to 4 bytes.
	if sym.Size != 4 {
		t.Errorf("msg size = %d", sym.Size)
	}
	if string(f.Data[sym.Off:sym.Off+3]) != "hi\n" {
		t.Errorf("msg content = %q", f.Data[sym.Off:sym.Off+4])
	}
}

func TestStoreImmediateEncoding(t *testing.T) {
	f := mustAssemble(t, ".lib x\n.func f\nstore [bp-8], 42\nret\n")
	insts, _ := isa.DecodeAll(f.Text)
	if insts[0].Op != isa.OpStoreI || insts[0].StoreIDisp() != -8 || insts[0].Imm != 42 {
		t.Errorf("storei encoding: %+v disp=%d", insts[0], insts[0].StoreIDisp())
	}
}

// relocsByOff indexes f's relocation records by the text offset of the
// instruction each patches.
func relocsByOff(f *obj.File) map[int32]obj.Reloc {
	m := make(map[int32]obj.Reloc, len(f.Relocs))
	for _, r := range f.Relocs {
		m[r.Off] = r
	}
	return m
}
