package disasm_test

import (
	"strings"
	"testing"

	"lfi/internal/asm"
	"lfi/internal/disasm"
	"lfi/internal/isa"
)

const src = `
.lib d.so
.extern ext
.global f
.global g
.dataw w 7
.func f
  mov r0, 1
  call g
  call ext
  ret
.func g
  lea r1, w
  load r0, [r1+0]
  ret
`

func disassemble(t *testing.T) *disasm.Program {
	t.Helper()
	f, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := disasm.Disassemble(f)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestInstAt(t *testing.T) {
	p := disassemble(t)
	in, ok := p.InstAt(0)
	if !ok || in.Op != isa.OpMovRI || in.Imm != 1 {
		t.Errorf("InstAt(0) = %+v, %v", in, ok)
	}
	if _, ok := p.InstAt(3); ok {
		t.Error("misaligned offset should fail")
	}
	if _, ok := p.InstAt(1 << 20); ok {
		t.Error("out of range should fail")
	}
	if len(p.Insts) != 7 {
		t.Errorf("len(Insts) = %d", len(p.Insts))
	}
}

func TestCallTargets(t *testing.T) {
	p := disassemble(t)
	// Second instruction: call g (local).
	local, name, imported, ok := p.CallTarget(isa.Size)
	if !ok || imported {
		t.Fatalf("call g: local=%v name=%q imported=%v", local, name, imported)
	}
	gSym, _ := p.File.Lookup("g")
	if local != gSym.Off {
		t.Errorf("call g target = %#x, want %#x", local, gSym.Off)
	}
	// Third instruction: call ext (import).
	_, name, imported, ok = p.CallTarget(2 * isa.Size)
	if !ok || !imported || name != "ext" {
		t.Errorf("call ext: name=%q imported=%v ok=%v", name, imported, ok)
	}
	// Non-call offset.
	if _, _, _, ok := p.CallTarget(0); ok {
		t.Error("mov is not a call")
	}
}

func TestSymbolFor(t *testing.T) {
	p := disassemble(t)
	if name, ok := p.SymbolFor(0); !ok || name != "f" {
		t.Errorf("SymbolFor(0) = %q, %v", name, ok)
	}
	gSym, _ := p.File.Lookup("g")
	if name, ok := p.SymbolFor(gSym.Off); !ok || name != "g" {
		t.Errorf("SymbolFor(g) = %q, %v", name, ok)
	}
	if _, ok := p.SymbolFor(isa.Size); ok {
		t.Error("mid-function offset has no symbol")
	}
}

func TestRenderListing(t *testing.T) {
	p := disassemble(t)
	out := p.Render(0, int32(len(p.File.Text)))
	for _, want := range []string{"<f>:", "<g>:", "mov r0, 1", "; -> ext", "ret"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
}

func TestRelocAt(t *testing.T) {
	p := disassemble(t)
	if _, ok := p.RelocAt(isa.Size); !ok {
		t.Error("call g should carry a reloc")
	}
	if _, ok := p.RelocAt(0); ok {
		t.Error("mov should not carry a reloc")
	}
}

func TestDisassembleRejectsBadText(t *testing.T) {
	f, err := asm.Assemble("t.s", ".lib x\n.func f\nret\n")
	if err != nil {
		t.Fatal(err)
	}
	f.Text = append(f.Text, 0xFF) // misalign
	if _, err := disasm.Disassemble(f); err == nil {
		t.Error("misaligned text should fail")
	}
}
