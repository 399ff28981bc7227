package cfg_test

import (
	"strings"
	"testing"

	"lfi/internal/asm"
	"lfi/internal/cfg"
	"lfi/internal/disasm"
	"lfi/internal/isa"
	"lfi/internal/obj"
)

// TestStreamLeaders pins the whole-stream leader analysis the VM's
// block engine compiles superblocks from: instruction 0, branch and
// call targets, and every instruction after a control transfer.
func TestStreamLeaders(t *testing.T) {
	base := int32(0x100)
	// idx:  0 mov, 1 je->4, 2 add, 3 call->0, 4 add, 5 syscall, 6 add,
	//       7 jmp->outside, 8 ret, 9 add
	insts := []isa.Inst{
		{Op: isa.OpMovRI, A: isa.R0, Imm: 1},
		{Op: isa.OpJe, Imm: base + 4*isa.Size},
		{Op: isa.OpAddRI, A: isa.R0, Imm: 1},
		{Op: isa.OpCall, Imm: base},
		{Op: isa.OpAddRI, A: isa.R0, Imm: 2},
		{Op: isa.OpSyscall},
		{Op: isa.OpAddRI, A: isa.R0, Imm: 3},
		{Op: isa.OpJmp, Imm: 0x7000}, // outside the stream: no local leader
		{Op: isa.OpRet},
		{Op: isa.OpAddRI, A: isa.R0, Imm: 4},
	}
	leaders := cfg.StreamLeaders(insts, func(imm int32) (int, bool) {
		off := imm - base
		if off < 0 || off%isa.Size != 0 || int(off/isa.Size) >= len(insts) {
			return 0, false
		}
		return int(off / isa.Size), true
	})
	want := map[int]bool{
		0: true, // entry + call target
		2: true, // after the conditional branch
		4: true, // branch target + after call
		6: true, // after syscall
		8: true, // after jmp (the jmp target is outside the stream)
		9: true, // after ret
	}
	for i := range insts {
		if leaders[i] != want[i] {
			t.Errorf("leaders[%d] = %v, want %v", i, leaders[i], want[i])
		}
	}
	if got := cfg.StreamLeaders(nil, nil); len(got) != 0 {
		t.Errorf("empty stream: %v leaders", got)
	}
}

func build(t *testing.T, src, fn string) (*cfg.Graph, *obj.File) {
	t.Helper()
	f, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	p, err := disasm.Disassemble(f)
	if err != nil {
		t.Fatal(err)
	}
	sym, ok := f.Lookup(fn)
	if !ok {
		t.Fatalf("no symbol %s", fn)
	}
	g, err := cfg.Build(p, sym.Off)
	if err != nil {
		t.Fatal(err)
	}
	return g, f
}

func TestStraightLine(t *testing.T) {
	g, _ := build(t, `
.lib x
.global f
.func f
  mov r0, 1
  add r0, 2
  ret
`, "f")
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if !g.Blocks[0].IsExit() || g.Blocks[0].NumInsts() != 3 {
		t.Errorf("block shape wrong: %d insts", g.Blocks[0].NumInsts())
	}
	if g.Entry != g.Blocks[0] {
		t.Error("entry mismatch")
	}
}

func TestDiamond(t *testing.T) {
	g, _ := build(t, `
.lib x
.global f
.func f
  cmp r0, 0
  je .zero
  mov r0, 1
  jmp .done
.zero:
  mov r0, 2
.done:
  ret
`, "f")
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4 (cond, then, else, join)", len(g.Blocks))
	}
	if len(g.Entry.Succs) != 2 {
		t.Errorf("entry successors = %d, want 2", len(g.Entry.Succs))
	}
	exits := g.ExitBlocks()
	if len(exits) != 1 {
		t.Fatalf("exits = %d", len(exits))
	}
	if len(exits[0].Preds) != 2 {
		t.Errorf("join preds = %d, want 2", len(exits[0].Preds))
	}
}

func TestLoop(t *testing.T) {
	g, _ := build(t, `
.lib x
.global f
.func f
.head:
  cmp r0, 10
  jge .out
  add r0, 1
  jmp .head
.out:
  ret
`, "f")
	// head, body, out.
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3", len(g.Blocks))
	}
	head := g.Entry
	var body *cfg.Block
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == head && b != head {
				body = b
			}
		}
	}
	if body == nil {
		t.Fatal("no back edge found")
	}
}

func TestMultipleExits(t *testing.T) {
	g, _ := build(t, `
.lib x
.global f
.func f
  cmp r0, 0
  jne .b
  mov r0, -1
  ret
.b:
  mov r0, 0
  ret
`, "f")
	if len(g.ExitBlocks()) != 2 {
		t.Errorf("exits = %d, want 2", len(g.ExitBlocks()))
	}
}

func TestIndirectJumpMarksIncomplete(t *testing.T) {
	g, _ := build(t, `
.lib x
.global f
.func f
  jmpi r1
`, "f")
	if !g.Incomplete {
		t.Error("indirect jump must mark the CFG incomplete")
	}
	if len(g.Entry.Succs) != 0 {
		t.Error("jmpi block has unknowable successors")
	}
}

func TestUnreachableCodeExcluded(t *testing.T) {
	g, _ := build(t, `
.lib x
.global f
.func f
  mov r0, 1
  ret
  mov r0, 2
  ret
`, "f")
	total := 0
	for _, b := range g.Blocks {
		total += b.NumInsts()
	}
	if total != 2 {
		t.Errorf("reachable instructions = %d, want 2 (dead tail excluded)", total)
	}
}

func TestCallsDoNotSplitBlocks(t *testing.T) {
	g, _ := build(t, `
.lib x
.extern w
.global f
.func f
  push 1
  call w
  add sp, 4
  ret
`, "f")
	if len(g.Blocks) != 1 {
		t.Errorf("blocks = %d: calls fall through and must not end blocks", len(g.Blocks))
	}
}

func TestBlockContaining(t *testing.T) {
	g, f := build(t, `
.lib x
.global f
.func f
  cmp r0, 0
  je .a
  mov r0, 1
.a:
  ret
`, "f")
	_ = f
	// Blocks are sorted by Start and do not overlap, so every
	// instruction offset lies in exactly one block.
	containing := func(off int32) []*cfg.Block {
		var out []*cfg.Block
		for _, b := range g.Blocks {
			if off >= b.Start && off < b.End {
				out = append(out, b)
			}
		}
		return out
	}
	for _, b := range g.Blocks {
		for i := 0; i < b.NumInsts(); i++ {
			if got := containing(b.InstOff(i)); len(got) != 1 || got[0] != b {
				t.Errorf("blocks containing %#x = %v, want block %d", b.InstOff(i), got, b.ID)
			}
		}
	}
	if g.Blocks[0] != g.Entry {
		t.Error("entry is not the first block")
	}
}

func TestBadEntry(t *testing.T) {
	f, err := asm.Assemble("t.s", ".lib x\n.global f\n.func f\nret\n")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := disasm.Disassemble(f)
	if _, err := cfg.Build(p, 4096); err == nil {
		t.Error("out-of-range entry should fail")
	}
}

func TestDotOutput(t *testing.T) {
	g, _ := build(t, `
.lib x
.global f
.func f
  cmp r0, 0
  je .a
  mov r0, 1
.a:
  ret
`, "f")
	dot := g.Dot("f")
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Errorf("dot output malformed:\n%s", dot)
	}
}
