package vm

// Break parity: RunBreak on the block engine, which checks for the
// breakpoint only where it enters a block, must stop in exactly the
// state the step engine's per-instruction check stops in — for every
// arrival, on every path into the breakpoint.

import (
	"fmt"
	"testing"

	"lfi/internal/isa"
)

// parityExeSrc reaches each breakpoint candidate by a different path:
//   - head: straight-line fall-through from main once, then a taken jl;
//   - tgt: a chained local jmp from head (not its fall-through);
//   - fall: straight-line fall-through from pre — no branch or call
//     targets it, so only its function symbol makes it a block start;
//   - rec: a call from tgt, then recursive calls from rec itself.
//
// mid's second instruction is mid-block: the non-leader case.
const parityExeSrc = `
.exe parity
.global main
.global head
.global tgt
.global pre
.global fall
.global rec
.global mid
.func main
  mov r5, 0
  mov r4, 0
.func head
  add r5, 1
  jmp tgt
.func pre
  add r4, 2
  mov r2, r4
.func fall
  add r4, 1
  ret
.func rec
  cmp r1, 0
  jle .out
  sub r1, 1
  call rec
.out:
  add r4, 1
  ret
.func mid
  add r4, 5
  add r4, 7
  add r4, 9
  ret
.func tgt
  add r4, r5
  call pre
  mov r1, 3
  call rec
  call mid
  cmp r5, 4
  jl head
  mov r0, r4
  ret
`

func paritySystem(t testing.TB, engine string, slice int) *System {
	t.Helper()
	sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13})
	sys.Register(assembleSrc(t, parityExeSrc))
	if _, err := sys.Spawn("parity", SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// compareBreakState asserts two systems stopped (or finished) in the
// same state: every process, total cycles and the recorded round.
func compareBreakState(t *testing.T, step, block *System) {
	t.Helper()
	if step.TotalCycles != block.TotalCycles {
		t.Fatalf("TotalCycles %d (step) != %d (block)", step.TotalCycles, block.TotalCycles)
	}
	if step.resume != block.resume {
		t.Fatalf("scheduler round %+v (step) != %+v (block)", step.resume, block.resume)
	}
	if len(step.procs) != len(block.procs) {
		t.Fatalf("proc count %d != %d", len(step.procs), len(block.procs))
	}
	for i := range step.procs {
		compareProcs(t, 0, step.procs[i], block.procs[i])
	}
}

// TestRunBreakEngineParity breaks at every arrival 1..N (and N+1, which
// must miss) at each candidate, under slice widths that move arrivals
// across slice boundaries, and compares the step and block stops, then
// the finished runs.
func TestRunBreakEngineParity(t *testing.T) {
	want := map[string]int32{"head": 4, "tgt": 4, "fall": 4, "rec": 16}
	boundary := 0
	for _, sym := range []string{"head", "tgt", "fall", "rec"} {
		for _, slice := range []int{1, 2, 3, 5, 4096} {
			t.Run(fmt.Sprintf("%s/slice%d", sym, slice), func(t *testing.T) {
				for target := int32(1); ; target++ {
					step := paritySystem(t, EngineStep, slice)
					block := paritySystem(t, EngineBlock, slice)
					va := breakTargetVA(t, step, "parity", sym)
					sh, serr := step.RunBreak(va, target, 0)
					bh, berr := block.RunBreak(va, target, 0)
					if sh != bh || serr != berr {
						t.Fatalf("target %d: step (%v, %v), block (%v, %v)", target, sh, serr, bh, berr)
					}
					compareBreakState(t, step, block)
					if !sh {
						if got := target - 1; got != want[sym] {
							t.Fatalf("%d arrivals, want %d", got, want[sym])
						}
						return
					}
					if pc := block.procs[0].PC; pc != va {
						t.Fatalf("target %d: stopped at pc=%#x, want %#x", target, pc, va)
					}
					if slice > 1 && block.resume.sliceLeft == slice {
						boundary++ // the previous slice ended parked on va
					}
					if err := step.Run(0); err != nil {
						t.Fatal(err)
					}
					if err := block.Run(0); err != nil {
						t.Fatal(err)
					}
					compareBreakState(t, step, block)
				}
			})
		}
	}
	if boundary == 0 {
		t.Error("no arrival landed exactly on a slice boundary")
	}
}

// TestRunBreakNonLeader: a breakpoint in the middle of a block is an
// error on the block engine, before anything runs; the step engine
// still stops there.
func TestRunBreakNonLeader(t *testing.T) {
	block := paritySystem(t, EngineBlock, 4096)
	va := breakTargetVA(t, block, "parity", "mid") + isa.Size
	if hit, err := block.RunBreak(va, 1, 0); hit || err == nil {
		t.Fatalf("block RunBreak(mid+1) = (%v, %v), want an error", hit, err)
	}
	if block.TotalCycles != 0 {
		t.Fatalf("block engine ran %d cycles before rejecting", block.TotalCycles)
	}
	step := paritySystem(t, EngineStep, 4096)
	if hit, err := step.RunBreak(va, 1, 0); !hit || err != nil {
		t.Fatalf("step RunBreak(mid+1) = (%v, %v), want a hit", hit, err)
	}
	if pc := step.procs[0].PC; pc != va {
		t.Fatalf("step stopped at pc=%#x, want %#x", pc, va)
	}
}

// A process spawned mid-prefix can map va mid-block even though every
// process alive at the start maps it at a block start: helper is
// lzparent's instruction 6, and lzkid's instruction 6 is straight-line.
const lzParentSrc = `
.exe lzparent
.global main
.global helper
.datab prog "lzkid"
.func main
  mov r0, 8
  lea r1, prog
  mov r2, 0
  mov r3, 1
  syscall
  call helper
  ret
.func helper
  ret
`

const lzKidSrc = `
.exe lzkid
.global main
.func main
  mov r1, 1
  mov r1, 2
  mov r1, 3
  mov r1, 4
  mov r1, 5
  mov r1, 6
  mov r1, 7
  mov r1, 8
  mov r0, 1
  mov r1, 0
  syscall
`

// TestRunBreakNonLeaderInSpawnedProcess: the block engine reports the
// late non-leader as an error once the child runs; the step engine
// counts the child's straight-line pass as its first arrival.
func TestRunBreakNonLeaderInSpawnedProcess(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		sys := NewSystem(Options{Engine: engine, StackSize: 1 << 13})
		sys.Register(assembleSrc(t, lzParentSrc))
		sys.Register(assembleSrc(t, lzKidSrc))
		if _, err := sys.Spawn("lzparent", SpawnConfig{}); err != nil {
			t.Fatal(err)
		}
		va := breakTargetVA(t, sys, "lzparent", "helper")
		hit, err := sys.RunBreak(va, 2, 0)
		if engine == EngineStep && (hit || err != nil) {
			t.Errorf("step RunBreak(helper, 2) = (%v, %v), want a clean miss", hit, err)
		}
		if engine == EngineBlock && (hit || err == nil) {
			t.Errorf("block RunBreak(helper, 2) = (%v, %v), want an error", hit, err)
		}
	}
}

// onceExeSrc calls libbrk.so's f exactly once.
const onceExeSrc = `
.exe once
.needs libbrk.so
.extern f
.global main
.func main
  call f
  ret
`

// TestRunBreakCountsPerProcess pins the arrival rule memo relies on:
// arrivals are counted per process, so two processes that each call f
// once reach a first arrival but never a second.
func TestRunBreakCountsPerProcess(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		t.Run(engine, func(t *testing.T) {
			mk := func() *System {
				sys := NewSystem(Options{Engine: engine, TimeSlice: 3, StackSize: 1 << 13})
				sys.Register(assembleSrc(t, breakLibSrc))
				sys.Register(assembleSrc(t, onceExeSrc))
				for i := 0; i < 2; i++ {
					if _, err := sys.Spawn("once", SpawnConfig{}); err != nil {
						t.Fatal(err)
					}
				}
				return sys
			}
			sys := mk()
			va := breakTargetVA(t, sys, "libbrk.so", "f")
			if hit, err := sys.RunBreak(va, 2, 0); hit || err != nil {
				t.Fatalf("RunBreak(f, 2) = (%v, %v), want no hit: each process calls f once", hit, err)
			}
			sys = mk()
			if hit, err := sys.RunBreak(va, 1, 0); !hit || err != nil {
				t.Fatalf("RunBreak(f, 1) = (%v, %v), want a hit", hit, err)
			}
		})
	}
}
