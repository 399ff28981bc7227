package vm

// RunBreak / mid-execution snapshot equivalence suite: a run stopped at
// a breakpoint, snapshotted, restored and continued must be observably
// identical — registers, flags, memory, call stack, per-process and
// total cycles, exit status, scheduler verdicts — to a run that never
// stopped. This is the correctness foundation of prefix-memoized
// sweeps (internal/core/memo.go).

import (
	"fmt"
	"testing"

	"lfi/internal/isa"
)

// breakLibSrc is the intercept-shaped library: f's entry is the
// breakpoint target (like an interceptor stub's first instruction, it
// cannot block), and each call mutates a global.
const breakLibSrc = `
.lib libbrk.so
.global f
.global gcount
.dataw gcount 0
.func f
  lea r1, gcount
  load r2, [r1+0]
  add r2, 1
  store [r1+0], r2
  mov r0, r2
  ret
`

// breakExeSrc grows the heap mid-run (brk) and then loops: each
// iteration calls f and stores the running count into the mid-Brk heap
// — so a snapshot taken at call N freezes heap state no entry-point
// snapshot ever exercises.
const breakExeSrc = `
.exe breaker
.needs libbrk.so
.extern f
.global main
.func main
  ; brk(0x40000200): grow the heap before the loop
  mov r0, 7
  mov r1, 0x40000200
  syscall
  mov r5, 0
.loop:
  call f
  ; heap[0x40000100 + 4*i] = f() result
  mov r1, r5
  add r1, r1
  add r1, r1
  add r1, 0x40000100
  store [r1+0], r0
  add r5, 1
  cmp r5, 5
  jl .loop
  mov r0, r5
  ret
`

func breakSystem(t testing.TB, opts Options) *System {
	t.Helper()
	sys := NewSystem(opts)
	sys.Register(assembleSrc(t, breakLibSrc))
	sys.Register(assembleSrc(t, breakExeSrc))
	if _, err := sys.Spawn("breaker", SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

func breakTargetVA(t testing.TB, sys *System, image, symbol string) uint32 {
	t.Helper()
	im, ok := sys.procs[0].ImageByName(image)
	if !ok {
		t.Fatalf("no image %s", image)
	}
	va, ok := im.SymbolVA(symbol)
	if !ok {
		t.Fatalf("no symbol %s in %s", symbol, image)
	}
	return va
}

// TestRunBreakEquivalence: break at the N-th arrival, snapshot, restore
// and finish — full machine state must match an unbroken run, for both
// engines, across slice widths that put the breakpoint at every
// position inside a slice, for early/middle/last arrivals.
func TestRunBreakEquivalence(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		for _, slice := range []int{1, 3, 7, 4096} {
			for _, target := range []int32{1, 3, 5} {
				name := fmt.Sprintf("%s/slice%d/call%d", engine, slice, target)
				t.Run(name, func(t *testing.T) {
					opts := Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13}
					ref := breakSystem(t, opts)
					if err := ref.Run(0); err != nil {
						t.Fatalf("reference run: %v", err)
					}

					sys := breakSystem(t, opts)
					va := breakTargetVA(t, sys, "libbrk.so", "f")
					hit, err := sys.RunBreak(va, target, 0)
					if err != nil || !hit {
						t.Fatalf("RunBreak(call %d) = (%v, %v), want hit", target, hit, err)
					}
					if pc := sys.procs[0].PC; pc != va {
						t.Fatalf("stopped at pc=%#x, want %#x", pc, va)
					}
					// The instruction at va has not executed: f has run
					// target-1 times.
					gva := breakTargetVA(t, sys, "libbrk.so", "gcount")
					if g, _ := sys.procs[0].ReadWord(gva); g != target-1 {
						t.Fatalf("gcount at break = %d, want %d", g, target-1)
					}
					snap, err := sys.Snapshot()
					if err != nil {
						t.Fatalf("mid-execution snapshot: %v", err)
					}
					r := snap.Restore()
					if err := r.Run(0); err != nil {
						t.Fatalf("restored run: %v", err)
					}
					if ref.TotalCycles != r.TotalCycles {
						t.Errorf("TotalCycles %d (unbroken) != %d (restored)", ref.TotalCycles, r.TotalCycles)
					}
					compareProcs(t, 0, ref.procs[0], r.procs[0])

					// The broken system itself (not just a restore) also
					// finishes identically.
					if err := sys.Run(0); err != nil {
						t.Fatalf("broken system continue: %v", err)
					}
					if ref.TotalCycles != sys.TotalCycles {
						t.Errorf("TotalCycles %d (unbroken) != %d (continued)", ref.TotalCycles, sys.TotalCycles)
					}
					compareProcs(t, 1, ref.procs[0], sys.procs[0])
				})
			}
		}
	}
}

// TestRunBreakRestoreIsolation: two restores from one mid-execution
// snapshot run independently — the heap a sibling keeps writing stays
// frozen in the snapshot and in unrun siblings.
func TestRunBreakRestoreIsolation(t *testing.T) {
	sys := breakSystem(t, Options{StackSize: 1 << 13})
	va := breakTargetVA(t, sys, "libbrk.so", "f")
	if hit, err := sys.RunBreak(va, 3, 0); err != nil || !hit {
		t.Fatalf("RunBreak = (%v, %v)", hit, err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, b := snap.Restore(), snap.Restore()
	if err := a.Run(0); err != nil {
		t.Fatal(err)
	}
	// a finished the loop: heap slot 4 written. b is still frozen at
	// call 3: slots 2+ untouched (two iterations completed pre-break).
	if w, _ := a.procs[0].ReadWord(0x4000_0100 + 4*4); w != 5 {
		t.Errorf("finished sibling heap[4] = %d, want 5", w)
	}
	if w, _ := b.procs[0].ReadWord(0x4000_0100 + 4*2); w != 0 {
		t.Errorf("frozen sibling heap[2] = %d, want 0", w)
	}
	if err := b.Run(0); err != nil {
		t.Fatal(err)
	}
	compareProcs(t, 0, a.procs[0], b.procs[0])
}

// TestRunBreakBudgetPhase sweeps budgets across the whole run: the
// broken-and-restored system must return the same verdict (ErrBudget or
// nil) at the same TotalCycles as the unbroken run for every budget —
// the resumed partial round must land budget checks on identical slice
// boundaries.
func TestRunBreakBudgetPhase(t *testing.T) {
	for _, slice := range []int{4, 16} {
		opts := Options{TimeSlice: slice, StackSize: 1 << 13}
		full := breakSystem(t, opts)
		if err := full.Run(0); err != nil {
			t.Fatal(err)
		}
		total := full.TotalCycles
		for budget := uint64(30); budget <= total+10; budget += 7 {
			ref := breakSystem(t, opts)
			refErr := ref.Run(budget)

			sys := breakSystem(t, opts)
			va := breakTargetVA(t, sys, "libbrk.so", "f")
			hit, err := sys.RunBreak(va, 3, budget)
			if !hit {
				// Budget ran out before the third call: verdict and cycle
				// count must match the plain run's.
				if err != refErr || sys.TotalCycles != ref.TotalCycles {
					t.Errorf("slice=%d budget=%d: no-hit (%v, %d), plain run (%v, %d)",
						slice, budget, err, sys.TotalCycles, refErr, ref.TotalCycles)
				}
				continue
			}
			snap, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			r := snap.Restore()
			gotErr := r.Run(budget)
			if gotErr != refErr || r.TotalCycles != ref.TotalCycles {
				t.Errorf("slice=%d budget=%d: restored (%v, %d), plain run (%v, %d)",
					slice, budget, gotErr, r.TotalCycles, refErr, ref.TotalCycles)
			}
		}
	}
}

// TestRunBreakNotReached: when the run finishes before the target
// arrival, RunBreak reports no hit with Run-identical final state.
func TestRunBreakNotReached(t *testing.T) {
	ref := breakSystem(t, Options{StackSize: 1 << 13})
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	sys := breakSystem(t, Options{StackSize: 1 << 13})
	va := breakTargetVA(t, sys, "libbrk.so", "f")
	hit, err := sys.RunBreak(va, 99, 0)
	if hit || err != nil {
		t.Fatalf("RunBreak(call 99) = (%v, %v), want clean finish", hit, err)
	}
	if ref.TotalCycles != sys.TotalCycles {
		t.Errorf("TotalCycles %d != %d", ref.TotalCycles, sys.TotalCycles)
	}
	compareProcs(t, 0, ref.procs[0], sys.procs[0])

	if _, err := sys.RunBreak(va, 0, 0); err == nil {
		t.Error("RunBreak(target 0) should reject")
	}
}

// Multi-process break: the parent blocks on a half-full pipe, a kid is
// mid-flight, and the breakpoint lands between the parent's two reads —
// the mid-execution snapshot must carry in-flight pipe bytes, the
// blocked/runnable states and the partial scheduler round.
const breakKidSrc = `
.exe kid
.global main
.dataw w0 0x64636261
.dataw w1 0x68676665
.func main
  ; write 8 bytes to fd 1 (inherited pipe end), then exit 33
  lea r2, w0
  mov r0, 3
  mov r1, 1
  mov r3, 8
  syscall
  mov r0, 1
  mov r1, 33
  syscall
`

const breakParentSrc = `
.exe parent
.global main
.global helper
.datab prog "kid"
.data fds 8
.data buf 16
.data st 4
.func helper
  ; marker between the two reads: the breakpoint target
  mov r5, 0x7e57
  ret
.func main
  ; pipe(fds)
  mov r0, 6
  lea r1, fds
  syscall
  ; spawn("kid", wfd -> kid fd1)
  mov r0, 8
  lea r1, prog
  mov r2, 0
  lea r3, fds
  load r3, [r3+4]
  syscall
  mov r4, r0
  ; read(rfd, buf, 4): may block until the kid writes
  mov r0, 2
  lea r1, fds
  load r1, [r1+0]
  lea r2, buf
  mov r3, 4
  syscall
  call helper
  ; read(rfd, buf+4, 4): the other half stays in flight across the break
  mov r0, 2
  lea r1, fds
  load r1, [r1+0]
  lea r2, buf
  add r2, 4
  mov r3, 4
  syscall
  ; wait(pid, &st)
  mov r0, 9
  mov r1, r4
  lea r2, st
  syscall
  lea r1, st
  load r0, [r1+0]
  ret
`

func TestRunBreakMultiProcess(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		for _, slice := range []int{1, 2, 5, 4096} {
			t.Run(fmt.Sprintf("%s/slice%d", engine, slice), func(t *testing.T) {
				mk := func() *System {
					sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13})
					sys.Register(assembleSrc(t, breakKidSrc))
					sys.Register(assembleSrc(t, breakParentSrc))
					if _, err := sys.Spawn("parent", SpawnConfig{}); err != nil {
						t.Fatal(err)
					}
					return sys
				}
				ref := mk()
				if err := ref.Run(0); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if code := ref.procs[0].Status.Code; code != 33 {
					t.Fatalf("reference exit = %d, want kid status 33", code)
				}

				sys := mk()
				va := breakTargetVA(t, sys, "parent", "helper")
				hit, err := sys.RunBreak(va, 1, 0)
				if err != nil || !hit {
					t.Fatalf("RunBreak = (%v, %v), want hit", hit, err)
				}
				snap, err := sys.Snapshot()
				if err != nil {
					t.Fatalf("mid-execution snapshot: %v", err)
				}
				r := snap.Restore()
				if err := r.Run(0); err != nil {
					t.Fatalf("restored run: %v", err)
				}
				if ref.TotalCycles != r.TotalCycles {
					t.Errorf("TotalCycles %d (unbroken) != %d (restored)", ref.TotalCycles, r.TotalCycles)
				}
				if len(ref.procs) != len(r.procs) {
					t.Fatalf("proc count %d != %d", len(ref.procs), len(r.procs))
				}
				for i := range ref.procs {
					compareProcs(t, i, ref.procs[i], r.procs[i])
				}
			})
		}
	}
}

// A stop set across two processes: the parent calls a twice around
// spawning stopkid and c once after reaping it; the kid calls b twice.
// Every function bumps a shared-library global, so each stop freezes
// different memory.
const stopsLibSrc = `
.lib libstops.so
.global a
.global b
.global c
.dataw n 0
.func a
  lea r1, n
  load r2, [r1+0]
  add r2, 1
  store [r1+0], r2
  ret
.func b
  lea r1, n
  load r2, [r1+0]
  add r2, 10
  store [r1+0], r2
  ret
.func c
  lea r1, n
  load r2, [r1+0]
  add r2, 100
  store [r1+0], r2
  ret
`

const stopsKidSrc = `
.exe stopkid
.needs libstops.so
.extern b
.global main
.func main
  call b
  call b
  mov r0, 1
  mov r1, 7
  syscall
`

const stopsParentSrc = `
.exe stopparent
.needs libstops.so
.extern a
.extern c
.global main
.datab prog "stopkid"
.data st 4
.func main
  call a
  mov r0, 8
  lea r1, prog
  mov r2, 0
  mov r3, 1
  syscall
  mov r4, r0
  call a
  mov r0, 9
  mov r1, r4
  lea r2, st
  syscall
  call c
  lea r1, st
  load r0, [r1+0]
  ret
`

func stopsSystem(t testing.TB, engine string, slice int) *System {
	t.Helper()
	sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13})
	sys.Register(assembleSrc(t, stopsLibSrc))
	sys.Register(assembleSrc(t, stopsKidSrc))
	sys.Register(assembleSrc(t, stopsParentSrc))
	if _, err := sys.Spawn("stopparent", SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	return sys
}

// sameSystem asserts two systems are in the same state: total cycles,
// the recorded scheduler round and every process (registers, cycles,
// status, call stack, memory and coverage).
func sameSystem(t *testing.T, what string, want, got *System) {
	t.Helper()
	if want.TotalCycles != got.TotalCycles || want.resume != got.resume || len(want.procs) != len(got.procs) {
		t.Fatalf("%s: cycles %d/%d, round %+v/%+v, procs %d/%d", what,
			want.TotalCycles, got.TotalCycles, want.resume, got.resume, len(want.procs), len(got.procs))
	}
	for i := range want.procs {
		compareProcs(t, i, want.procs[i], got.procs[i])
	}
}

// TestRunBreakStops: one stop set, hit stop by stop and then run out,
// ends exactly like an unbroken Run; each stop's snapshot is the one a
// one-stop RunBreak takes there, and it stays so after the system that
// took it has run on. The set runs on a restored system, so its
// snapshots share pages with one another and with the live run.
func TestRunBreakStops(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		for _, slice := range []int{1, 2, 5, 4096} {
			t.Run(fmt.Sprintf("%s/slice%d", engine, slice), func(t *testing.T) {
				ref := stopsSystem(t, engine, slice)
				if err := ref.Run(0); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if len(ref.procs) != 2 || ref.procs[0].Status.Code != 7 {
					t.Fatalf("reference: %d procs, exit %+v, want 2 and the kid's 7", len(ref.procs), ref.procs[0].Status)
				}
				entry, err := stopsSystem(t, engine, slice).Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sys := entry.Restore()
				left := []Stop{
					{VA: breakTargetVA(t, sys, "libstops.so", "c"), Target: 1},
					{VA: breakTargetVA(t, sys, "libstops.so", "a"), Target: 1},
					{VA: breakTargetVA(t, sys, "libstops.so", "b"), Target: 1},
				}
				type taken struct {
					stop Stop
					snap *Snapshot
				}
				var stops []taken
				for len(left) > 0 {
					hit, err := sys.RunStops(left, 0)
					if hit < 0 || err != nil {
						t.Fatalf("RunStops(%d left) = (%d, %v), want a hit", len(left), hit, err)
					}
					parked := false
					for _, p := range sys.procs {
						parked = parked || !p.Exited && p.PC == left[hit].VA
					}
					if !parked {
						t.Fatalf("no process parked on stop %#x", left[hit].VA)
					}
					snap, err := sys.Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					stops = append(stops, taken{left[hit], snap})
					left = append(left[:hit], left[hit+1:]...)
				}
				if hit, err := sys.RunStops(nil, 0); hit != -1 || err != nil {
					t.Fatalf("RunStops(empty) = (%d, %v), want a plain finish", hit, err)
				}
				sameSystem(t, "stopped and finished", ref, sys)
				pids := map[int]bool{}
				for _, st := range stops {
					one := entry.Restore()
					if hit, err := one.RunBreak(st.stop.VA, st.stop.Target, 0); !hit || err != nil {
						t.Fatalf("RunBreak(%#x) = (%v, %v)", st.stop.VA, hit, err)
					}
					at := st.snap.Restore()
					sameSystem(t, fmt.Sprintf("stop %#x", st.stop.VA), one, at)
					for _, p := range at.procs {
						if !p.Exited && p.PC == st.stop.VA {
							pids[p.ID] = true
						}
					}
					if err := at.Run(0); err != nil {
						t.Fatal(err)
					}
					sameSystem(t, fmt.Sprintf("restored at %#x and finished", st.stop.VA), ref, at)
				}
				if len(pids) != 2 {
					t.Errorf("stops hit in %d processes, want 2", len(pids))
				}
			})
		}
	}
}

// TestRunStopsRejects: a set holding a stop the block engine cannot
// see (mid-block), a repeated VA or a non-positive target errors before
// anything runs.
func TestRunStopsRejects(t *testing.T) {
	sys := paritySystem(t, EngineBlock, 4096)
	head := breakTargetVA(t, sys, "parity", "head")
	mid := breakTargetVA(t, sys, "parity", "mid")
	for _, set := range [][]Stop{
		{{VA: head, Target: 1}, {VA: mid + isa.Size, Target: 1}},
		{{VA: head, Target: 1}, {VA: head, Target: 2}},
		{{VA: mid, Target: 1}, {VA: head, Target: 0}},
	} {
		if hit, err := sys.RunStops(set, 0); hit != -1 || err == nil {
			t.Errorf("RunStops(%+v) = (%d, %v), want an error", set, hit, err)
		}
		if sys.TotalCycles != 0 {
			t.Fatalf("RunStops(%+v) ran %d cycles before rejecting", set, sys.TotalCycles)
		}
	}
}
