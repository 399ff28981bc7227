package vm

// Differential cases for the dispatch loop staying in the image across
// calls, returns, host-call returns and completed syscalls: the block
// engine no longer leaves execBlock at those transfers when the target
// is in the same image, so each must still land every slice boundary,
// cycle count, breakpoint arrival and host-call observation where the
// step engine puts it.

import (
	"fmt"
	"testing"
)

// staySrc spins like a server whose accept keeps failing: an in-image
// call loop whose callees trap into the kernel — accept on a listener
// whose queued connection cannot get a descriptor (EMFILE under armed
// fd pressure, so the syscall completes instead of blocking), and
// yield — followed by a host call that returns into main and a call to
// after, a callee reached only right after that host return.
const staySrc = `
.exe stayer
.extern probe
.global main
.global acc
.global yld
.global after
.dataw errs 0
.dataw calls 0
.func main
  ; lfd = socket(); listen(lfd, 7100)
  mov r0, 10
  syscall
  mov r4, r0
  mov r0, 19
  mov r1, r4
  mov r2, 7100
  syscall
  ; connect(socket(), 7100): one connection queued on the backlog
  mov r0, 10
  syscall
  mov r1, r0
  mov r0, 11
  mov r2, 7100
  syscall
  mov r5, 0
.loop:
  push r4
  call acc
  add sp, 4
  call yld
  push r5
  call probe
  add sp, 4
  call after
  add r5, 1
  cmp r5, 40
  jl .loop
  lea r1, errs
  load r0, [r1+0]
  ret
.func acc
  load r1, [sp+4]
  mov r0, 12
  syscall
  cmp r0, 0
  jge .ok
  lea r2, errs
  load r3, [r2+0]
  add r3, 1
  store [r2+0], r3
.ok:
  ret
.func yld
  mov r0, 17
  syscall
  ret
.func after
  lea r2, calls
  load r3, [r2+0]
  add r3, r0
  store [r2+0], r3
  ret
`

// stayBuild spawns staySrc with two descriptors of headroom: the
// listener and the connecting socket use them up, so every accept
// fails with EMFILE and the connection stays queued.
func stayBuild(t testing.TB, sys *System, obs *[]hostObs) {
	sys.Register(assembleSrc(t, staySrc))
	installProbe(sys, obs)
	p, err := sys.Spawn("stayer", SpawnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Kernel().ArmFDPressure(p.ID, 2)
}

// TestLockstepStay locksteps the spinning guest across slice widths
// that split its run at every call, return, host return and syscall.
func TestLockstepStay(t *testing.T) {
	want := ExitStatus{Code: 40} // every accept failed
	for _, slice := range []int{1, 2, 3, 5, 7, 4096} {
		for _, cov := range []bool{false, true} {
			t.Run(fmt.Sprintf("slice%d/cov=%v", slice, cov), func(t *testing.T) {
				runLockstep(t, lockstepCase{
					opts:     Options{TimeSlice: slice, Coverage: cov, StackSize: 1 << 13},
					rounds:   200000,
					wantExit: &want,
					build:    stayBuild,
				})
			})
		}
	}
}

// TestRunBreakStayParity breaks at every arrival at each callee of the
// spinning loop — acc and yld (in-image calls that trap into the
// kernel) and after (reached only by the in-image call following a
// host return) — and compares the step and block stops, then the
// finished runs.
func TestRunBreakStayParity(t *testing.T) {
	mk := func(engine string, slice int) *System {
		var obs []hostObs
		sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 13})
		stayBuild(t, sys, &obs)
		return sys
	}
	for _, sym := range []string{"acc", "yld", "after"} {
		for _, slice := range []int{1, 2, 3, 5, 4096} {
			t.Run(fmt.Sprintf("%s/slice%d", sym, slice), func(t *testing.T) {
				for target := int32(1); ; target++ {
					step, block := mk(EngineStep, slice), mk(EngineBlock, slice)
					va := breakTargetVA(t, step, "stayer", sym)
					sh, serr := step.RunBreak(va, target, 0)
					bh, berr := block.RunBreak(va, target, 0)
					if sh != bh || serr != berr {
						t.Fatalf("target %d: step (%v, %v), block (%v, %v)", target, sh, serr, bh, berr)
					}
					compareBreakState(t, step, block)
					if !sh {
						if target-1 != 40 {
							t.Fatalf("%d arrivals, want 40", target-1)
						}
						return
					}
					if pc := block.procs[0].PC; pc != va {
						t.Fatalf("target %d: stopped at pc=%#x, want %#x", target, pc, va)
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
}
