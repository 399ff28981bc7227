package vm

// The differential oracle for the block-compiled execution engine: the
// legacy per-instruction interpreter (EngineStep) is the reference, and
// every test here runs the same guest under both engines in lockstep —
// one scheduler round at a time — asserting identical registers, flags,
// PCs, per-process and total cycle counts, memory images, coverage bits,
// exit statuses and host-call-boundary observations after every round.
// A sweep-report-level differential (fresh-spawn and snapshot executors,
// 1/4/8 workers) lives in internal/core.

import (
	"bytes"
	"fmt"
	"testing"

	"lfi/internal/asm"
	"lfi/internal/isa"
	"lfi/internal/libc"
	"lfi/internal/minic"
	"lfi/internal/obj"
)

func assembleSrc(t testing.TB, src string) *obj.File {
	t.Helper()
	f, err := asm.Assemble("t.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return f
}

// hostObs is one host-call-boundary observation: everything a host
// function (and therefore an LFI interceptor's trigger evaluator) can
// see about the calling process at the moment of the call.
type hostObs struct {
	pid    int
	regs   [isa.NumRegs]uint32
	sp     uint32
	cycles uint64
	total  uint64
	depth  int // shadow call stack depth
}

// lockstepCase builds one System per engine. The build function must be
// deterministic: register the same programs, files and host functions,
// and spawn the same processes on whichever system it is given.
type lockstepCase struct {
	name  string
	opts  Options
	build func(t testing.TB, sys *System, obs *[]hostObs)
	// rounds caps the scheduler rounds before the test declares the
	// guest wedged (0 = default).
	rounds int
	// wantExit, when non-nil, asserts the first process's final status —
	// a guard against a guest that "passes" lockstep only because it
	// fails identically on both engines.
	wantExit *ExitStatus
}

// schedRound mirrors one iteration of System.schedule's inner loop and
// reports whether the system can still make progress.
func schedRound(s *System) (done bool) {
	alive, progress := 0, false
	for _, p := range s.procs {
		if p.Exited {
			continue
		}
		alive++
		if p.runSlice(s.opts.TimeSlice) > 0 {
			progress = true
		}
	}
	return alive == 0 || !progress
}

func compareProcs(t testing.TB, round int, a, b *Proc) {
	t.Helper()
	if a.PC != b.PC || a.Regs != b.Regs || a.flagEQ != b.flagEQ || a.flagLT != b.flagLT {
		t.Fatalf("round %d pid %d: state diverged\n step:  pc=%#x regs=%v eq=%v lt=%v\n block: pc=%#x regs=%v eq=%v lt=%v",
			round, a.ID, a.PC, a.Regs, a.flagEQ, a.flagLT, b.PC, b.Regs, b.flagEQ, b.flagLT)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("round %d pid %d: cycles %d (step) != %d (block)", round, a.ID, a.Cycles, b.Cycles)
	}
	if a.Exited != b.Exited || a.Status != b.Status || a.blocked != b.blocked || a.brk != b.brk {
		t.Fatalf("round %d pid %d: exited=%v/%v status=%+v/%+v blocked=%v/%v brk=%#x/%#x",
			round, a.ID, a.Exited, b.Exited, a.Status, b.Status, a.blocked, b.blocked, a.brk, b.brk)
	}
	if len(a.CallStack) != len(b.CallStack) {
		t.Fatalf("round %d pid %d: call stack depth %d != %d", round, a.ID, len(a.CallStack), len(b.CallStack))
	}
	for i := range a.CallStack {
		if a.CallStack[i] != b.CallStack[i] {
			t.Fatalf("round %d pid %d: frame %d %+v != %+v", round, a.ID, i, a.CallStack[i], b.CallStack[i])
		}
	}
	if len(a.segs) != len(b.segs) {
		t.Fatalf("round %d pid %d: segment count %d != %d", round, a.ID, len(a.segs), len(b.segs))
	}
	for i, sg := range a.segs {
		// flatten, not sg.data: either side may be a CoW restore whose
		// segment lives behind a page table (data == nil).
		if sg.base != b.segs[i].base || sg.name != b.segs[i].name || !bytes.Equal(sg.flatten(), b.segs[i].flatten()) {
			t.Fatalf("round %d pid %d: segment %s diverged", round, a.ID, sg.name)
		}
	}
	if len(a.Images) != len(b.Images) {
		t.Fatalf("round %d pid %d: image count %d != %d", round, a.ID, len(a.Images), len(b.Images))
	}
	for i, im := range a.Images {
		bm := b.Images[i]
		if (im.CoverBits == nil) != (bm.CoverBits == nil) {
			t.Fatalf("round %d pid %d: coverage enabled on one engine only", round, a.ID)
		}
		for w := range im.CoverBits {
			if im.CoverBits[w] != bm.CoverBits[w] {
				t.Fatalf("round %d pid %d image %s: coverage word %d %#x (step) != %#x (block)",
					round, a.ID, im.File.Name, w, im.CoverBits[w], bm.CoverBits[w])
			}
		}
	}
}

func runLockstep(t *testing.T, tc lockstepCase) {
	t.Helper()
	var obsStep, obsBlock []hostObs
	mk := func(engine string, obs *[]hostObs) *System {
		opts := tc.opts
		opts.Engine = engine
		sys := NewSystem(opts)
		tc.build(t, sys, obs)
		return sys
	}
	a := mk(EngineStep, &obsStep)
	b := mk(EngineBlock, &obsBlock)

	rounds := tc.rounds
	if rounds == 0 {
		rounds = 20000
	}
	finished := false
	for round := 0; round < rounds; round++ {
		doneA := schedRound(a)
		doneB := schedRound(b)
		if a.TotalCycles != b.TotalCycles {
			t.Fatalf("round %d: TotalCycles %d (step) != %d (block)", round, a.TotalCycles, b.TotalCycles)
		}
		if len(a.procs) != len(b.procs) {
			t.Fatalf("round %d: process count %d != %d", round, len(a.procs), len(b.procs))
		}
		for i := range a.procs {
			compareProcs(t, round, a.procs[i], b.procs[i])
		}
		if doneA != doneB {
			t.Fatalf("round %d: step done=%v, block done=%v", round, doneA, doneB)
		}
		if doneA {
			finished = true
			break
		}
	}
	if !finished {
		t.Fatalf("guest still running after %d scheduler rounds", rounds)
	}
	if tc.wantExit != nil {
		if got := a.procs[0].Status; got != *tc.wantExit {
			t.Fatalf("final status = %+v, want %+v", got, *tc.wantExit)
		}
	}
	if len(obsStep) != len(obsBlock) {
		t.Fatalf("host-call boundaries: %d (step) != %d (block)", len(obsStep), len(obsBlock))
	}
	for i := range obsStep {
		if obsStep[i] != obsBlock[i] {
			t.Fatalf("host call %d: boundary observation diverged\n step:  %+v\n block: %+v",
				i, obsStep[i], obsBlock[i])
		}
	}
}

// installProbe registers the shared host function that snapshots the
// caller at every host-call boundary.
func installProbe(sys *System, obs *[]hostObs) {
	sys.RegisterHost("probe", func(hc *HostCall) int32 {
		*obs = append(*obs, hostObs{
			pid:    hc.Proc.ID,
			regs:   hc.Proc.Regs,
			sp:     hc.sp,
			cycles: hc.Proc.Cycles,
			total:  hc.Sys.TotalCycles,
			depth:  len(hc.Proc.CallStack),
		})
		hc.ChargeCycles(3) // interceptor-style virtual-time charge
		return int32(len(*obs))
	})
}

// corpusApp is a minic program touching every subsystem a sweep
// experiment exercises: compute loops, libc syscall wrappers (open/
// read/close/write), heap growth through malloc/brk, TLS errno access,
// byte and word loads/stores, and host-function calls.
const corpusApp = `
needs "libc.so";
extern int open(byte *path, int flags, int mode);
extern int close(int fd);
extern int read(int fd, byte *buf, int n);
extern int write(int fd, byte *buf, int n);
extern byte *malloc(int n);
extern int probe(int x);
extern tls int errno;
int main(void) {
  int fd;
  int n;
  int i;
  int acc;
  byte buf[32];
  byte *p;
  acc = 0;
  for (i = 0; i < 300; i = i + 1) { acc = acc + i * 3 - (i / 7); }
  probe(acc);
  fd = open("/data", 0, 0);
  if (fd < 0) { return 2; }
  n = read(fd, buf, 31);
  if (n < 0) { n = 0; }
  close(fd);
  p = malloc(4096);
  if (p == 0) { return 7; }
  p[0] = 'x';
  p[4095] = 'y';
  probe(errno);
  write(1, buf, n);
  probe(n);
  return 5;
}
`

func buildCorpusApp(t testing.TB, sys *System, obs *[]hostObs) {
	lc, err := libc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	app, err := minic.Compile("app", corpusApp, obj.Executable)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(lc)
	sys.Register(app)
	sys.Kernel().AddFile("/data", []byte("mode=differential\n"))
	installProbe(sys, obs)
	if _, err := sys.Spawn("app", SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
}

// TestLockstepCorpusApp is the core differential: the corpus app under
// both engines, across time-slice widths that force superblocks to be
// split at every possible point (slice 1 = one instruction per slice),
// with and without coverage.
func TestLockstepCorpusApp(t *testing.T) {
	for _, slice := range []int{1, 3, 7, 4096} {
		for _, cov := range []bool{false, true} {
			name := fmt.Sprintf("slice%d/cov=%v", slice, cov)
			t.Run(name, func(t *testing.T) {
				rounds := 20000
				if slice == 1 {
					rounds = 400000
				}
				runLockstep(t, lockstepCase{
					opts:   Options{TimeSlice: slice, Coverage: cov, StackSize: 1 << 14, HeapLimit: 1 << 16},
					build:  buildCorpusApp,
					rounds: rounds,
				})
			})
		}
	}
}

// TestLockstepInterceptorChain exercises the LD_PRELOAD idiom the LFI
// controller generates — a preloaded interceptor that counts calls,
// probes the host boundary and tail-jumps to the real definition with
// OpDlNext — so the block engine's cross-image dispatch (exe text ->
// stub text -> library text) is covered at block granularity.
func TestLockstepInterceptorChain(t *testing.T) {
	lib := `
.lib libreal.so
.global f
.func f
  ; f(x) = x + 100, sets a global marker
  load r1, [sp+4]
  add r1, 100
  mov r0, r1
  ret
`
	stub := `
.lib stub.so
.needs libreal.so
.global f
.extern probe
.dataw count 0
.func f
  ; count++
  lea r1, count
  load r2, [r1+0]
  add r2, 1
  store [r1+0], r2
  push r2
  call probe
  pop r2
  ; tail-jump to the next definition of f
  dlnext r3, f
  jmpi r3
`
	exe := `
.exe main
.extern f
.global main
.func main
  mov r4, 0
  mov r5, 0
.loop:
  push r4
  call f
  pop r1
  add r5, r0
  add r4, 1
  cmp r4, 5
  jl .loop
  mov r0, r5
  ret
`
	for _, slice := range []int{1, 4096} {
		t.Run(fmt.Sprintf("slice%d", slice), func(t *testing.T) {
			runLockstep(t, lockstepCase{
				opts:     Options{TimeSlice: slice, StackSize: 1 << 13, Coverage: true},
				rounds:   200000,
				wantExit: &ExitStatus{Code: 510},
				build: func(t testing.TB, sys *System, obs *[]hostObs) {
					sys.Register(assembleSrc(t, lib))
					sys.Register(assembleSrc(t, stub))
					sys.Register(assembleSrc(t, exe))
					installProbe(sys, obs)
					if _, err := sys.Spawn("main", SpawnConfig{Preload: []string{"stub.so"}}); err != nil {
						t.Fatal(err)
					}
				},
			})
		})
	}
}

// TestLockstepMultiProcess drives the spawn/pipe/wait machinery: a
// parent spawning a child, blocked reads on an empty pipe, blocked
// waits, and round-robin interleaving between runnable processes.
func TestLockstepMultiProcess(t *testing.T) {
	kid := `
.exe kid
.global main
.dataw word 0x64636261
.func main
  ; write 4 bytes to fd 1 (inherited pipe end), then exit 33
  lea r2, word
  mov r0, 3
  mov r1, 1
  mov r3, 4
  syscall
  mov r0, 1
  mov r1, 33
  syscall
`
	parent := `
.exe parent
.global main
.datab prog "kid"
.data fds 8
.data buf 8
.data st 4
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
  ; wait(pid, &st)
  mov r0, 9
  mov r1, r4
  lea r2, st
  syscall
  lea r1, st
  load r0, [r1+0]
  ret
`
	for _, slice := range []int{1, 2, 4096} {
		t.Run(fmt.Sprintf("slice%d", slice), func(t *testing.T) {
			runLockstep(t, lockstepCase{
				opts:     Options{TimeSlice: slice, StackSize: 1 << 13},
				rounds:   100000,
				wantExit: &ExitStatus{Code: 33},
				build: func(t testing.TB, sys *System, obs *[]hostObs) {
					sys.Register(assembleSrc(t, kid))
					sys.Register(assembleSrc(t, parent))
					if _, err := sys.Spawn("parent", SpawnConfig{}); err != nil {
						t.Fatal(err)
					}
				},
			})
		})
	}
}

// TestLockstepFaults pins the failure paths: both engines must kill the
// process on the same instruction with the same signal, cycle count and
// coverage, for every fault class the step engine distinguishes.
func TestLockstepFaults(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"div-by-zero", `
.exe a
.global main
.func main
  mov r1, 7
  mov r2, 0
  div r1, r2
  ret
`},
		{"mod-by-zero", `
.exe a
.global main
.func main
  mov r1, 7
  mov r2, 0
  mod r1, r2
  ret
`},
		{"store-unmapped", `
.exe a
.global main
.func main
  mov r1, 0x200
  mov r2, 5
  store [r1+0], r2
  ret
`},
		{"load-unmapped", `
.exe a
.global main
.func main
  mov r1, 0x200
  load r2, [r1+0]
  ret
`},
		{"store-readonly-text", `
.exe a
.global main
.func main
  mov r1, 0x01000000
  mov r2, 5
  store [r1+0], r2
  ret
`},
		{"jmpi-unmapped", `
.exe a
.global main
.func main
  mov r1, 0x40
  jmpi r1
`},
		{"jmpi-misaligned", `
.exe a
.global main
.func main
  ; jump into the middle of an encoded instruction: execution continues
  ; with a skewed PC (floor-of-PC decode) until it walks into the halt —
  ; the block engine must delegate every misaligned step to the
  ; reference interpreter and stay in lockstep throughout.
  mov r1, 0x01000014
  jmpi r1
  nop
  nop
  nop
  nop
  halt
`},
		{"callr-host-range", `
.exe a
.global main
.func main
  mov r1, 0xF0001000
  callr r1
  ret
`},
		{"ret-corrupt-stack", `
.exe a
.global main
.func main
  mov sp, 0x80
  ret
`},
		{"stack-overflow-push", `
.exe a
.global main
.func main
  mov sp, 0x7F0FF000
.loop:
  push r1
  jmp .loop
`},
		{"dlnext-missing", `
.exe a
.global main
.func main
  dlnext r1, main
  jmpi r1
`},
		{"pop-into-sp", `
.exe a
.global main
.func main
  ; pop whose destination is SP itself: the popped value must win
  ; over the post-pop increment, on both engines (then the skewed
  ; stack faults the ret identically).
  push 0x7F0F0000
  pop sp
  push r1
  pop r2
  ret
`},
		{"push-sp", `
.exe a
.global main
.func main
  ; push of SP stores the already-decremented SP on both engines
  push sp
  pop r1
  mov r0, r1
  ret
`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, slice := range []int{1, 4096} {
				runLockstep(t, lockstepCase{
					opts:   Options{TimeSlice: slice, StackSize: 1 << 13, Coverage: true},
					rounds: 3_000_000,
					build: func(t testing.TB, sys *System, obs *[]hostObs) {
						sys.Register(assembleSrc(t, tc.src))
						if _, err := sys.Spawn("a", SpawnConfig{}); err != nil {
							t.Fatal(err)
						}
					},
				})
			}
		})
	}
}

// TestDlNextNegativeImmFaults pins the crafted-object hardening of the
// per-image dlnext table: the assembler never emits an import index
// outside the import table, but obj.Decode accepts one from disk —
// negative, one past the end, or far beyond it — and each must fault
// the guest with SIGSEGV on both engines, not panic the host with an
// index-out-of-range.
func TestDlNextNegativeImmFaults(t *testing.T) {
	imports := []string{"open"}
	crafted := func(imm int32) *obj.File {
		var text []byte
		for _, in := range []isa.Inst{
			{Op: isa.OpDlNext, A: isa.R1, Imm: imm},
			{Op: isa.OpRet},
		} {
			text = append(text, in.EncodeBytes()...)
		}
		return &obj.File{
			Name:    "crafted",
			Kind:    obj.Executable,
			Text:    text,
			Imports: imports,
			Symbols: []obj.Symbol{
				{Name: "main", Kind: obj.SymFunc, Off: 0, Size: int32(len(text)), Exported: true},
			},
		}
	}
	cases := []struct {
		name string
		imm  int32
	}{
		{"negative", -1},
		{"len-imports", int32(len(imports))},
		{"large", 1 << 30},
	}
	for _, engine := range []string{EngineStep, EngineBlock} {
		t.Run(engine, func(t *testing.T) {
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					sys := NewSystem(Options{Engine: engine, StackSize: 1 << 13})
					sys.Register(crafted(tc.imm))
					p, err := sys.Spawn("crafted", SpawnConfig{})
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.Run(1000); err != nil {
						t.Fatal(err)
					}
					if p.Status.Signal != SigSEGV {
						t.Errorf("imm %d: status = %+v, want SIGSEGV", tc.imm, p.Status)
					}
				})
			}
		})
	}
}

// TestLockstepBudgetAndErrors pins the scheduler verdicts: both engines
// must return the same error (ErrBudget / ErrDeadlock / ErrIdle / nil)
// at the same TotalCycles.
func TestLockstepBudgetAndErrors(t *testing.T) {
	spin := `
.exe a
.global main
.func main
.loop:
  add r1, 1
  add r2, r1
  cmp r1, 0
  jne .loop
  ret
`
	blockRead := `
.exe a
.global main
.data fds 8
.func main
  mov r0, 6
  lea r1, fds
  syscall
  mov r0, 2
  lea r1, fds
  load r1, [r1+0]
  lea r2, fds
  mov r3, 4
  syscall
  ret
`
	run := func(t *testing.T, src string, f func(*System) error) (uint64, uint64, error, error) {
		t.Helper()
		mk := func(engine string) *System {
			sys := NewSystem(Options{Engine: engine, StackSize: 1 << 13})
			sys.Register(assembleSrc(t, src))
			if _, err := sys.Spawn("a", SpawnConfig{}); err != nil {
				t.Fatal(err)
			}
			return sys
		}
		a, b := mk(EngineStep), mk(EngineBlock)
		errA, errB := f(a), f(b)
		return a.TotalCycles, b.TotalCycles, errA, errB
	}

	ca, cb, ea, eb := run(t, spin, func(s *System) error { return s.Run(100_000) })
	if ea != ErrBudget || eb != ErrBudget || ca != cb {
		t.Errorf("budget: step (%v, %d) vs block (%v, %d), want ErrBudget at equal cycles", ea, ca, eb, cb)
	}
	ca, cb, ea, eb = run(t, blockRead, func(s *System) error { return s.Run(1_000_000) })
	if ea != ErrDeadlock || eb != ErrDeadlock || ca != cb {
		t.Errorf("deadlock: step (%v, %d) vs block (%v, %d), want ErrDeadlock at equal cycles", ea, ca, eb, cb)
	}
	ca, cb, ea, eb = run(t, blockRead, func(s *System) error { return s.RunUntil(nil, 1_000_000) })
	if ea != ErrIdle || eb != ErrIdle || ca != cb {
		t.Errorf("idle: step (%v, %d) vs block (%v, %d), want ErrIdle at equal cycles", ea, ca, eb, cb)
	}
}

// TestLockstepChainedLoops is the dedicated differential for superblock
// chaining: a guest that is almost nothing but chainable control flow —
// hot backward branches (nested loops), alternating taken/not-taken
// forward conditionals, unconditional forward jumps, and one cross-image
// call that must break the chain — lockstepped across slice widths that
// split chains at every possible point (slice 1 = one instruction per
// dispatch, so chaining never fires; 4096 = whole loop nests chained
// inside a single execBlock call).
func TestLockstepChainedLoops(t *testing.T) {
	lib := `
.lib libg.so
.global g
.func g
  load r1, [sp+4]
  add r1, r1
  add r1, 5
  mov r0, r1
  ret
`
	exe := `
.exe chained
.needs libg.so
.extern g
.global main
.func main
  mov r5, 0
  mov r1, 0
.outer:
  mov r2, 0
.inner:
  add r5, r2
  add r2, 1
  cmp r2, 7
  jl .inner
  add r1, 1
  cmp r1, 50
  jl .outer
  mov r3, 0
.fwd:
  cmp r3, 0
  jne .odd
  add r5, 11
  jmp .join
.odd:
  add r5, 3
.join:
  add r3, 1
  cmp r3, 40
  jl .fwd
  push r5
  call g
  pop r1
  ret
`
	// inner sums 0..6 per outer pass (21*50), the forward chain adds
	// 11 + 39*3, and g doubles-plus-5: (1050+128)*2+5.
	want := ExitStatus{Code: 2361}
	for _, slice := range []int{1, 2, 3, 5, 17, 4096} {
		for _, cov := range []bool{false, true} {
			t.Run(fmt.Sprintf("slice%d/cov=%v", slice, cov), func(t *testing.T) {
				runLockstep(t, lockstepCase{
					opts:     Options{TimeSlice: slice, Coverage: cov, StackSize: 1 << 13},
					rounds:   400000,
					wantExit: &want,
					build: func(t testing.TB, sys *System, obs *[]hostObs) {
						sys.Register(assembleSrc(t, lib))
						sys.Register(assembleSrc(t, exe))
						installProbe(sys, obs)
						if _, err := sys.Spawn("chained", SpawnConfig{}); err != nil {
							t.Fatal(err)
						}
					},
				})
			})
		}
	}
}

// TestLockstepSnapshotRestore runs the differential over the fork-server
// path: snapshot the corpus app post-spawn, then lockstep a restored
// system per engine. Restored images share the template's compiled block
// cache (including the chain table) and restored segments are CoW
// overlays of the template's pages, so this also proves both kinds of
// sharing introduce no cross-run state — at every slice width.
func TestLockstepSnapshotRestore(t *testing.T) {
	for _, slice := range []int{1, 7, 4096} {
		t.Run(fmt.Sprintf("slice%d", slice), func(t *testing.T) {
			var obsStep, obsBlock []hostObs
			mk := func(engine string, obs *[]hostObs) *System {
				sys := NewSystem(Options{Engine: engine, TimeSlice: slice, StackSize: 1 << 14, HeapLimit: 1 << 16, Coverage: true})
				buildCorpusApp(t, sys, obs)
				snap, err := sys.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restored := snap.Restore()
				// The restored system shares host-function slots with the
				// template; rebind the probe to this run's log, as the
				// controller rebinds its evaluator per experiment.
				installProbe(restored, obs)
				return restored
			}
			a := mk(EngineStep, &obsStep)
			b := mk(EngineBlock, &obsBlock)
			for _, im := range b.procs[0].Images {
				if im.exec == nil {
					t.Fatalf("restored image %s lost its compiled block cache", im.File.Name)
				}
			}
			rounds := 20000
			if slice == 1 {
				rounds = 400000
			}
			for round := 0; round < rounds; round++ {
				doneA := schedRound(a)
				doneB := schedRound(b)
				if a.TotalCycles != b.TotalCycles {
					t.Fatalf("round %d: TotalCycles %d != %d", round, a.TotalCycles, b.TotalCycles)
				}
				for i := range a.procs {
					compareProcs(t, round, a.procs[i], b.procs[i])
				}
				if doneA != doneB {
					t.Fatalf("round %d: done %v vs %v", round, doneA, doneB)
				}
				if doneA {
					if len(obsStep) == 0 || len(obsStep) != len(obsBlock) {
						t.Fatalf("host observations: %d vs %d", len(obsStep), len(obsBlock))
					}
					return
				}
			}
			t.Fatal("restored guest did not finish")
		})
	}
}
