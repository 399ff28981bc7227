package vm_test

import (
	"sync"
	"testing"

	"lfi/internal/asm"
	"lfi/internal/vm"
)

// snapTestLib mutates a global, grows the heap via brk and rewrites a
// kernel file — every class of mutable state a restore must isolate.
const snapTestLibSrc = `
.lib libsnap.so
.global touch
.global gword
.dataw gword 7
.dataw path 0x6174642f
.dataw path0 0
.dataw msg 0x21746968
.func touch
  ; gword = gword + 1
  lea r1, gword
  load r2, [r1+0]
  add r2, 1
  store [r1+0], r2
  ; brk(0x40000100): grow the heap, then write into it
  mov r0, 7
  mov r1, 0x40000100
  syscall
  mov r1, 0x40000080
  mov r2, 0x5a5a5a5a
  store [r1+0], r2
  ; fd = open("/dta", O_CREAT|O_TRUNC|O_WRONLY)
  mov r0, 4
  lea r1, path
  mov r2, 577
  syscall
  mov r4, r0
  ; write(fd, msg, 4)
  mov r0, 3
  mov r1, r4
  lea r2, msg
  mov r3, 4
  syscall
  mov r0, 0
  ret
`

const snapTestExeSrc = `
.exe snapped
.needs libsnap.so
.extern touch
.extern gword
.global main
.func main
  call touch
  lea r1, gword
  load r0, [r1+0]
  ret
`

func snapTestSystem(t *testing.T, opts vm.Options) *vm.System {
	t.Helper()
	sys := vm.NewSystem(opts)
	for _, src := range []string{snapTestLibSrc, snapTestExeSrc} {
		f, err := asm.Assemble("t.s", src)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		sys.Register(f)
	}
	sys.Kernel().AddFile("/dta", []byte("original"))
	if _, err := sys.Spawn("snapped", vm.SpawnConfig{}); err != nil {
		t.Fatalf("spawn: %v", err)
	}
	return sys
}

func libData(t *testing.T, p *vm.Proc) (gword int32, heapWord int32) {
	t.Helper()
	im, ok := p.ImageByName("libsnap.so")
	if !ok {
		t.Fatal("no libsnap.so image")
	}
	va, ok := im.SymbolVA("gword")
	if !ok {
		t.Fatal("no gword symbol")
	}
	gword, err := p.ReadWord(va)
	if err != nil {
		t.Fatalf("read gword: %v", err)
	}
	heapWord, _ = p.ReadWord(0x4000_0080) // errors leave it 0 (heap not grown)
	return gword, heapWord
}

// TestSnapshotRestoreRuns: a restored system runs to the same result as
// the template would, and the exit code proves data/heap state works.
func TestSnapshotRestoreRuns(t *testing.T) {
	sys := snapTestSystem(t, vm.Options{})
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := snap.Restore()
	if err := r.Run(0); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	p := r.Procs()[0]
	if p.Status.Code != 8 || p.Status.Signal != 0 { // gword 7+1
		t.Errorf("restored run status = %+v, want code 8", p.Status)
	}
	if gw, hw := libData(t, p); gw != 8 || hw != 0x5a5a5a5a {
		t.Errorf("restored run state: gword=%d heap=%#x", gw, hw)
	}
	if data, ok := r.Kernel().FileData("/dta"); !ok || string(data) != "hit!" {
		t.Errorf("restored kernel file = %q", data)
	}
	// The template also still runs, from its own untouched state.
	if err := sys.Run(0); err != nil {
		t.Fatalf("template run after snapshot: %v", err)
	}
	if code := sys.Procs()[0].Status.Code; code != 8 {
		t.Errorf("template run exit = %d, want 8", code)
	}
}

// TestSnapshotIsolation is the core contract: one restored run's
// mutations of data segments, heap and kernel files must be invisible
// to the template and to a sibling restore. Run with -race: the sibling
// is inspected from another goroutine while the first restore runs.
func TestSnapshotIsolation(t *testing.T) {
	sys := snapTestSystem(t, vm.Options{})
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	mutated := snap.Restore()
	sibling := snap.Restore()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := mutated.Run(0); err != nil {
			t.Errorf("mutated run: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		// Concurrent reads of the sibling's copies while the first
		// restore writes its own: -race proves nothing is shared.
		p := sibling.Procs()[0]
		if gw, hw := libData(t, p); gw != 7 || hw != 0 {
			t.Errorf("sibling pre-run state: gword=%d heap=%#x", gw, hw)
		}
	}()
	wg.Wait()

	// After the first restore ran to completion, the sibling and the
	// template still see pristine state everywhere.
	for name, s := range map[string]*vm.System{"sibling": sibling, "template": sys} {
		p := s.Procs()[0]
		if p.Exited {
			t.Errorf("%s process exited without running", name)
		}
		if gw, hw := libData(t, p); gw != 7 || hw != 0 {
			t.Errorf("%s leaked memory writes: gword=%d heap=%#x", name, gw, hw)
		}
		if data, ok := s.Kernel().FileData("/dta"); !ok || string(data) != "original" {
			t.Errorf("%s leaked kernel file writes: %q", name, data)
		}
	}
	// And the sibling still runs to the same result as the first.
	if err := sibling.Run(0); err != nil {
		t.Fatalf("sibling run: %v", err)
	}
	if code := sibling.Procs()[0].Status.Code; code != 8 {
		t.Errorf("sibling exit = %d, want 8", code)
	}
}

// TestSnapshotSharesImmutableImages: restores share decoded
// instructions, patched text and symbol tables with the template —
// the O(writable bytes) claim — unless coverage forces private bits.
func TestSnapshotSharesImmutableImages(t *testing.T) {
	sys := snapTestSystem(t, vm.Options{})
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, b := snap.Restore(), snap.Restore()
	ia := a.Procs()[0].Images
	ib := b.Procs()[0].Images
	for i := range ia {
		if ia[i] != ib[i] {
			t.Errorf("image %d not shared between restores without coverage", i)
		}
	}

	cov := snapTestSystem(t, vm.Options{Coverage: true})
	csnap, err := cov.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ca, cb := csnap.Restore(), csnap.Restore()
	if err := ca.Run(0); err != nil {
		t.Fatal(err)
	}
	caim := ca.Procs()[0].Images[0]
	cbim := cb.Procs()[0].Images[0]
	if caim == cbim {
		t.Fatal("images must be private copies when coverage is on")
	}
	if caim.File != cbim.File || &caim.Insts[0] != &cbim.Insts[0] {
		t.Error("object file and decoded instructions must still be shared")
	}
	if !caim.Covered(0) {
		t.Error("run did not mark coverage")
	}
	if cbim.Covered(0) {
		t.Error("coverage bits leaked into the sibling restore")
	}
}

// TestSnapshotFreezesCoverage: the snapshot must capture coverage bits
// by value — the template stays runnable after Snapshot, and coverage
// it accumulates afterwards must not leak into later restores.
func TestSnapshotFreezesCoverage(t *testing.T) {
	sys := snapTestSystem(t, vm.Options{Coverage: true})
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(0); err != nil { // mutate the template's CoverBits
		t.Fatal(err)
	}
	if !sys.Procs()[0].Images[0].Covered(0) {
		t.Fatal("template run did not mark coverage")
	}
	r := snap.Restore()
	if r.Procs()[0].Images[0].Covered(0) {
		t.Error("template coverage accumulated after Snapshot leaked into a restore")
	}
}

// TestSnapshotProcessTree: snapshots taken of multi-process systems
// rebind parent/child links onto the restored processes.
func TestSnapshotProcessTree(t *testing.T) {
	sys := vm.NewSystem(vm.Options{})
	child, err := asm.Assemble("c.s", `
.exe child
.global main
.func main
  mov r0, 5
  ret
`)
	if err != nil {
		t.Fatal(err)
	}
	parent, err := asm.Assemble("p.s", `
.exe parent
.global main
.dataw cname 0x6c696863
.dataw cname0 0x64
.func main
  ; spawn("child", 0, 1) then wait(-1, 0)
  mov r0, 8
  lea r1, cname
  mov r2, 0
  mov r3, 1
  syscall
  mov r0, 9
  mov r1, -1
  mov r2, 0
  syscall
  mov r0, 0
  ret
`)
	if err != nil {
		t.Fatal(err)
	}
	sys.Register(child)
	sys.Register(parent)
	if _, err := sys.Spawn("parent", vm.SpawnConfig{}); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := snap.Restore()
	if err := r.Run(0); err != nil {
		t.Fatalf("restored parent/child run: %v", err)
	}
	procs := r.Procs()
	if len(procs) != 2 {
		t.Fatalf("got %d processes, want parent+child", len(procs))
	}
	for _, p := range procs {
		if !p.Exited || p.Status.Signal != 0 {
			t.Errorf("pid %d: %+v", p.ID, p.Status)
		}
		if p.Sys != r {
			t.Errorf("pid %d backpointer not rebound to the restored system", p.ID)
		}
	}
}

// TestSnapshotRestoreAllocs bounds the allocations of a mid-run
// Snapshot and of a Restore, the per-rung and per-run costs of a
// memoized sweep. The program registry and host index are shared
// copy-on-write and the parent index comes from a scan of the process
// list, so neither call copies a map of its own; what is left is the
// kernel clone, the process and segment tables and the page tables.
// A registration that adds a name after the snapshot, on a restore or
// on the snapshotted system, copies the shared maps, leaving the
// snapshot's registry as it was.
func TestSnapshotRestoreAllocs(t *testing.T) {
	tmpl, err := snapTestSystem(t, vm.Options{}).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sys := tmpl.Restore()
	im, _ := sys.Procs()[0].ImageByName("libsnap.so")
	touch, _ := im.SymbolVA("touch")
	if hit, err := sys.RunBreak(touch, 1, 0); !hit || err != nil {
		t.Fatalf("RunBreak = (%v, %v)", hit, err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := sys.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}); n > 19 {
		t.Errorf("mid-run Snapshot allocates %.0f objects, want <= 19", n)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { snap.Restore() }); n > 35 {
		t.Errorf("Restore allocates %.0f objects, want <= 35", n)
	}

	extra, err := asm.Assemble("x.s", ".exe extra\n.global main\n.func main\n  mov r0, 3\n  ret\n")
	if err != nil {
		t.Fatal(err)
	}
	r := snap.Restore()
	r.Register(extra)
	if _, err := r.Spawn("extra", vm.SpawnConfig{}); err != nil {
		t.Fatalf("spawn on the restore: %v", err)
	}
	if _, err := sys.Spawn("extra", vm.SpawnConfig{}); err == nil {
		t.Error("a registration on a restore leaked into the snapshotted system")
	}
	sys.Register(extra)
	if _, err := snap.Restore().Spawn("extra", vm.SpawnConfig{}); err == nil {
		t.Error("a registration leaked into the snapshot")
	}
}
