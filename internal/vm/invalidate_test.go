package vm

// Cache-invalidation coverage for the execution engine's two caches:
// the per-proc read/write segment windows (memWindow) and the per-image
// compiled block table (execCode). Serving stale entries would mean
// reads from a pre-Brk heap array, writes lost into a dropped backing
// slice, or blocks executed from the wrong image — each test drives the
// scenario end to end and checks the observable memory state.

import (
	"testing"

	"lfi/internal/isa"
)

// memProc builds a minimal process with a writable heap-like segment,
// enough for the word/byte paths and Brk to run without a full Spawn.
func memProc(heapLen int) *Proc {
	sys := NewSystem(Options{HeapLimit: 1 << 20})
	p := &Proc{Sys: sys, brk: heapBase + uint32(heapLen)}
	p.heap = &segment{base: heapBase, data: make([]byte, heapLen), writable: true, name: "heap"}
	p.segs = append(p.segs, p.heap)
	return p
}

// TestSegmentCacheInvalidation is the table-driven stale-window check:
// each mutation that swaps or grows a segment's backing array must drop
// the cached read/write windows so the next access re-resolves.
func TestSegmentCacheInvalidation(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"brk-growth-write-window", func(t *testing.T) {
			p := memProc(64)
			// Prime the write window on the old heap array.
			if err := p.WriteWord(heapBase, 0x11223344); err != nil {
				t.Fatal(err)
			}
			if p.wrc.data == nil {
				t.Fatal("write window not primed")
			}
			old := p.heap.data
			if ret := p.Brk(heapBase + 4096); ret < 0 {
				t.Fatalf("brk: %d", ret)
			}
			if &p.heap.data[0] == &old[0] {
				t.Skip("append did not move the heap; stale-window hazard not reproducible")
			}
			if p.wrc.data != nil || p.rdc.data != nil {
				t.Fatal("Brk growth must invalidate both cache windows")
			}
			// A write after growth must land in the new array...
			if err := p.WriteWord(heapBase+8, 0x55667788); err != nil {
				t.Fatal(err)
			}
			if v, _ := p.ReadWord(heapBase + 8); v != 0x55667788 {
				t.Fatalf("post-brk write read back %#x", uint32(v))
			}
			// ...and the pre-growth value must have been carried over.
			if v, _ := p.ReadWord(heapBase); v != 0x11223344 {
				t.Fatalf("pre-brk value read back %#x", uint32(v))
			}
			// The old array must not see the new write (proves the new
			// window is not aliasing the dropped allocation).
			if old[8] != 0 {
				t.Fatal("write leaked into the pre-brk backing array")
			}
		}},
		{"brk-growth-read-window", func(t *testing.T) {
			p := memProc(64)
			p.heap.data[0] = 0xAB
			if _, err := p.ReadByteAt(heapBase); err != nil {
				t.Fatal(err)
			}
			if p.rdc.data == nil {
				t.Fatal("read window not primed")
			}
			if ret := p.Brk(heapBase + 4096); ret < 0 {
				t.Fatalf("brk: %d", ret)
			}
			if p.rdc.data != nil {
				t.Fatal("Brk growth must invalidate the read window")
			}
			// Bytes past the old length exist only in the new array; a
			// stale window would fault (or read the wrong array).
			if v, err := p.ReadByteAt(heapBase + 100); err != nil || v != 0 {
				t.Fatalf("read past old length: %v %v", v, err)
			}
		}},
		{"brk-shrink-regrow", func(t *testing.T) {
			p := memProc(0)
			if ret := p.Brk(heapBase + 0x1000); ret < 0 {
				t.Fatalf("grow: %d", ret)
			}
			if err := p.WriteWord(heapBase+0x800, 0x5EEDF00D); err != nil {
				t.Fatal(err)
			}
			if ret := p.Brk(heapBase + 0x100); ret < 0 {
				t.Fatalf("shrink: %d", ret)
			}
			if p.wrc.data != nil || p.rdc.data != nil {
				t.Fatal("shrink must invalidate the cache windows")
			}
			// Memory beyond brk is unmapped after the shrink...
			if err := p.WriteWord(heapBase+0x800, 1); err == nil {
				t.Fatal("write beyond shrunk brk must fail")
			}
			if ret := p.Brk(heapBase + 0x1000); ret < 0 {
				t.Fatalf("regrow: %d", ret)
			}
			// ...and regrown memory reads as zero, not as the stale
			// pre-shrink bytes.
			if v, err := p.ReadWord(heapBase + 0x800); err != nil || v != 0 {
				t.Fatalf("regrown word = %#x, %v; want 0", uint32(v), err)
			}
			if got := len(p.heap.data); got != 0x1000 {
				t.Fatalf("heap length %#x desynchronised from brk", got)
			}
		}},
		{"brk-query-keeps-windows", func(t *testing.T) {
			p := memProc(64)
			if err := p.WriteWord(heapBase, 1); err != nil {
				t.Fatal(err)
			}
			if ret := p.Brk(0); uint32(ret) != p.brk {
				t.Fatalf("brk(0) = %d", ret)
			}
			if p.wrc.data == nil {
				t.Fatal("brk(0) is a query; it must not drop the windows")
			}
		}},
		{"cow-privatize-drops-read-window", func(t *testing.T) {
			// Rebuild the heap as a CoW overlay of a shared template —
			// the shape a snapshot Restore produces.
			p := memProc(0)
			template := make([]byte, 2*pageSize)
			template[5] = 0xAA
			p.heap.data = nil
			p.heap.cow = &cowSeg{
				length: len(template),
				pages:  pageViews(template),
				dirty:  make([]bool, 2),
			}
			p.brk = heapBase + uint32(len(template))
			// Prime the read window on the shared first page.
			if v, err := p.ReadByteAt(heapBase + 5); err != nil || v != 0xAA {
				t.Fatalf("template read: %#x, %v", v, err)
			}
			if p.rdc.data == nil {
				t.Fatal("read window not primed")
			}
			// The first write to the page copies it; the read window
			// aliasing the shared view must drop, or the next read keeps
			// serving template bytes the write no longer reaches.
			if err := p.WriteByteAt(heapBase+6, 0x42); err != nil {
				t.Fatal(err)
			}
			if v, _ := p.ReadByteAt(heapBase + 6); v != 0x42 {
				t.Fatalf("read after privatizing write = %#x, want 0x42 (stale shared-page window)", v)
			}
			if template[6] != 0 {
				t.Fatal("write leaked into the shared template page")
			}
			// Untouched neighbouring pages stay shared and readable.
			if v, err := p.ReadByteAt(heapBase + pageSize + 1); err != nil || v != 0 {
				t.Fatalf("untouched page read: %#x, %v", v, err)
			}
			if p.heap.cow.dirty[1] {
				t.Fatal("untouched page marked dirty")
			}
		}},
		{"brk-drops-recent-windows", func(t *testing.T) {
			p := memProc(64)
			if err := p.WriteWord(heapBase, 1); err != nil {
				t.Fatal(err)
			}
			if p.recent(heapBase, 4, true) == nil {
				t.Fatal("recent window not primed")
			}
			if ret := p.Brk(heapBase + 4096); ret < 0 {
				t.Fatalf("brk: %d", ret)
			}
			for _, w := range p.wins {
				if w.data != nil {
					t.Fatal("Brk must drop the recent windows too")
				}
			}
		}},
		{"cow-privatize-drops-recent-window", func(t *testing.T) {
			// A recent window over a shared page must go when the page
			// is privatized, even by a write that installs no window of
			// its own (WriteBytes).
			p := memProc(0)
			template := make([]byte, 2*pageSize)
			p.heap.data = nil
			p.heap.cow = &cowSeg{
				length: len(template),
				pages:  pageViews(template),
				dirty:  make([]bool, 2),
			}
			p.brk = heapBase + uint32(len(template))
			// Remember page 0's shared view, then move rdc to page 1.
			if _, err := p.ReadByteAt(heapBase + 5); err != nil {
				t.Fatal(err)
			}
			if _, err := p.ReadByteAt(heapBase + pageSize); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteBytes(heapBase+5, []byte{0x42}); err != nil {
				t.Fatal(err)
			}
			if v, _ := p.ReadByteAt(heapBase + 5); v != 0x42 {
				t.Fatalf("read after WriteBytes = %#x, want 0x42 (stale recent window)", v)
			}
			if template[5] != 0 {
				t.Fatal("write leaked into the shared template page")
			}
		}},
		{"recent-window-serves-write-only-when-private", func(t *testing.T) {
			// A read remembers a shared CoW page as read-only: a later
			// write must still go through the barrier.
			p := memProc(0)
			template := make([]byte, pageSize)
			p.heap.data = nil
			p.heap.cow = &cowSeg{length: len(template), pages: pageViews(template), dirty: make([]bool, 1)}
			p.brk = heapBase + uint32(len(template))
			if _, err := p.ReadWord(heapBase); err != nil {
				t.Fatal(err)
			}
			p.rdc = memWindow{}
			if err := p.WriteWord(heapBase, 0x0D0C0B0A); err != nil {
				t.Fatal(err)
			}
			if !p.heap.cow.dirty[0] || template[0] != 0 {
				t.Fatal("write through a remembered shared window skipped the barrier")
			}
		}},
		{"window-rejects-other-segment", func(t *testing.T) {
			p := memProc(64)
			lo := &segment{base: 0x1000, data: make([]byte, 64), writable: true, name: "lo"}
			p.segs = append(p.segs, lo)
			// Prime both windows on the heap, then access the low
			// segment: the wrapped offset must miss, not alias.
			if err := p.WriteWord(heapBase, 7); err != nil {
				t.Fatal(err)
			}
			if _, err := p.ReadWord(heapBase); err != nil {
				t.Fatal(err)
			}
			if err := p.WriteWord(0x1000, 0x0BADF00D); err != nil {
				t.Fatal(err)
			}
			if v, _ := p.ReadWord(0x1000); v != 0x0BADF00D {
				t.Fatalf("cross-segment write read back %#x", uint32(v))
			}
			if v, _ := p.ReadWord(heapBase); v != 7 {
				t.Fatalf("heap word clobbered: %#x", uint32(v))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// TestRestoreStartsWithColdCaches pins the snapshot contract: priming
// the template's windows must not leak into restores (each restored
// proc owns fresh segment arrays; a carried window would alias the
// template's memory and corrupt it from a sibling run).
func TestRestoreStartsWithColdCaches(t *testing.T) {
	var obs []hostObs
	sys := NewSystem(Options{StackSize: 1 << 14, HeapLimit: 1 << 16})
	buildCorpusApp(t, sys, &obs)
	tpl := sys.procs[0]
	// Prime the template's windows on its own stack/data.
	if err := tpl.WriteWord(tpl.Regs[isa.SP]-8, 0x7777); err != nil {
		t.Fatal(err)
	}
	if _, err := tpl.ReadWord(tpl.Regs[isa.SP] - 8); err != nil {
		t.Fatal(err)
	}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r1 := snap.Restore()
	p1 := r1.procs[0]
	if p1.rdc.data != nil || p1.wrc.data != nil {
		t.Fatal("restored proc must start with cold cache windows")
	}
	// Write through the restored proc and verify the template and a
	// sibling restore see nothing (the window must bind to the
	// restore's own copy of the segment).
	addr := p1.Regs[isa.SP] - 8
	if err := p1.WriteWord(addr, 0x1234); err != nil {
		t.Fatal(err)
	}
	if v, _ := tpl.ReadWord(addr); v == 0x1234 && addr != tpl.Regs[isa.SP]-8 {
		t.Fatal("restore write visible in template")
	}
	tv, _ := tpl.ReadWord(tpl.Regs[isa.SP] - 8)
	if tv != 0x7777 {
		t.Fatalf("template word changed to %#x after restore write", uint32(tv))
	}
	p2 := snap.Restore().procs[0]
	if v, _ := p2.ReadWord(addr); v == 0x1234 {
		t.Fatal("restore write visible in sibling restore")
	}
}

// TestBlockCacheCrossImage pins the block-table side: a DlNext
// tail-jump chain hops exe -> stub -> library text in one call, and
// each hop must dispatch the destination image's own compiled blocks
// (a stale table would mis-slice the run or mis-cover the wrong image).
func TestBlockCacheCrossImage(t *testing.T) {
	lib := assembleSrc(t, `
.lib libreal.so
.global f
.func f
  load r1, [sp+4]
  add r1, 1000
  mov r0, r1
  ret
`)
	stub := assembleSrc(t, `
.lib stub.so
.needs libreal.so
.global f
.func f
  dlnext r3, f
  jmpi r3
`)
	exe := assembleSrc(t, `
.exe main
.extern f
.global main
.func main
  push 42
  call f
  pop r1
  ret
`)
	sys := NewSystem(Options{Engine: EngineBlock, StackSize: 1 << 13, Coverage: true})
	sys.Register(lib)
	sys.Register(stub)
	sys.Register(exe)
	p, err := sys.Spawn("main", SpawnConfig{Preload: []string{"stub.so"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if p.Status.Code != 1042 {
		t.Fatalf("exit = %+v, want 1042 (42 through stub and library)", p.Status)
	}
	// Every image on the chain has its own block table and its own
	// coverage: each must have been executed under its own table.
	for _, name := range []string{"main", "stub.so", "libreal.so"} {
		im, ok := p.ImageByName(name)
		if !ok {
			t.Fatalf("image %s missing", name)
		}
		if im.exec == nil {
			t.Fatalf("image %s has no compiled blocks", name)
		}
		if !im.Covered(0) {
			t.Errorf("image %s: entry instruction not covered", name)
		}
	}
}

// TestEngineAllocFree is the AllocsPerOp floor for both engines: with
// the fail closure hoisted out of step() and the segment windows
// replacing per-access error allocations, steady-state interpretation
// of compute code allocates nothing on either engine.
func TestEngineAllocFree(t *testing.T) {
	for _, engine := range []string{EngineStep, EngineBlock} {
		t.Run(engine, func(t *testing.T) {
			sys := NewSystem(Options{Engine: engine, StackSize: 1 << 13})
			sys.Register(assembleSrc(t, `
.exe spin
.global main
.func main
.loop:
  add r1, 1
  push r1
  pop r2
  add r3, r2
  cmp r1, 0
  jne .loop
  ret
.global idle
.func idle
  ret
.global spare
.func spare
  ret
`))
			if _, err := sys.Spawn("spin", SpawnConfig{}); err != nil {
				t.Fatal(err)
			}
			// Warm the segment windows and block dispatch.
			if err := sys.RunUntil(nil, 10_000); err != ErrBudget {
				t.Fatalf("warmup: %v", err)
			}
			allocs := testing.AllocsPerRun(10, func() {
				if err := sys.RunUntil(nil, 50_000); err != ErrBudget {
					t.Fatalf("run: %v", err)
				}
			})
			if allocs > 0 {
				t.Errorf("engine %s allocates %.1f objects per 50k instructions, want 0", engine, allocs)
			}
			// RunBreak shares the scheduler loop: arming, stopping on the
			// loop head's 1000th arrival and recording the round allocate
			// nothing either.
			main, _ := sys.procs[0].Images[0].SymbolVA("main")
			allocs = testing.AllocsPerRun(10, func() {
				if hit, err := sys.RunBreak(main, 1000, 0); !hit || err != nil {
					t.Fatalf("RunBreak = (%v, %v)", hit, err)
				}
			})
			if allocs > 0 {
				t.Errorf("engine %s RunBreak allocates %.1f objects per call, want 0", engine, allocs)
			}
			// So does a stop set, where the loop head shares its image
			// with two stops it never reaches.
			idle, _ := sys.procs[0].Images[0].SymbolVA("idle")
			spare, _ := sys.procs[0].Images[0].SymbolVA("spare")
			stops := []Stop{{VA: spare, Target: 1}, {VA: main, Target: 1000}, {VA: idle, Target: 1}}
			allocs = testing.AllocsPerRun(10, func() {
				if hit, err := sys.RunStops(stops, 0); hit != 1 || err != nil {
					t.Fatalf("RunStops = (%d, %v)", hit, err)
				}
			})
			if allocs > 0 {
				t.Errorf("engine %s RunStops allocates %.1f objects per call, want 0", engine, allocs)
			}
		})
	}
}
