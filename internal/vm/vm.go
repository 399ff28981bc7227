// Package vm implements the SIA-32 virtual machine: a dynamic-linking
// loader and interpreter with processes, a synthetic kernel, host-function
// bridging and basic-block coverage hooks.
//
// The loader honours preload order when resolving imported symbols — the
// reproduction's LD_PRELOAD analogue (§5.1): interceptor libraries
// synthesised by the LFI controller are listed in SpawnConfig.Preload and
// win symbol resolution over the original libraries. The OpDlNext
// instruction resolves "the next definition of my own exported symbol",
// mirroring dlsym(RTLD_NEXT), so stubs can tail-jump to the functions they
// shadow.
//
// Execution is deterministic: processes are scheduled round-robin with
// fixed time slices, every instruction costs one cycle, and the kernel
// introduces no spontaneous events. Virtual time (cycles / ClockHz) is
// what the overhead experiments (paper Tables 3 and 4) report. The two
// engines (Options.Engine) end every run in the same state; the block
// engine may skip the periods of a provable budget-bound spin
// (spin.go) to get there, the step engine never does.
package vm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"lfi/internal/isa"
	"lfi/internal/kernel"
	"lfi/internal/obj"
)

// Address-space layout constants.
const (
	moduleStride = 0x0100_0000
	moduleBase   = 0x0100_0000
	dataOffset   = 0x0040_0000
	tlsOffset    = 0x0060_0000
	heapBase     = 0x4000_0000
	stackTop     = 0x7F10_0000
	hostBase     = 0xF000_0000
	exitSentinel = 0xFFFF_FFF0
)

// ClockHz converts cycles to virtual seconds in experiment reports.
const ClockHz = 100_000_000

// Signal numbers used in exit statuses.
const (
	SigABRT = 6
	SigFPE  = 8
	SigSEGV = 11
)

// HostFunc is a native function callable from VM code through an import.
// It runs with the calling process stopped at the call site and returns
// the value to place in R0. hc is reused by the process's next host
// call, so it must not be retained past the return.
type HostFunc func(hc *HostCall) int32

// HostCall gives a host function access to its caller.
type HostCall struct {
	Sys  *System
	Proc *Proc
	sp   uint32 // SP at entry (points at the return address)
}

// Arg returns the i-th 32-bit stack argument of the host call.
func (h *HostCall) Arg(i int) int32 {
	v, err := h.Proc.ReadWord(h.sp + 4 + uint32(4*i))
	if err != nil {
		return 0
	}
	return v
}

// ArgAddr returns the address of the i-th stack argument.
func (h *HostCall) ArgAddr(i int) uint32 { return h.sp + 4 + uint32(4*i) }

// ChargeCycles accounts virtual time for work the host function performs
// on behalf of the process — e.g. the trigger evaluation an LD_PRELOAD
// interceptor would execute natively. This is what makes the overhead
// experiments (paper Tables 3 and 4) observable in virtual time.
func (h *HostCall) ChargeCycles(n uint64) {
	h.Proc.Cycles += n
	h.Sys.TotalCycles += n
}

// Image is one module loaded into a process address space.
type Image struct {
	File     *obj.File
	TextBase uint32
	DataBase uint32
	TLSBase  uint32
	Insts    []isa.Inst // decoded after relocation patching
	// CoverBits marks executed instruction slots when coverage is on.
	CoverBits []uint64

	text    []byte
	symVA   map[string]uint32 // exported symbol -> VA
	funcsVA []vaSym           // sorted by VA, for reverse lookup
	// exec is the block-compiled form of Insts (see exec.go), built once
	// after relocation. Like text and Insts it is immutable, so snapshot
	// restores and coverage shallow-copies share it by pointer.
	exec *execCode
	// next is the dlsym(RTLD_NEXT) target of each import, by import
	// index, resolved at relocation for images whose code uses dlnext
	// (nil otherwise). It is immutable and shared like exec.
	next []nextTarget
	// callees[i]-1 indexes labels for the direct call at instruction i
	// (0 elsewhere, and for host targets, which push no frame): the
	// shadow-stack label of every direct call target, resolved once at
	// relocation so the block engine's calls skip the image and symbol
	// searches. Images without such calls get no table. Immutable and
	// shared like next.
	callees []int32
	labels  []frameLabel
}

// frameLabel names a call target in its shadow-stack Frame.
type frameLabel struct {
	sym, mod string
}

// callLabel returns the precomputed label of the direct call at
// instruction i, or nil when the call needs no frame.
func (im *Image) callLabel(i int) *frameLabel {
	if i < len(im.callees) {
		if j := im.callees[i]; j > 0 {
			return &im.labels[j-1]
		}
	}
	return nil
}

// nextTarget is one resolved dlnext operand; ok is false when no image
// past the importing one defines the symbol.
type nextTarget struct {
	va uint32
	ok bool
}

// dlnext returns the RTLD_NEXT target of the import index an OpDlNext
// instruction encodes. The index comes from the instruction, which a
// crafted object file controls, so both bounds are checked: an index
// outside the import table resolves nothing and the guest faults
// instead of the host panicking.
func (im *Image) dlnext(imm int32) (uint32, bool) {
	if imm < 0 || int(imm) >= len(im.next) {
		return 0, false
	}
	t := im.next[imm]
	return t.va, t.ok
}

type vaSym struct {
	va   uint32
	name string
}

// SymbolVA resolves an exported symbol of this image to its VA.
func (im *Image) SymbolVA(name string) (uint32, bool) {
	va, ok := im.symVA[name]
	return va, ok
}

// FuncNameAt returns the name of the function containing the VA, if known.
func (im *Image) FuncNameAt(va uint32) string {
	i := sort.Search(len(im.funcsVA), func(i int) bool { return im.funcsVA[i].va > va })
	if i == 0 {
		return ""
	}
	return im.funcsVA[i-1].name
}

// Covered reports whether the instruction at the given text offset ran.
func (im *Image) Covered(off int32) bool {
	if im.CoverBits == nil {
		return false
	}
	idx := int(off) / isa.Size
	return im.CoverBits[idx/64]&(1<<(idx%64)) != 0
}

// Frame is one entry of the shadow call stack, used for the paper's
// stack-trace triggers (§4).
type Frame struct {
	FuncVA uint32
	Symbol string // best-effort name ("" for stripped locals)
	Module string
	RetPC  uint32
}

// ExitStatus describes how a process terminated.
type ExitStatus struct {
	Code   int32
	Signal int32 // 0 = normal exit; SigABRT/SigSEGV/SigFPE otherwise
}

// Wait-status encoding written by sys_wait: code for normal exits,
// 128+signal for signal deaths (shell convention).
func (e ExitStatus) wstatus() int32 {
	if e.Signal != 0 {
		return 128 + e.Signal
	}
	return e.Code
}

// SignalName returns "SIGABRT"-style names.
func SignalName(sig int32) string {
	switch sig {
	case SigABRT:
		return "SIGABRT"
	case SigFPE:
		return "SIGFPE"
	case SigSEGV:
		return "SIGSEGV"
	}
	return fmt.Sprintf("SIG%d", sig)
}

// SpawnConfig controls process creation.
type SpawnConfig struct {
	// Preload lists library names loaded ahead of the executable's
	// needed libraries in symbol search order (the LD_PRELOAD slot).
	Preload []string
	// InheritFDs maps child descriptors to (parent) descriptors; used by
	// sys_spawn to pass pipe ends.
	InheritFDs map[int32]int32
	parent     *Proc
}

// Proc is one SIA-32 process.
type Proc struct {
	ID  int
	Sys *System

	Regs   [isa.NumRegs]uint32
	PC     uint32
	flagEQ bool
	flagLT bool

	Images []*Image // symbol search order: exe, preloads, needed libs

	Exited bool
	Status ExitStatus
	Cycles uint64

	CallStack []Frame

	// hc is the host-call context, reused by every host call this
	// process makes.
	hc HostCall

	segs    []*segment
	lastSeg *segment
	lastImg *Image
	rdc     memWindow // last segment hit by a word/byte read
	wrc     memWindow // last writable segment hit by a word/byte write
	// wins are the recently used windows the memory slow paths check
	// before searching the segments; winNext is the next one to replace.
	wins     [numWins]recentWin
	winNext  int
	brk      uint32
	heap     *segment
	blocked  bool
	cfg      SpawnConfig
	parent   *Proc
	children []*Proc
	reaped   bool
	// stopCounts[j] is this process's arrivals at the j-th armed stop
	// (in VA order); parked is j+1 while the PC has stayed on that stop
	// since its last counted arrival, 0 otherwise.
	stopCounts []int32
	parked     int
	// spin is the block engine's spin detector (spin.go).
	spin spinState
}

// segment is one mapping of a process address space. Exactly one of
// two representations backs it: a flat data slice (fresh spawns,
// read-only segments, flat restores), or a copy-on-write page table
// (writable segments of a CoW restore — see cow.go). data is nil iff
// cow is non-nil.
type segment struct {
	base     uint32
	data     []byte
	writable bool
	name     string
	cow      *cowSeg
}

func (s *segment) contains(addr uint32) bool {
	return addr >= s.base && addr < s.base+uint32(s.length())
}

// memWindow is one entry of the per-process segment cache: a direct view
// of a segment's backing slice. Word and byte accesses that land inside
// the window skip the seg() scan and the MemoryError allocation of the
// slow path entirely. The zero value is an always-miss window.
//
// Windows alias segment data, so in-place mutation (stores, syscalls,
// host writes) stays coherent; only an operation that swaps a segment's
// backing array — Brk growing the heap — must invalidate them. Restored
// and freshly spawned processes start with empty windows.
type memWindow struct {
	base uint32
	data []byte
}

// numWins is how many recently used windows a process keeps beyond rdc
// and wrc. A guest loop typically touches its stack, its own data, a
// library's data and TLS; four windows hold all of them, so a loop that
// alternates between them refills rdc/wrc without a segment search.
const numWins = 4

// recentWin is one recently used window. writable marks windows a
// write may use: flat writable segments and already-private CoW pages.
type recentWin struct {
	memWindow
	writable bool
}

// recent returns the recent window holding n bytes at addr — a
// writable one if write is set — or nil.
func (p *Proc) recent(addr uint32, n uint64, write bool) *memWindow {
	for i := range p.wins {
		w := &p.wins[i]
		if off := addr - w.base; uint64(off)+n <= uint64(len(w.data)) && (w.writable || !write) {
			return &w.memWindow
		}
	}
	return nil
}

// remember records a window the slow path just installed, replacing
// the entry for the same base (a CoW page that became private) or
// else the oldest one.
func (p *Proc) remember(w memWindow, writable bool) {
	for i := range p.wins {
		if p.wins[i].base == w.base {
			p.wins[i] = recentWin{w, writable}
			return
		}
	}
	p.wins[p.winNext] = recentWin{w, writable}
	p.winNext = (p.winNext + 1) % numWins
}

// invalidateMemCache drops every cache window; called when a segment's
// backing array may have been reallocated (Brk).
func (p *Proc) invalidateMemCache() {
	p.rdc = memWindow{}
	p.wrc = memWindow{}
	p.wins = [numWins]recentWin{}
}

// MemoryError reports an invalid VM memory access.
type MemoryError struct {
	Addr  uint32
	Write bool
}

// Error implements the error interface.
func (e *MemoryError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("vm: invalid %s at %#x", op, e.Addr)
}

// Execution engines. The block engine is the production interpreter;
// the step engine is the per-instruction reference it is differentially
// tested against. Only tests select it, through Options.Engine.
const (
	// EngineBlock runs predecoded superblocks with per-block image
	// resolution, segment-cached memory and batched cycle/coverage
	// accounting (see exec.go). Decision-for-decision identical to
	// EngineStep: same scheduling, cycle counts at every observable
	// boundary, coverage bits, exit statuses. Within a Run with a
	// budget it also skips whole periods of provable spins (spin.go),
	// landing in the state the skipped instructions would have left.
	EngineBlock = "block"
	// EngineStep is the legacy one-instruction-at-a-time interpreter,
	// kept as the test oracle for EngineBlock. It never skips.
	EngineStep = "step"
)

// DefaultEngine is the engine used when Options.Engine is empty.
const DefaultEngine = EngineBlock

// Options configures a System.
type Options struct {
	// HeapLimit bounds per-process heap growth via sys_brk (default 1 MiB).
	HeapLimit uint32
	// StackSize is the per-process stack size (default 1 MiB).
	StackSize uint32
	// Coverage enables executed-instruction tracking on all images.
	Coverage bool
	// TimeSlice is the round-robin quantum in instructions (default 4096).
	TimeSlice int
	// Engine selects the interpreter: EngineBlock or EngineStep
	// (default DefaultEngine). It is the test-oracle selector: the
	// lockstep and sweep differential tests set EngineStep to run the
	// reference interpreter beside the block engine. The contract: a
	// system ends every Run, RunUntil and RunStops call in the same
	// state on both engines — registers, flags, memory, call stacks,
	// cycle counters, kernel, coverage, and the state of host functions
	// — and observes the same values at every host call and syscall
	// it executes. The block engine gets there by batching, and by
	// skipping the periods of a provable spin (spin.go), which the step
	// engine executes one instruction at a time; so host calls and
	// syscalls inside skipped periods are not made on the block
	// engine, and a host function's part in a skip is its HostSpin
	// proof. See the package doc's determinism contract.
	Engine string
}

// System owns the program registry, host functions, kernel and processes.
type System struct {
	opts     Options
	programs map[string]*obj.File
	hosts    []host
	hostIdx  map[string]int
	// sharedMaps is set while programs and hostIdx are shared with a
	// snapshot (taken of this system, or restored into it): the next
	// Register or RegisterHost that adds a name copies them first.
	sharedMaps bool
	kern       *kernel.Kernel
	procs      []*Proc
	nextPID    int
	// resume, when pending, is the partially-completed scheduler round a
	// RunStops stop left behind; the next schedule call finishes it
	// before starting fresh rounds. Snapshot/Restore carry it so a
	// system restored from a mid-execution snapshot replays the exact
	// slice boundaries of an unbroken run.
	resume schedResume
	// stop is the stop set RunStops arms for the duration of its
	// schedule call (unarmed otherwise).
	stop breakpoint
	// spinLimit is the absolute TotalCycles budget limit below which
	// the block engine may fast-forward a proved spin (spin.go), for
	// the duration of a schedule call that allows it; 0 otherwise.
	spinLimit uint64
	// skipped counts the cycles spin fast-forwards skipped.
	skipped uint64
	// TotalCycles accumulates cycles across all processes.
	TotalCycles uint64
}

// NewSystem creates a System with the given options.
func NewSystem(opts Options) *System {
	if opts.HeapLimit == 0 {
		opts.HeapLimit = 1 << 20
	}
	if opts.StackSize == 0 {
		opts.StackSize = 1 << 20
	}
	if opts.TimeSlice == 0 {
		opts.TimeSlice = 4096
	}
	switch opts.Engine {
	case "":
		opts.Engine = DefaultEngine
	case EngineBlock, EngineStep:
	default:
		// The dispatch check is "step or not", so an unvalidated typo
		// ("Step", "stpe") would silently select the block engine —
		// precisely the wrong failure mode for a differential test
		// oracle. A bad engine name is a programming error, so fail loud.
		panic(fmt.Sprintf("vm: unknown engine %q (want %q or %q)", opts.Engine, EngineBlock, EngineStep))
	}
	return &System{
		opts:     opts,
		programs: make(map[string]*obj.File),
		hostIdx:  make(map[string]int),
		kern:     kernel.New(),
		nextPID:  1,
	}
}

// Kernel exposes the system kernel (for workload drivers and file setup).
func (s *System) Kernel() *kernel.Kernel { return s.kern }

// Register adds a program or library to the load registry.
// Re-registering the file already registered under its name is a
// no-op, so it never copies a registry shared with a snapshot.
func (s *System) Register(f *obj.File) {
	if s.programs[f.Name] == f {
		return
	}
	s.ownMaps()
	s.programs[f.Name] = f
}

// RegisterHost installs a named host function resolvable as an import.
// Rebinding an installed name writes only the system's private slot
// table. The function has no spin prover, so no spin that calls it is
// fast-forwarded.
func (s *System) RegisterHost(name string, fn HostFunc) {
	s.RegisterHostSpin(name, fn, nil)
}

// RegisterHostSpin is RegisterHost for a host function whose calls
// during a spin sp can prove to repeat (HostSpin, spin.go).
func (s *System) RegisterHostSpin(name string, fn HostFunc, sp HostSpin) {
	if idx, ok := s.hostIdx[name]; ok {
		s.hosts[idx] = host{fn, sp}
		return
	}
	s.ownMaps()
	s.hostIdx[name] = len(s.hosts)
	s.hosts = append(s.hosts, host{fn, sp})
}

// ownMaps gives the system private copies of the program registry and
// host index before a write, if it shares them with a snapshot.
func (s *System) ownMaps() {
	if s.sharedMaps {
		s.programs = maps.Clone(s.programs)
		s.hostIdx = maps.Clone(s.hostIdx)
		s.sharedMaps = false
	}
}

// Procs returns all processes (including exited ones).
func (s *System) Procs() []*Proc { return append([]*Proc(nil), s.procs...) }

// Spawn loads and starts a registered executable.
func (s *System) Spawn(exe string, cfg SpawnConfig) (*Proc, error) {
	main, ok := s.programs[exe]
	if !ok {
		return nil, fmt.Errorf("vm: program %q not registered", exe)
	}
	p := &Proc{ID: s.nextPID, Sys: s, cfg: cfg, parent: cfg.parent}
	s.nextPID++

	// Assemble the module list in symbol search order: the executable,
	// then preloads, then needed libraries discovered breadth-first.
	var files []*obj.File
	seen := map[string]bool{exe: true}
	files = append(files, main)
	queue := append([]string(nil), cfg.Preload...)
	queue = append(queue, main.Needed...)
	for len(queue) > 0 {
		name := queue[0]
		queue = queue[1:]
		if seen[name] {
			continue
		}
		seen[name] = true
		f, ok := s.programs[name]
		if !ok {
			return nil, fmt.Errorf("vm: %s: needed library %q not registered", exe, name)
		}
		files = append(files, f)
		queue = append(queue, f.Needed...)
	}
	// Preloads must precede needed libs but follow the executable; the
	// BFS above already walks cfg.Preload first, giving that order.

	for i, f := range files {
		im, err := s.loadImage(p, f, i)
		if err != nil {
			return nil, err
		}
		p.Images = append(p.Images, im)
	}
	if err := s.relocate(p); err != nil {
		return nil, err
	}

	// Stack and heap.
	stack := &segment{
		base: stackTop - s.opts.StackSize, data: make([]byte, s.opts.StackSize),
		writable: true, name: "stack",
	}
	p.segs = append(p.segs, stack)
	p.heap = &segment{base: heapBase, writable: true, name: "heap"}
	p.segs = append(p.segs, p.heap)
	p.brk = heapBase

	// Entry point.
	entryImg := p.Images[0]
	entryVA, ok := entryImg.SymbolVA("main")
	if !ok {
		return nil, fmt.Errorf("vm: %s has no exported main", exe)
	}
	p.PC = entryVA
	p.Regs[isa.SP] = stackTop - 16
	// Returning from main lands on the exit sentinel.
	p.Regs[isa.SP] -= 4
	sentinel := uint32(exitSentinel)
	if err := p.WriteWord(p.Regs[isa.SP], int32(sentinel)); err != nil {
		return nil, err
	}
	p.CallStack = append(p.CallStack, Frame{
		FuncVA: entryVA, Symbol: "main", Module: exe, RetPC: exitSentinel,
	})

	s.kern.NewProcess(p.ID)
	for childFD, parentFD := range cfg.InheritFDs {
		if cfg.parent != nil {
			s.kern.InstallAt(p.ID, childFD, cfg.parent.ID, parentFD)
		}
	}

	s.procs = append(s.procs, p)
	if cfg.parent != nil {
		cfg.parent.children = append(cfg.parent.children, p)
	}
	return p, nil
}

func (s *System) loadImage(p *Proc, f *obj.File, slot int) (*Image, error) {
	base := uint32(moduleBase + slot*moduleStride)
	im := &Image{
		File:     f,
		TextBase: base,
		DataBase: base + dataOffset,
		TLSBase:  base + tlsOffset,
		text:     append([]byte(nil), f.Text...),
		symVA:    make(map[string]uint32),
	}
	data := make([]byte, f.DataSize)
	copy(data, f.Data)
	tls := make([]byte, f.TLSSize)

	for _, sym := range f.Symbols {
		var va uint32
		switch sym.Kind {
		case obj.SymFunc:
			va = im.TextBase + uint32(sym.Off)
			im.funcsVA = append(im.funcsVA, vaSym{va: va, name: sym.Name})
		case obj.SymData:
			va = im.DataBase + uint32(sym.Off)
		case obj.SymTLS:
			va = im.TLSBase + uint32(sym.Off)
		}
		if sym.Exported {
			im.symVA[sym.Name] = va
		}
	}
	sort.Slice(im.funcsVA, func(i, j int) bool { return im.funcsVA[i].va < im.funcsVA[j].va })

	if s.opts.Coverage {
		n := (len(f.Text)/isa.Size + 63) / 64
		im.CoverBits = make([]uint64, n)
	}

	p.segs = append(p.segs,
		&segment{base: im.TextBase, data: im.text, name: f.Name + ".text"},
		&segment{base: im.DataBase, data: data, writable: true, name: f.Name + ".data"},
		&segment{base: im.TLSBase, data: tls, writable: true, name: f.Name + ".tls"},
	)
	return im, nil
}

// relocate patches every image's text and decodes the instruction stream.
func (s *System) relocate(p *Proc) error {
	for _, im := range p.Images {
		f := im.File
		for _, r := range f.Relocs {
			var va uint32
			switch r.Kind {
			case obj.RelocText:
				va = im.TextBase + uint32(r.Index)
			case obj.RelocData:
				va = im.DataBase + uint32(r.Index)
			case obj.RelocTLS:
				va = im.TLSBase + uint32(r.Index)
			case obj.RelocImport:
				name := f.Imports[r.Index]
				resolved, err := s.resolveImport(p, name)
				if err != nil {
					return fmt.Errorf("vm: %s: %w", f.Name, err)
				}
				va = resolved
			}
			// Patch the Imm field (bytes 4..8 of the instruction).
			off := int(r.Off)
			im.text[off+4] = byte(va)
			im.text[off+5] = byte(va >> 8)
			im.text[off+6] = byte(va >> 16)
			im.text[off+7] = byte(va >> 24)
		}
		insts, err := isa.DecodeAll(im.text)
		if err != nil {
			return fmt.Errorf("vm: %s: %w", f.Name, err)
		}
		im.Insts = insts
		// Compile the block form eagerly: one O(text) pass here, and the
		// result is immutable, so snapshots can hand it to any number of
		// concurrently restored systems without synchronisation.
		im.exec = compileExec(im)
		im.next = s.resolveNextTable(p, im)
		p.resolveCallLabels(im)
	}
	return nil
}

// resolveCallLabels fills im.callees and im.labels: one label per
// distinct direct call target that pushes a frame. Like the dlnext
// table it depends only on the process's fixed image list, so one
// resolution serves every restore of the image.
func (p *Proc) resolveCallLabels(im *Image) {
	var index map[uint32]int32
	for i, in := range im.Insts {
		target := uint32(in.Imm)
		if in.Op != isa.OpCall || isHostTarget(target) {
			continue
		}
		if im.callees == nil {
			im.callees = make([]int32, len(im.Insts))
			index = make(map[uint32]int32)
		}
		j, ok := index[target]
		if !ok {
			im.labels = append(im.labels, p.labelAt(target))
			j = int32(len(im.labels))
			index[target] = j
		}
		im.callees[i] = j
	}
}

// labelAt names the function containing a call target, for its Frame.
func (p *Proc) labelAt(target uint32) frameLabel {
	if im := p.imageAt(target); im != nil {
		return frameLabel{sym: im.FuncNameAt(target), mod: im.File.Name}
	}
	return frameLabel{}
}

// isHostTarget reports whether a call to target enters a host function.
func isHostTarget(target uint32) bool {
	return target >= hostBase && target != exitSentinel
}

// resolveNextTable resolves every import of an image that executes
// dlnext to its RTLD_NEXT target. The search order is fixed once the
// process's images are loaded, so one resolution serves every dlnext
// the image (and any snapshot restored from it) ever executes. Images
// without dlnext get no table.
func (s *System) resolveNextTable(p *Proc, im *Image) []nextTarget {
	uses := false
	for _, in := range im.Insts {
		if in.Op == isa.OpDlNext {
			uses = true
			break
		}
	}
	if !uses {
		return nil
	}
	next := make([]nextTarget, len(im.File.Imports))
	for i, name := range im.File.Imports {
		next[i].va, next[i].ok = s.resolveNext(p, im, name)
	}
	return next
}

// resolveImport searches the process scope (exe, preloads, needed) for an
// exported definition; host functions are the fallback.
func (s *System) resolveImport(p *Proc, name string) (uint32, error) {
	for _, im := range p.Images {
		if va, ok := im.symVA[name]; ok {
			return va, nil
		}
	}
	if idx, ok := s.hostIdx[name]; ok {
		return hostBase + uint32(idx*8), nil
	}
	return 0, fmt.Errorf("unresolved import %q", name)
}

// resolveNext implements dlsym(RTLD_NEXT): the first definition of name in
// modules after the given image in search order.
func (s *System) resolveNext(p *Proc, after *Image, name string) (uint32, bool) {
	past := false
	for _, im := range p.Images {
		if im == after {
			past = true
			continue
		}
		if !past {
			continue
		}
		if va, ok := im.symVA[name]; ok {
			return va, true
		}
	}
	return 0, false
}

// ImageByName returns the process image for the named module.
func (p *Proc) ImageByName(name string) (*Image, bool) {
	for _, im := range p.Images {
		if im.File.Name == name {
			return im, true
		}
	}
	return nil, false
}

// imageAt maps a VA to the image whose text contains it.
func (p *Proc) imageAt(va uint32) *Image {
	if p.lastImg != nil &&
		va >= p.lastImg.TextBase && va < p.lastImg.TextBase+uint32(len(p.lastImg.text)) {
		return p.lastImg
	}
	for _, im := range p.Images {
		if va >= im.TextBase && va < im.TextBase+uint32(len(im.text)) {
			p.lastImg = im
			return im
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Memory access
// ---------------------------------------------------------------------------

func (p *Proc) seg(addr uint32, write bool) (*segment, error) {
	if p.lastSeg != nil && p.lastSeg.contains(addr) && (!write || p.lastSeg.writable) {
		return p.lastSeg, nil
	}
	for _, sg := range p.segs {
		if sg.contains(addr) {
			if write && !sg.writable {
				return nil, &MemoryError{Addr: addr, Write: true}
			}
			p.lastSeg = sg
			return sg, nil
		}
	}
	return nil, &MemoryError{Addr: addr, Write: write}
}

// memFits reports whether n bytes starting at off fit inside a segment
// of seglen bytes. The comparison runs in 64 bits: the natural uint32
// form (off+uint32(n) > seglen) wraps for large n — e.g. a syscall
// passing a huge length against a multi-gigabyte heap — passing the
// bounds check only to panic on the slice expression below it.
func memFits(seglen int, off uint32, n int64) bool {
	return n >= 0 && uint64(off)+uint64(n) <= uint64(seglen)
}

// ReadWord reads a 32-bit little-endian word. The fast path serves the
// word straight out of a cached segment window — no seg() scan, no
// error allocation; `addr - base` wraps for addresses below the window,
// so the single unsigned comparison rejects both sides.
func (p *Proc) ReadWord(addr uint32) (int32, error) {
	if off := addr - p.rdc.base; uint64(off)+4 <= uint64(len(p.rdc.data)) {
		return int32(binary.LittleEndian.Uint32(p.rdc.data[off:])), nil
	}
	if off := addr - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
		return int32(binary.LittleEndian.Uint32(p.wrc.data[off:])), nil
	}
	return p.readWordSlow(addr)
}

func (p *Proc) readWordSlow(addr uint32) (int32, error) {
	if w := p.recent(addr, 4, false); w != nil {
		p.rdc = *w
		return int32(binary.LittleEndian.Uint32(w.data[addr-w.base:])), nil
	}
	sg, err := p.seg(addr, false)
	if err != nil {
		return 0, err
	}
	off := addr - sg.base
	if !memFits(sg.length(), off, 4) {
		return 0, &MemoryError{Addr: addr}
	}
	if sg.cow == nil {
		p.rdc = memWindow{base: sg.base, data: sg.data}
		p.remember(p.rdc, sg.writable)
		return int32(binary.LittleEndian.Uint32(sg.data[off:])), nil
	}
	// CoW segments get page-granular windows: adjacent pages are not
	// contiguous in host memory once one of them is privatized.
	pi, po := off>>pageShift, off&pageMask
	if pg := sg.cow.pages[pi]; uint64(po)+4 <= uint64(len(pg)) {
		p.rdc = memWindow{base: sg.base + pi<<pageShift, data: pg}
		p.remember(p.rdc, sg.cow.dirty[pi])
		return int32(binary.LittleEndian.Uint32(pg[po:])), nil
	}
	// The word straddles a page boundary: assemble it byte-wise
	// (memFits above proved every byte is in bounds).
	var w uint32
	for i := uint32(0); i < 4; i++ {
		w |= uint32(sg.byteAt(off+i)) << (8 * i)
	}
	return int32(w), nil
}

// WriteWord writes a 32-bit little-endian word. The write window caches
// only writable segments, so a hit needs no permission re-check.
func (p *Proc) WriteWord(addr uint32, v int32) error {
	if off := addr - p.wrc.base; uint64(off)+4 <= uint64(len(p.wrc.data)) {
		binary.LittleEndian.PutUint32(p.wrc.data[off:], uint32(v))
		return nil
	}
	return p.writeWordSlow(addr, v)
}

func (p *Proc) writeWordSlow(addr uint32, v int32) error {
	if w := p.recent(addr, 4, true); w != nil {
		p.wrc = *w
		binary.LittleEndian.PutUint32(w.data[addr-w.base:], uint32(v))
		return nil
	}
	sg, err := p.seg(addr, true)
	if err != nil {
		return err
	}
	off := addr - sg.base
	if !memFits(sg.length(), off, 4) {
		return &MemoryError{Addr: addr, Write: true}
	}
	if sg.cow == nil {
		p.wrc = memWindow{base: sg.base, data: sg.data}
		p.remember(p.wrc, true)
		binary.LittleEndian.PutUint32(sg.data[off:], uint32(v))
		return nil
	}
	// The wrc window is only ever installed over an already-private
	// page, which is what keeps the inline fast paths barrier-free.
	pi, po := off>>pageShift, off&pageMask
	pg := p.privatize(sg, pi)
	if uint64(po)+4 <= uint64(len(pg)) {
		p.wrc = memWindow{base: sg.base + pi<<pageShift, data: pg}
		p.remember(p.wrc, true)
		binary.LittleEndian.PutUint32(pg[po:], uint32(v))
		return nil
	}
	// Page-straddling word: privatize both pages, write byte-wise.
	p.privatize(sg, pi+1)
	for i := uint32(0); i < 4; i++ {
		o := off + i
		sg.cow.pages[o>>pageShift][o&pageMask] = byte(uint32(v) >> (8 * i))
	}
	return nil
}

// ReadByte reads one byte.
func (p *Proc) ReadByteAt(addr uint32) (byte, error) {
	if off := addr - p.rdc.base; uint64(off) < uint64(len(p.rdc.data)) {
		return p.rdc.data[off], nil
	}
	if off := addr - p.wrc.base; uint64(off) < uint64(len(p.wrc.data)) {
		return p.wrc.data[off], nil
	}
	return p.readByteSlow(addr)
}

func (p *Proc) readByteSlow(addr uint32) (byte, error) {
	if w := p.recent(addr, 1, false); w != nil {
		p.rdc = *w
		return w.data[addr-w.base], nil
	}
	sg, err := p.seg(addr, false)
	if err != nil {
		return 0, err
	}
	off := addr - sg.base
	if sg.cow == nil {
		p.rdc = memWindow{base: sg.base, data: sg.data}
		p.remember(p.rdc, sg.writable)
		return sg.data[off], nil
	}
	pi := off >> pageShift
	pg := sg.cow.pages[pi]
	p.rdc = memWindow{base: sg.base + pi<<pageShift, data: pg}
	p.remember(p.rdc, sg.cow.dirty[pi])
	return pg[off&pageMask], nil
}

// WriteByte writes one byte.
func (p *Proc) WriteByteAt(addr uint32, v byte) error {
	if off := addr - p.wrc.base; uint64(off) < uint64(len(p.wrc.data)) {
		p.wrc.data[off] = v
		return nil
	}
	return p.writeByteSlow(addr, v)
}

func (p *Proc) writeByteSlow(addr uint32, v byte) error {
	if w := p.recent(addr, 1, true); w != nil {
		p.wrc = *w
		w.data[addr-w.base] = v
		return nil
	}
	sg, err := p.seg(addr, true)
	if err != nil {
		return err
	}
	off := addr - sg.base
	if sg.cow == nil {
		p.wrc = memWindow{base: sg.base, data: sg.data}
		p.remember(p.wrc, true)
		sg.data[off] = v
		return nil
	}
	pi := off >> pageShift
	pg := p.privatize(sg, pi)
	p.wrc = memWindow{base: sg.base + pi<<pageShift, data: pg}
	p.remember(p.wrc, true)
	pg[off&pageMask] = v
	return nil
}

// ReadBytes copies n bytes out of VM memory.
func (p *Proc) ReadBytes(addr uint32, n int32) ([]byte, error) {
	sg, err := p.seg(addr, false)
	if err != nil {
		return nil, err
	}
	off := addr - sg.base
	if !memFits(sg.length(), off, int64(n)) {
		return nil, &MemoryError{Addr: addr}
	}
	if sg.cow == nil {
		return append([]byte(nil), sg.data[off:off+uint32(n)]...), nil
	}
	out := make([]byte, n)
	for copied := 0; copied < len(out); {
		copied += copy(out[copied:], sg.view(off+uint32(copied)))
	}
	return out, nil
}

// WriteBytes copies bytes into VM memory.
func (p *Proc) WriteBytes(addr uint32, b []byte) error {
	sg, err := p.seg(addr, true)
	if err != nil {
		return err
	}
	off := addr - sg.base
	if !memFits(sg.length(), off, int64(len(b))) {
		return &MemoryError{Addr: addr, Write: true}
	}
	if sg.cow == nil {
		copy(sg.data[off:], b)
		return nil
	}
	for len(b) > 0 {
		pg := p.privatize(sg, off>>pageShift)
		n := copy(pg[off&pageMask:], b)
		b = b[n:]
		off += uint32(n)
	}
	return nil
}

// ReadCString reads a NUL-terminated string (max 4096 bytes). It scans
// whole segment slices rather than resolving one segment per byte —
// this is the interceptor's string-argument path (every intercepted
// open/unlink/spawn resolves its path argument through here).
func (p *Proc) ReadCString(addr uint32) (string, error) {
	var out []byte
	for len(out) < 4096 {
		sg, err := p.seg(addr, false)
		if err != nil {
			return "", err
		}
		b := sg.view(addr - sg.base)
		if rem := 4096 - len(out); len(b) > rem {
			b = b[:rem]
		}
		if i := bytes.IndexByte(b, 0); i >= 0 {
			return string(append(out, b[:i]...)), nil
		}
		// No terminator before the segment (or scan-limit) boundary:
		// keep going at the next address, as the byte loop would.
		out = append(out, b...)
		addr += uint32(len(b))
	}
	return "", errors.New("vm: unterminated string")
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

// ErrDeadlock is returned by Run when no runnable process can make
// progress.
var ErrDeadlock = errors.New("vm: deadlock: all processes blocked")

// ErrBudget is returned when the cycle budget is exhausted.
var ErrBudget = errors.New("vm: cycle budget exhausted")

// ErrIdle is returned by RunUntil when every live process is blocked —
// typically waiting for a workload driver to supply external input.
var ErrIdle = errors.New("vm: all processes idle")

// Run schedules all processes round-robin until every process has exited,
// the cycle budget is exhausted (budget 0 = unlimited, measured against
// the system's absolute TotalCycles), or a deadlock is detected.
func (s *System) Run(budget uint64) error {
	return s.schedule(nil, 0, budget, ErrDeadlock)
}

// RunUntil schedules processes until cond returns true (checked between
// time slices), all processes exit (nil), every live process blocks
// (ErrIdle — the workload driver should feed more input and call again),
// or the budget is exhausted (ErrBudget; 0 = unlimited, measured from
// the call's starting TotalCycles).
func (s *System) RunUntil(cond func() bool, budget uint64) error {
	return s.schedule(cond, s.TotalCycles, budget, ErrIdle)
}

// schedule is the one round-robin scheduler loop behind Run, RunUntil
// and RunStops (Run is RunUntil(nil, budget) with an absolute budget
// origin and ErrDeadlock as its no-progress verdict: a wedged Run can
// never make progress again, while a wedged RunUntil is merely idle
// until the workload driver feeds more input). Budget exhaustion is
// checked after every time slice against s.TotalCycles - start. When
// RunStops has armed a stop set and a slice stops on one, schedule
// records the interrupted round in s.resume and returns nil; a later
// call finishes that round first, so every slice boundary lands where
// an unbroken run puts it.
func (s *System) schedule(cond func() bool, start, budget uint64, stall error) error {
	if disarm := s.spinBudget(cond, start, budget); disarm != nil {
		defer disarm()
	}
	r, resumed := s.resume, s.resume.pending
	s.resume = schedResume{}
	for {
		if !resumed {
			if cond != nil && cond() {
				return nil
			}
			r = schedResume{nprocs: len(s.procs)}
		}
		for i := r.procIdx; i < r.nprocs; i++ {
			p := s.procs[i]
			slice := s.opts.TimeSlice
			if resumed && i == r.procIdx {
				slice = r.sliceLeft
			} else {
				if p.Exited {
					continue
				}
				r.alive++
			}
			ran := p.runSlice(slice)
			if ran > 0 {
				r.progress = true
			}
			if s.stop.hit != 0 || s.stop.err != nil {
				r.procIdx, r.sliceLeft, r.pending = i, slice-ran, true
				s.resume = r
				return nil
			}
			if budget > 0 && s.TotalCycles-start >= budget {
				return ErrBudget
			}
		}
		resumed = false
		if r.alive == 0 {
			return nil
		}
		if !r.progress {
			return stall
		}
	}
}

// schedResume freezes the scheduler's position inside a partially
// completed round — the state RunStops leaves behind when it stops the
// system mid-slice at a stop. The next schedule call consumes it:
// the interrupted process finishes its remaining slice first, then the
// rest of that round's processes take full slices, and only then do
// fresh rounds begin. That way every later slice boundary, budget check
// and cross-process interleaving lands on exactly the cycle it would
// have in an unbroken run.
type schedResume struct {
	pending   bool // a stopped round is waiting to be finished
	procIdx   int  // round position: the process that was mid-slice
	sliceLeft int  // instructions left in its interrupted slice
	alive     int  // live processes already counted this round (procIdx included)
	progress  bool // whether the round made progress before the stop
	nprocs    int  // processes in the round when it started (later spawns join the next)
}

// Stop is one member of a stop set: the Target-th arrival of a single
// process's PC at VA.
type Stop struct {
	VA     uint32
	Target int32
}

// breakpoint is the stop set RunStops arms for one schedule call. Both
// engines count each process's arrivals at every stop
// (Proc.stopCounts) and set hit when one makes a stop's target-th; the
// block engine checks only at block entries, so it sets err instead
// when a stop is not a block start in an image it runs. Either ends the
// schedule call.
type breakpoint struct {
	armed bool
	// stops is the armed set in VA order; its backing array is reused
	// across calls, so arming allocates nothing in steady state.
	stops []armedStop
	hit   int // the hit stop's index in the caller's set plus one; 0 = none
	err   error
	// seen caches the stop index range of recently dispatched images
	// (imageStops); next is the slot the next miss replaces.
	seen [4]imageStops
	next int
}

type armedStop struct {
	va     uint32
	target int32
	id     int // index in the caller's set
}

// imageStops is the instruction index range [lo, lo+span] an image's
// stops occupy; lo is -1 when it holds none.
type imageStops struct {
	im   *Image
	lo   int
	span uint
}

// find returns the index in b.stops of the stop at va, or -1.
func (b *breakpoint) find(va uint32) int {
	i, ok := slices.BinarySearchFunc(b.stops, va, func(st armedStop, va uint32) int { return cmp.Compare(st.va, va) })
	if !ok {
		return -1
	}
	return i
}

// rangeIn returns the instruction index range of the stops inside im's
// text (lo = -1 when there are none), so the block engine's dispatch
// loop pays one compare per block outside it. A stop inside the text
// that does not start a block records b.err and is left out: the block
// engine would miss straight-line arrivals there.
func (b *breakpoint) rangeIn(im *Image) (int, uint) {
	for k := range b.seen {
		if b.seen[k].im == im {
			return b.seen[k].lo, b.seen[k].span
		}
	}
	r := imageStops{im: im, lo: -1}
	for _, st := range b.stops {
		if st.va < im.TextBase {
			continue
		}
		off := st.va - im.TextBase
		if off >= uint32(len(im.text)) {
			break
		}
		i := int(off / isa.Size)
		if off%isa.Size != 0 || im.exec == nil || !im.exec.starts(i) {
			if b.err == nil {
				b.err = fmt.Errorf("vm: stop va %#x is not a block start in %s", st.va, im.File.Name)
			}
			continue
		}
		if r.lo < 0 {
			r.lo = i
		}
		r.span = uint(i - r.lo)
	}
	b.seen[b.next] = r
	b.next = (b.next + 1) % len(b.seen)
	return r.lo, r.span
}

// RunStops runs like Run(budget) but stops the whole system just before
// the first arrival, in execution order, that completes any stop of the
// set: the Target-th arrival of one process's PC at that stop's VA.
// Arrivals are counted per process and per stop, from this call's
// start: the stop comes when any single process makes its target-th,
// matching the per-process trigger evaluators whose call counts a
// memoized prefix must reproduce. An arrival is counted once when a
// slice ends (or a blocked instruction yields) with the PC parked on
// the VA; so the process a previous call froze at its hit (Stopped),
// re-armed at that VA on the same system, counts from its next
// arrival, while a restore of the frozen system counts the parked one
// afresh. On a hit it returns the stop's index in stops, with the
// system frozen before the instruction at that VA executes and the
// scheduler's mid-round position recorded, so Snapshot/Restore/Run (or
// another RunStops) continues with slice boundaries, budget checks and
// interleavings identical to an unbroken Run — the memoized-sweep
// prefix contract. When every process exits (nil), the system
// deadlocks (ErrDeadlock) or the budget runs out (ErrBudget) before any
// stop completes, it returns (-1, err) with cycle accounting identical
// to Run's; an empty set is exactly Run.
//
// The stops run through the same scheduler loop and engine as Run. The
// block engine checks for them where it enters a block, so on that
// engine every VA must be a block start (every function-symbol entry is
// one) in each image that contains it; otherwise RunStops returns an
// error, before running when a live process maps that image. VAs must
// be distinct, targets positive, and the instruction at each VA must
// not be able to block (true for interceptor stub prologues, whose
// first instruction is a lea).
func (s *System) RunStops(stops []Stop, budget uint64) (int, error) {
	if len(stops) == 0 {
		return -1, s.schedule(nil, 0, budget, ErrDeadlock)
	}
	b := &s.stop
	*b = breakpoint{stops: b.stops[:0]}
	for i, st := range stops {
		if st.Target <= 0 {
			return -1, fmt.Errorf("vm: stop target %d not positive", st.Target)
		}
		b.stops = append(b.stops, armedStop{va: st.VA, target: st.Target, id: i})
	}
	slices.SortFunc(b.stops, func(x, y armedStop) int { return cmp.Compare(x.va, y.va) })
	for j := 1; j < len(b.stops); j++ {
		if b.stops[j].va == b.stops[j-1].va {
			return -1, fmt.Errorf("vm: stop va %#x armed twice", b.stops[j].va)
		}
	}
	b.armed = true
	held := s.Stopped()
	for _, p := range s.procs {
		j := -1
		if p == held && p.parked != 0 {
			j = b.find(p.PC) // its arrival there is counted
		}
		p.parked = j + 1
		p.stopCounts = resetCounts(p.stopCounts, len(b.stops))
		if s.opts.Engine != EngineStep && !p.Exited {
			for _, im := range p.Images {
				b.rangeIn(im)
			}
		}
	}
	var err error
	if b.err == nil {
		err = s.schedule(nil, 0, budget, ErrDeadlock)
	}
	hit, bad := b.hit, b.err
	*b = breakpoint{stops: b.stops[:0]}
	if bad != nil {
		return -1, bad
	}
	return hit - 1, err
}

// resetCounts returns c resized to n zeroed counters, reusing its
// backing array when it is large enough.
func resetCounts(c []int32, n int) []int32 {
	if cap(c) < n {
		return make([]int32, n)
	}
	c = c[:n]
	clear(c)
	return c
}

// Stopped returns the process frozen at the stop the last RunStops
// call hit, or nil when the system has run on since (or never stopped).
func (s *System) Stopped() *Proc {
	if !s.resume.pending {
		return nil
	}
	return s.procs[s.resume.procIdx]
}

// RunBreak is RunStops with the one-stop set {va, target}: it reports
// whether the target-th arrival at va stopped the system.
func (s *System) RunBreak(va uint32, target int32, budget uint64) (bool, error) {
	one := [1]Stop{{VA: va, Target: target}}
	hit, err := s.RunStops(one[:], budget)
	return hit == 0, err
}

// atBreak counts an arrival at an armed stop and reports whether it is
// this process's target-th there. The step engine calls it before every
// instruction; the block engine at every block entry inside an image's
// stop range (see execBlock).
func (p *Proc) atBreak() bool {
	b := &p.Sys.stop
	j := b.find(p.PC)
	if j < 0 {
		p.parked = 0
		return false
	}
	if p.parked == j+1 {
		return false // parked on this stop since the last count
	}
	p.parked = j + 1
	if len(p.stopCounts) < len(b.stops) {
		p.stopCounts = resetCounts(p.stopCounts, len(b.stops)) // spawned mid-run
	}
	p.stopCounts[j]++
	if p.stopCounts[j] == b.stops[j].target {
		b.hit = b.stops[j].id + 1
		return true
	}
	return false
}

// runSlice executes up to n instructions on the configured engine;
// returns how many ran. Both engines consume the slice instruction by
// instruction — a superblock straddling the slice boundary is split, so
// scheduling (and therefore every cross-process interleaving and budget
// check) is identical between them.
func (p *Proc) runSlice(n int) int {
	if p.Sys.opts.Engine == EngineStep {
		armed := p.Sys.stop.armed
		ran := 0
		for ran < n && !p.Exited {
			if armed && p.atBreak() {
				break // stopped before the target arrival executes
			}
			if !p.step() {
				break // blocked in a syscall: yield the slice
			}
			ran++
		}
		return ran
	}
	return p.runSliceBlocks(n)
}

func (p *Proc) kill(sig int32) {
	p.Exited = true
	p.Status = ExitStatus{Signal: sig}
	p.Sys.kern.ReleaseProcess(p.ID)
}

// failMem kills the process on a faulting memory access. Every memory
// fault is a SIGSEGV regardless of the underlying error; hoisted out of
// the interpreter loop (it used to be a per-step closure) so a step
// allocates nothing.
func (p *Proc) failMem() bool {
	p.kill(SigSEGV)
	return true
}

func (p *Proc) exit(code int32) {
	p.Exited = true
	p.Status = ExitStatus{Code: code}
	p.Sys.kern.ReleaseProcess(p.ID)
}

// step executes one instruction. It returns false when the process is
// blocked (PC unchanged) so the scheduler can switch away.
func (p *Proc) step() bool {
	if p.PC == exitSentinel {
		p.exit(int32(p.Regs[isa.R0]))
		return true
	}
	im := p.imageAt(p.PC)
	if im == nil {
		p.kill(SigSEGV)
		return true
	}
	idx := int(p.PC-im.TextBase) / isa.Size
	if idx >= len(im.Insts) {
		p.kill(SigSEGV)
		return true
	}
	if im.CoverBits != nil {
		im.CoverBits[idx/64] |= 1 << (idx % 64)
	}
	in := im.Insts[idx]
	p.Cycles++
	p.Sys.TotalCycles++
	next := p.PC + isa.Size

	switch in.Op {
	case isa.OpNop:
	case isa.OpHalt:
		p.exit(int32(p.Regs[isa.R0]))
		return true

	case isa.OpMovRI:
		p.Regs[in.A] = uint32(in.Imm)
	case isa.OpMovRR:
		p.Regs[in.A] = p.Regs[in.B]
	case isa.OpLoad:
		v, err := p.ReadWord(p.Regs[in.B] + uint32(in.Imm))
		if err != nil {
			return p.failMem()
		}
		p.Regs[in.A] = uint32(v)
	case isa.OpLoadB:
		v, err := p.ReadByteAt(p.Regs[in.B] + uint32(in.Imm))
		if err != nil {
			return p.failMem()
		}
		p.Regs[in.A] = uint32(v)
	case isa.OpStoreR:
		if err := p.WriteWord(p.Regs[in.A]+uint32(in.Imm), int32(p.Regs[in.B])); err != nil {
			return p.failMem()
		}
	case isa.OpStoreB:
		if err := p.WriteByteAt(p.Regs[in.A]+uint32(in.Imm), byte(p.Regs[in.B])); err != nil {
			return p.failMem()
		}
	case isa.OpStoreI:
		if err := p.WriteWord(p.Regs[in.A]+uint32(in.StoreIDisp()), in.Imm); err != nil {
			return p.failMem()
		}
	case isa.OpPushR:
		p.Regs[isa.SP] -= 4
		if err := p.WriteWord(p.Regs[isa.SP], int32(p.Regs[in.A])); err != nil {
			return p.failMem()
		}
	case isa.OpPushI:
		p.Regs[isa.SP] -= 4
		if err := p.WriteWord(p.Regs[isa.SP], in.Imm); err != nil {
			return p.failMem()
		}
	case isa.OpPopR:
		v, err := p.ReadWord(p.Regs[isa.SP])
		if err != nil {
			return p.failMem()
		}
		p.Regs[isa.SP] += 4
		p.Regs[in.A] = uint32(v)

	case isa.OpAddRI:
		p.Regs[in.A] += uint32(in.Imm)
	case isa.OpAddRR:
		p.Regs[in.A] += p.Regs[in.B]
	case isa.OpSubRI:
		p.Regs[in.A] -= uint32(in.Imm)
	case isa.OpSubRR:
		p.Regs[in.A] -= p.Regs[in.B]
	case isa.OpMulRR:
		p.Regs[in.A] = uint32(int32(p.Regs[in.A]) * int32(p.Regs[in.B]))
	case isa.OpDivRR:
		if p.Regs[in.B] == 0 {
			p.kill(SigFPE)
			return true
		}
		p.Regs[in.A] = uint32(int32(p.Regs[in.A]) / int32(p.Regs[in.B]))
	case isa.OpModRR:
		if p.Regs[in.B] == 0 {
			p.kill(SigFPE)
			return true
		}
		p.Regs[in.A] = uint32(int32(p.Regs[in.A]) % int32(p.Regs[in.B]))
	case isa.OpAndRI:
		p.Regs[in.A] &= uint32(in.Imm)
	case isa.OpAndRR:
		p.Regs[in.A] &= p.Regs[in.B]
	case isa.OpOrRI:
		p.Regs[in.A] |= uint32(in.Imm)
	case isa.OpOrRR:
		p.Regs[in.A] |= p.Regs[in.B]
	case isa.OpXorRI:
		p.Regs[in.A] ^= uint32(in.Imm)
	case isa.OpXorRR:
		p.Regs[in.A] ^= p.Regs[in.B]
	case isa.OpShlRI:
		p.Regs[in.A] <<= uint32(in.Imm) & 31
	case isa.OpShrRI:
		p.Regs[in.A] >>= uint32(in.Imm) & 31
	case isa.OpNeg:
		p.Regs[in.A] = uint32(-int32(p.Regs[in.A]))
	case isa.OpNot:
		p.Regs[in.A] = ^p.Regs[in.A]

	case isa.OpCmpRI:
		a := int32(p.Regs[in.A])
		p.flagEQ = a == in.Imm
		p.flagLT = a < in.Imm
	case isa.OpCmpRR:
		a, b := int32(p.Regs[in.A]), int32(p.Regs[in.B])
		p.flagEQ = a == b
		p.flagLT = a < b

	case isa.OpJmp:
		p.PC = uint32(in.Imm)
		return true
	case isa.OpJe:
		if p.flagEQ {
			p.PC = uint32(in.Imm)
			return true
		}
	case isa.OpJne:
		if !p.flagEQ {
			p.PC = uint32(in.Imm)
			return true
		}
	case isa.OpJl:
		if p.flagLT {
			p.PC = uint32(in.Imm)
			return true
		}
	case isa.OpJle:
		if p.flagLT || p.flagEQ {
			p.PC = uint32(in.Imm)
			return true
		}
	case isa.OpJg:
		if !p.flagLT && !p.flagEQ {
			p.PC = uint32(in.Imm)
			return true
		}
	case isa.OpJge:
		if !p.flagLT {
			p.PC = uint32(in.Imm)
			return true
		}

	case isa.OpCall:
		return p.doCall(uint32(in.Imm), next, nil)
	case isa.OpCallR:
		return p.doCall(p.Regs[in.A], next, nil)
	case isa.OpJmpI:
		p.PC = p.Regs[in.A]
		return true
	case isa.OpRet:
		v, err := p.ReadWord(p.Regs[isa.SP])
		if err != nil {
			return p.failMem()
		}
		p.Regs[isa.SP] += 4
		p.PC = uint32(v)
		if len(p.CallStack) > 0 {
			p.CallStack = p.CallStack[:len(p.CallStack)-1]
		}
		return true

	case isa.OpSyscall:
		return p.doSyscall(next)

	case isa.OpLea:
		p.Regs[in.A] = uint32(in.Imm)
	case isa.OpTLSBase:
		p.Regs[in.A] = im.TLSBase
	case isa.OpDlNext:
		// Image.dlnext bounds-checks the crafted import index (the
		// block engine mirrors this arm exactly).
		va, ok := im.dlnext(in.Imm)
		if !ok {
			p.kill(SigSEGV)
			return true
		}
		p.Regs[in.A] = va

	default:
		p.kill(SigSEGV)
		return true
	}
	p.PC = next
	return true
}

// doCall pushes retPC and transfers to target. A host function runs to
// completion and returns to retPC; any other target gets a shadow-stack
// frame named lbl, or named by an image and symbol search when lbl is
// nil (computed calls, and every call on the step engine, which stays
// the reference for the block engine's precomputed labels).
func (p *Proc) doCall(target, retPC uint32, lbl *frameLabel) bool {
	// Push the return address.
	p.Regs[isa.SP] -= 4
	if err := p.WriteWord(p.Regs[isa.SP], int32(retPC)); err != nil {
		p.kill(SigSEGV)
		return true
	}
	if isHostTarget(target) {
		idx := int(target-hostBase) / 8
		if idx < 0 || idx >= len(p.Sys.hosts) {
			p.kill(SigSEGV)
			return true
		}
		p.hc = HostCall{Sys: p.Sys, Proc: p, sp: p.Regs[isa.SP]}
		ret := p.Sys.hosts[idx].fn(&p.hc)
		if p.Exited {
			return true
		}
		p.Regs[isa.R0] = uint32(ret)
		// Simulated return.
		p.Regs[isa.SP] += 4
		p.PC = retPC
		return true
	}
	var l frameLabel
	if lbl != nil {
		l = *lbl
	} else {
		l = p.labelAt(target)
	}
	p.CallStack = append(p.CallStack, Frame{FuncVA: target, Symbol: l.sym, Module: l.mod, RetPC: retPC})
	p.PC = target
	return true
}

// Brk grows (or queries, with arg 0) the process heap; Linux-style.
func (p *Proc) Brk(newBrk uint32) int32 {
	if newBrk == 0 {
		return int32(p.brk)
	}
	if newBrk < heapBase || newBrk > heapBase+p.Sys.opts.HeapLimit {
		return -kernel.ENOMEM
	}
	// A restored CoW heap flattens before any resize: grow/shrink
	// reason about one contiguous backing slice, and the resized heap
	// no longer matches the template's page geometry. Both resize arms
	// below invalidate the window cache, which also drops any page
	// views the flatten orphaned.
	if newBrk != p.brk {
		p.heap.materialize()
	}
	switch {
	case newBrk > p.brk:
		p.heap.data = append(p.heap.data, make([]byte, newBrk-p.brk)...)
		// The append may have moved the heap's backing array; cached
		// segment windows alias the old one and must not serve it.
		p.invalidateMemCache()
	case newBrk < p.brk:
		// Shrink truncates the segment so len(heap.data) tracks brk:
		// without this, a shrink-then-grow cycle appends onto the old
		// high-water buffer, leaving memory beyond brk accessible and
		// regrown bytes stale instead of zeroed. (The append above
		// writes zeroes over any reused capacity.) Cached windows hold
		// the longer length and must be dropped.
		p.heap.data = p.heap.data[:newBrk-heapBase]
		p.invalidateMemCache()
	}
	p.brk = newBrk
	return int32(p.brk)
}
