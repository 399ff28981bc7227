package controller

import (
	"fmt"
	"slices"
	"sort"

	"lfi/internal/asm"
	"lfi/internal/obj"
	"lfi/internal/scenario"
	"lfi/internal/vm"
)

// StubSet is a precomputed interception surface: the synthesised stub
// library for a fixed set of functions plus the fid mapping baked into
// its stubs. It decouples stub synthesis from the faultload so that a
// snapshot-based campaign scheduler can assemble the stubs once for the
// union of every function a sweep will ever intercept, spawn one
// template system with them preloaded, and then bind a different
// compiled plan to each restored run — functions the current plan does
// not name simply evaluate to pass-through.
//
// A StubSet is immutable and safe to share across campaigns, restores
// and goroutines.
type StubSet struct {
	fns []string // sorted; fid i is fns[i], matching GenerateStubSource
	lib *obj.File
	// cnt[fid] is the data offset of fns[fid]'s static call counter
	// (__cnt_<fn>) in lib.
	cnt []int32
}

// NewStubSet synthesises the interceptor library for the given function
// set (order and duplicates are irrelevant; the fid order is sorted, as
// in GenerateStubSource).
func NewStubSet(fns []string) (*StubSet, error) {
	seen := make(map[string]bool, len(fns))
	sorted := make([]string, 0, len(fns))
	for _, fn := range fns {
		if fn == "" || seen[fn] {
			continue
		}
		seen[fn] = true
		sorted = append(sorted, fn)
	}
	if len(sorted) == 0 {
		return nil, fmt.Errorf("controller: stub set has no functions")
	}
	sort.Strings(sorted)
	src := GenerateStubSource(sorted)
	f, err := asm.Assemble(StubLibName+".s", src)
	if err != nil {
		return nil, fmt.Errorf("controller: synthesising stubs: %w", err)
	}
	ss := &StubSet{fns: sorted, lib: f, cnt: make([]int32, len(sorted))}
	offs := make(map[string]int32, len(f.Symbols))
	for _, sym := range f.Symbols {
		if sym.Kind == obj.SymData {
			offs[sym.Name] = sym.Off
		}
	}
	for fid, fn := range sorted {
		ss.cnt[fid] = offs[counterSym(fn)]
	}
	return ss, nil
}

// counter reports whether off is the data offset of a stub's call
// counter. The counters are declared in fid order, so cnt is sorted.
func (ss *StubSet) counter(off int32) bool {
	_, ok := slices.BinarySearch(ss.cnt, off)
	return ok
}

// Functions returns the intercepted function names in fid order.
func (ss *StubSet) Functions() []string { return append([]string(nil), ss.fns...) }

// Called reports which intercepted functions the guest in sys entered
// through their stubs: those whose static call counter, bumped by the
// stub before it evaluates any trigger, is non-zero in some process,
// exited ones included. A faultload fires only from that evaluation, so
// a run whose faultload names none of these functions behaves exactly
// as a pass-through run. A function whose code ran only through direct
// calls inside its own library never passed its stub and is not called.
func (ss *StubSet) Called(sys *vm.System) map[string]bool {
	called := make(map[string]bool)
	ss.Watch().Poll(sys, func(fn string) { called[fn] = true })
	return called
}

// Count returns fn's static call counter in process p: how many calls
// p has entered fn's stub for, exited processes included. It is 0 when
// the set has no stub for fn or p maps no stub library.
func (ss *StubSet) Count(p *vm.Proc, fn string) int32 {
	fid := sort.SearchStrings(ss.fns, fn)
	if fid == len(ss.fns) || ss.fns[fid] != fn {
		return 0
	}
	im, ok := p.ImageByName(StubLibName)
	if !ok {
		return 0
	}
	n, err := p.ReadWord(im.DataBase + uint32(ss.cnt[fid]))
	if err != nil {
		return 0
	}
	return n
}

// CallWatch follows a running system's stub counters from one stop to
// the next: which functions Called has come to include since the last
// poll. Counters only grow, so a function leaves the watch once seen.
type CallWatch struct {
	ss *StubSet
	// waiting lists the fids of the functions not yet seen called.
	waiting []int
	// procs holds each process's stub counter base during one poll.
	procs []procCounters
}

type procCounters struct {
	p    *vm.Proc
	base uint32
}

// Watch starts a watch over every function of the set.
func (ss *StubSet) Watch() *CallWatch {
	w := &CallWatch{ss: ss, waiting: make([]int, len(ss.fns))}
	for fid := range w.waiting {
		w.waiting[fid] = fid
	}
	return w
}

// Poll passes each watched function that Called(sys) now includes to
// called, in fid order, and stops watching it. It resolves every
// process's stub image once and then reads one counter word per process
// and still-watched function.
func (w *CallWatch) Poll(sys *vm.System, called func(fn string)) {
	w.procs = w.procs[:0]
	for _, p := range sys.Procs() {
		if im, ok := p.ImageByName(StubLibName); ok {
			w.procs = append(w.procs, procCounters{p, im.DataBase})
		}
	}
	keep := w.waiting[:0]
	for _, fid := range w.waiting {
		if w.counted(fid) {
			called(w.ss.fns[fid])
		} else {
			keep = append(keep, fid)
		}
	}
	w.waiting = keep
}

// counted reports whether fns[fid]'s counter is non-zero in some
// process of the current poll.
func (w *CallWatch) counted(fid int) bool {
	off := uint32(w.ss.cnt[fid])
	for _, pc := range w.procs {
		if n, err := pc.p.ReadWord(pc.base + off); err == nil && n != 0 {
			return true
		}
	}
	return false
}

// InstallTemplate prepares a template system for snapshotting: it
// registers the stub library and an inert pass-through evaluator host
// slot, so the template can be spawned (with PreloadList) and frozen
// before any faultload exists. Each restore then rebinds the slot to a
// real controller via Controller.Install.
func (ss *StubSet) InstallTemplate(sys *vm.System) {
	sys.Register(ss.lib)
	sys.RegisterHost(evalHostFunc, func(*vm.HostCall) int32 { return 0 })
}

// PreloadList returns the preload set for SpawnConfig (the LD_PRELOAD
// line).
func (ss *StubSet) PreloadList() []string { return []string{StubLibName} }

// NewWithStubs creates a controller that drives the compiled plan
// through a prebuilt interception surface. The stub set may cover more
// functions than the plan names: the extra stubs still charge the fixed
// dispatch cost, but keep no state and never inject. This is the
// restore half of the fork-server runtime — the stub set and compiled
// plan are shared immutably while each controller owns only the thin
// per-run state (evaluators and the injection log).
//
// Binding resolves, once, which of the set's fids the plan triggers on:
// the per-call path then indexes a slice instead of hashing a function
// name.
func NewWithStubs(ss *StubSet, cp *scenario.CompiledPlan) *Controller {
	c := &Controller{cp: cp, stubs: ss, fidToFunc: ss.fns, evals: make(map[int]*scenario.Evaluator)}
	c.fidIndex = make([]int32, len(ss.fns))
	for fi, fn := range cp.Functions() {
		if fid := sort.SearchStrings(ss.fns, fn); fid < len(ss.fns) && ss.fns[fid] == fn {
			c.fidIndex[fid] = int32(fi + 1)
		}
	}
	return c
}
