// Snapshot/restore: the fork-server campaign runtime (ZOFI-style).
//
// A fault-injection sweep runs thousands of experiments against
// byte-identical images; only the faultload differs. Building each run
// from scratch repeats the whole load pipeline — text copy, relocation
// patching, isa.DecodeAll, symbol-map construction — per experiment.
// Snapshot splits a spawned System into two halves:
//
//   - shared immutable template state: registered programs, patched
//     text, decoded []isa.Inst, the compiled superblock table the block
//     execution engine dispatches from (execCode, built once at
//     relocation), symbol tables and funcsVA (the whole Image, shared
//     by pointer when coverage is off), read-only segments, and the
//     frozen kernel template;
//   - mutable residue, deep-copied per Restore: writable data/TLS/
//     stack/heap segments, registers, flags, shadow call stack, brk,
//     kernel FS/FD state, and cycle counters.
//
// Mutable segment bytes are not deep-copied per Restore either: the
// snapshot precomputes a page-view table over each writable segment's
// frozen bytes, and Restore hands the new process a copy-on-write
// overlay of those shared pages (see cow.go). A page is copied only on
// the restored process's first write to it, so a Restore costs O(pages)
// slice headers up front and O(dirtied pages) over the run's lifetime —
// not O(writable bytes), and far below O(program size + decode +
// relocation). Copy-on-write is the only restore kind; a fresh spawn
// is the oracle restores are tested against.
//
// A Snapshot is immutable and safe for concurrent
// Restore from any number of goroutines; each restored System is as
// private as a freshly spawned one and may be run, mutated and
// discarded independently. Host-function slots are copied per restore,
// so a caller may rebind a host function (RegisterHost) on one restored
// system — the fork-server idiom the LFI controller uses to attach a
// per-experiment trigger evaluator — without affecting siblings. The
// program registry and host index are shared copy-on-write between a
// system, its snapshots and their restores.
package vm

import (
	"errors"
	"slices"

	"lfi/internal/isa"
	"lfi/internal/kernel"
	"lfi/internal/obj"
)

// Snapshot is an immutable template of a System. The classic use takes
// it right after Spawn (the post-load entry point) and before Run, but
// any stopped System snapshots exactly: registers, CoW page tables,
// kernel FS/FD/pipe state, cycle counters and — when RunStops froze the
// system mid-slice — the scheduler's position inside the interrupted
// round, so a restored system replays the slice boundaries of an
// unbroken run. Mid-execution snapshots are what the sweep memoizer
// mints at a plan's first-fire site.
type Snapshot struct {
	opts        Options
	programs    map[string]*obj.File
	hosts       []host
	hostIdx     map[string]int
	kern        *kernel.Snapshot
	nextPID     int
	totalCycles uint64
	resume      schedResume
	procs       []procSnap
}

// Footprint estimates the bytes a snapshot keeps alive on its own —
// the writable bytes it copied or took over from the live system, plus
// page-view headers. Read-only segments, images, decoded instructions
// and the pages it shares with the template or an earlier snapshot are
// not counted. This is the unit of the sweep memo cache's byte budget.
func (s *Snapshot) Footprint() int64 {
	n := int64(4096) // struct + kernel clone overhead, approximately
	for i := range s.procs {
		for _, sg := range s.procs[i].segs {
			if sg.writable {
				n += int64(sg.own) + int64(len(sg.pages))*24
			}
		}
	}
	return n
}

// procSnap freezes one process: template images and read-only segments
// are shared, writable segment bytes are copied into the snapshot.
type procSnap struct {
	id        int
	regs      [isa.NumRegs]uint32
	pc        uint32
	flagEQ    bool
	flagLT    bool
	images    []*Image
	segs      []segSnap
	heapIdx   int
	brk       uint32
	exited    bool
	status    ExitStatus
	cycles    uint64
	callStack []Frame
	cfg       SpawnConfig
	parentIdx int // index into Snapshot.procs; -1 = no parent
	reaped    bool
	blocked   bool
}

type segSnap struct {
	base     uint32
	data     []byte   // read-only bytes, shared on restore; nil if writable
	pages    [][]byte // writable: frozen page views; CoW restores copy this table
	length   int      // writable: the segment's byte length
	own      int      // writable: bytes copied or taken over from the live system
	writable bool
	name     string
}

// Snapshot freezes the system's current state into an immutable
// template. The system itself stays observably untouched and runnable,
// and its later mutations never leak into the template: flat writable
// memory is copied out, and the pages of a copy-on-write segment (a
// restored system's) are shared instead — the snapshot takes over the
// pages the system had privatized, and the system copies a page again
// on its next write to it. Successive snapshots of one running system,
// the memo ladder's rungs, therefore share every page written in
// neither interval.
func (s *System) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{
		opts:        s.opts,
		programs:    s.programs,
		hosts:       slices.Clone(s.hosts),
		hostIdx:     s.hostIdx,
		kern:        s.kern.Snapshot(),
		nextPID:     s.nextPID,
		totalCycles: s.TotalCycles,
		resume:      s.resume,
		procs:       make([]procSnap, 0, len(s.procs)),
	}
	s.sharedMaps = true
	for _, p := range s.procs {
		ps := procSnap{
			id:        p.ID,
			regs:      p.Regs,
			pc:        p.PC,
			flagEQ:    p.flagEQ,
			flagLT:    p.flagLT,
			images:    copyImages(p.Images, s.opts.Coverage),
			heapIdx:   -1,
			brk:       p.brk,
			exited:    p.Exited,
			status:    p.Status,
			cycles:    p.Cycles,
			callStack: append([]Frame(nil), p.CallStack...),
			cfg:       p.cfg,
			parentIdx: -1,
			reaped:    p.reaped,
			blocked:   p.blocked,
			segs:      make([]segSnap, 0, len(p.segs)),
		}
		if p.parent != nil {
			if ps.parentIdx = slices.Index(s.procs, p.parent); ps.parentIdx < 0 {
				return nil, errors.New("vm: snapshot: process parent outside the system")
			}
		}
		shared := false
		for i, sg := range p.segs {
			ss := segSnap{base: sg.base, writable: sg.writable, name: sg.name}
			switch {
			case !sg.writable:
				ss.data = sg.data
			case sg.cow != nil:
				ss.pages = append([][]byte(nil), sg.cow.pages...)
				ss.length = sg.cow.length
				for j, d := range sg.cow.dirty {
					if d {
						ss.own += len(ss.pages[j])
						sg.cow.dirty[j] = false
					}
				}
				shared = true
			default:
				// Copy out, and precompute the page views every Restore
				// will alias.
				data := append([]byte(nil), sg.data...)
				ss.pages, ss.length, ss.own = pageViews(data), len(data), len(data)
			}
			ps.segs = append(ps.segs, ss)
			if sg == p.heap {
				ps.heapIdx = i
			}
		}
		if shared {
			// The write windows alias pages the snapshot now shares:
			// the next write must go through the barrier and copy.
			p.invalidateMemCache()
		}
		if p.heap != nil && ps.heapIdx < 0 {
			return nil, errors.New("vm: snapshot: heap segment not in segment list")
		}
		snap.procs = append(snap.procs, ps)
	}
	return snap, nil
}

// Restore mints a fresh runnable System from the template. Only the
// mutable residue is deep-copied; text, decoded instructions and symbol
// tables are shared with the template and every sibling restore. The
// returned system owns a private host-function slot table and shares
// the program registry and host index with the template until a
// Register or RegisterHost adds a name, which copies them first, so
// neither ever races a concurrent sibling.
func (s *Snapshot) Restore() *System {
	sys := &System{
		opts:        s.opts,
		programs:    s.programs,
		hosts:       slices.Clone(s.hosts),
		hostIdx:     s.hostIdx,
		sharedMaps:  true,
		kern:        s.kern.Restore(),
		nextPID:     s.nextPID,
		TotalCycles: s.totalCycles,
		resume:      s.resume,
	}

	procs := make([]*Proc, len(s.procs))
	for i := range s.procs {
		ps := &s.procs[i]
		p := &Proc{
			ID:        ps.id,
			Sys:       sys,
			Regs:      ps.regs,
			PC:        ps.pc,
			flagEQ:    ps.flagEQ,
			flagLT:    ps.flagLT,
			Exited:    ps.exited,
			Status:    ps.status,
			Cycles:    ps.cycles,
			CallStack: append([]Frame(nil), ps.callStack...),
			brk:       ps.brk,
			cfg:       ps.cfg,
			reaped:    ps.reaped,
			blocked:   ps.blocked,
		}
		p.Images = copyImages(ps.images, s.opts.Coverage)
		p.segs = make([]*segment, len(ps.segs))
		segs := make([]segment, len(ps.segs))
		cows := make([]cowSeg, len(ps.segs))
		for j, sg := range ps.segs {
			seg := &segs[j]
			*seg = segment{base: sg.base, writable: sg.writable, name: sg.name}
			switch {
			case !sg.writable:
				// Read-only: share the template bytes outright.
				seg.data = sg.data
			default:
				// Copy-on-write: alias the snapshot's shared page views;
				// the write barrier (Proc.privatize) copies a page on
				// first write. "Reset to shared" on the next Restore is
				// free — each restore mints a fresh page table off the
				// same template, and dirty pages die with their System.
				seg.cow = &cows[j]
				*seg.cow = cowSeg{
					length: sg.length,
					pages:  append([][]byte(nil), sg.pages...),
					dirty:  make([]bool, len(sg.pages)),
				}
			}
			p.segs[j] = seg
			if j == ps.heapIdx {
				p.heap = seg
			}
		}
		procs[i] = p
	}
	// Second pass: rebind the process tree (parent pointers, children,
	// SpawnConfig parents) onto the restored processes.
	for i := range s.procs {
		ps := &s.procs[i]
		if ps.parentIdx >= 0 {
			parent := procs[ps.parentIdx]
			procs[i].parent = parent
			procs[i].cfg.parent = parent
			parent.children = append(parent.children, procs[i])
		}
	}
	sys.procs = procs
	return sys
}

// copyImages freezes or restores an image list. Without coverage the
// images are immutable after relocation (File, patched text, decoded
// Insts, the compiled block table and symbol tables never change at
// run time), so the pointers are shared outright. With coverage on,
// CoverBits is written during execution, so both directions take
// shallow image copies with private bit vectors: Snapshot must not see
// coverage from a template that keeps running, and a restore must not
// see a sibling's. The shallow copy still shares exec — the block
// table is derived from Insts alone, so every restore dispatches from
// the template's compiled form without recompiling.
func copyImages(images []*Image, coverage bool) []*Image {
	if !coverage {
		return images
	}
	out := make([]*Image, len(images))
	for i, im := range images {
		c := *im
		c.CoverBits = append([]uint64(nil), im.CoverBits...)
		out[i] = &c
	}
	return out
}
