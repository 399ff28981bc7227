// Copy-on-write segment memory for snapshot restores.
//
// A Restore used to deep-copy every writable byte of the template —
// O(writable bytes) per experiment, paid mostly for stack and heap
// pages the run never touches. The CoW representation shares the
// template's frozen bytes page by page instead: a restored segment
// starts as a table of page views aliasing the snapshot's flat copy,
// every view read-only by convention, and the write barrier in the
// Proc memory slow paths replaces a view with a private 4 KiB copy on
// the first write to its page. Restore therefore costs O(pages) slice
// headers, and a run's total copy cost is O(dirtied pages).
//
// Lifecycle: share (Restore points pages[i] at the template), copy
// (privatize on first write), reset (the next Restore mints a fresh
// page table off the same template — dirty pages are simply dropped
// with their System). The template itself is never written: every
// write path goes through privatize before touching bytes.
//
// Write-barrier placement: all writes funnel through the slow paths
// (writeWordSlow, writeByteSlow, WriteBytes) because the fast paths
// only ever hit the wrc window, and wrc — like every recent window
// marked writable — is only ever installed over a page that privatize
// has already copied. Reads may hit shared pages through rdc and the
// recent windows — harmless — but the first write to a page must drop
// every window aliasing that page's shared view, or reads would keep
// serving template bytes the writes no longer reach (the
// cow-privatize-drops-read-window regression case).
package vm

// CoW page geometry. 4 KiB balances restore cost (one slice header
// per page) against copy granularity (one memcpy per dirtied page).
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// cowSeg is the copy-on-write overlay of one writable segment. When a
// segment carries a cowSeg, its flat data slice is nil and all access
// goes through the page table.
type cowSeg struct {
	// length is the segment's total byte length (the flat-data
	// equivalent of len(data); the last page may be partial).
	length int
	// pages[i] is the current view of page i: an alias of the
	// snapshot's shared template page until the first write, a private
	// copy afterwards. Views are read through freely; writes require
	// dirty[i] (i.e. privatize first).
	pages [][]byte
	// dirty[i] marks pages[i] as privately owned and writable.
	dirty []bool
}

// pageViews slices a flat byte array into capped page views — the
// shared table a Snapshot precomputes once so every Restore only
// copies slice headers.
func pageViews(data []byte) [][]byte {
	n := (len(data) + pageSize - 1) >> pageShift
	views := make([][]byte, n)
	for i := range views {
		lo := i << pageShift
		hi := lo + pageSize
		if hi > len(data) {
			hi = len(data)
		}
		views[i] = data[lo:hi:hi]
	}
	return views
}

// length returns the segment's byte length regardless of representation.
func (s *segment) length() int {
	if s.cow != nil {
		return s.cow.length
	}
	return len(s.data)
}

// view returns the longest contiguous readable run starting at off:
// the rest of a flat segment, or the rest of one page of a CoW one.
// off must be in bounds.
func (s *segment) view(off uint32) []byte {
	if s.cow == nil {
		return s.data[off:]
	}
	return s.cow.pages[off>>pageShift][off&pageMask:]
}

// byteAt reads one in-bounds byte through either representation.
func (s *segment) byteAt(off uint32) byte {
	if s.cow == nil {
		return s.data[off]
	}
	return s.cow.pages[off>>pageShift][off&pageMask]
}

// copyTo flattens the segment's full contents into dst (len >= length).
func (s *segment) copyTo(dst []byte) {
	if s.cow == nil {
		copy(dst, s.data)
		return
	}
	for i, pg := range s.cow.pages {
		copy(dst[i<<pageShift:], pg)
	}
}

// flatten renders the segment as one contiguous slice: the backing
// array itself for flat segments, a fresh joined copy for CoW ones.
// Oracle/test helper — the execution paths never call it.
func (s *segment) flatten() []byte {
	if s.cow == nil {
		return s.data
	}
	out := make([]byte, s.cow.length)
	s.copyTo(out)
	return out
}

// materialize converts a CoW segment back to a private flat backing
// array. Brk calls it before resizing the heap: growth and shrink
// reason about one contiguous slice, and a resized segment no longer
// matches the template's page geometry anyway. The caller must
// invalidate the window cache (page views die with the overlay).
func (s *segment) materialize() {
	if s.cow == nil {
		return
	}
	data := make([]byte, s.cow.length)
	s.copyTo(data)
	s.data = data
	s.cow = nil
}

// privatize is the write barrier: it gives the process a private copy
// of one CoW page before the first write lands, and drops the read
// windows (rdc and any recent one) aliasing the shared view so later
// reads cannot serve stale template bytes. Returns the (now writable)
// page view. pi must be in bounds; sg.cow must be non-nil.
func (p *Proc) privatize(sg *segment, pi uint32) []byte {
	c := sg.cow
	if !c.dirty[pi] {
		c.pages[pi] = append([]byte(nil), c.pages[pi]...)
		c.dirty[pi] = true
		base := sg.base + pi<<pageShift
		if p.rdc.base == base {
			p.rdc = memWindow{}
		}
		for i := range p.wins {
			if p.wins[i].base == base {
				p.wins[i] = recentWin{}
			}
		}
	}
	return c.pages[pi]
}
