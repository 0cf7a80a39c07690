// Package vmem is the software MMU underneath the DSD layer.
//
// The paper detects writes with mprotect(): globals are write-protected, the
// first store to a page raises SIGSEGV, the handler twins the page and
// unprotects it so later stores proceed at full speed, and at release time
// each dirty page is diffed against its twin (Section 4). Go cannot
// mprotect its own heap, so this package reproduces the same mechanism in
// software: a Segment is a paged byte region with per-page write protection;
// stores go through Segment.Write, which performs the trap/twin/unprotect
// dance with identical first-touch semantics and cost structure (one trap
// and one page copy per dirty page, then raw stores).
package vmem

import (
	"fmt"
	"slices"
)

// FaultFunc observes write traps; the DSD layer uses it for accounting.
// page is the index of the page being unprotected.
type FaultFunc func(page int)

// Segment is one virtually-addressed, paged memory region. A Segment is
// owned by a single node goroutine; it is not safe for concurrent use, just
// as a process address space belongs to one process.
type Segment struct {
	base     uint64
	pageSize int
	data     []byte
	prot     []bool
	onFault  FaultFunc
	faults   uint64

	// twin is the twin arena, laid out parallel to data: page p's twin is
	// twin[p*pageSize:(p+1)*pageSize], meaningful while twinned[p]. It is
	// allocated at the first trap and reused for the segment's lifetime, so
	// a trap copies a page but allocates nothing.
	twin    []byte
	twinned []bool
	// dirty lists the twinned pages in ascending order: the pages written
	// since the last ProtectAll. ProtectAll, DirtyPages and the release
	// scan touch only these.
	dirty []int
	// open marks pages left writable without a twin (a fresh segment,
	// UnprotectAll, DropTwins); only then must ProtectAll sweep every page.
	open bool

	// Per-page heat accounting, cumulative since creation: write traps
	// taken, changed-element runs and bytes the release scan found on each
	// page (NoteDiff). A page with many faults and many small runs is a
	// false-sharing suspect — distinct objects on one page ping-ponging the
	// twin/diff machinery.
	heatFaults    []uint64
	heatDiffRuns  []uint64
	heatDiffBytes []uint64
	twinsMade     uint64
	// shipped holds each page's fault count as of the last TakeFaults, and
	// touched the pages that trapped since then, in trap order.
	shipped []uint64
	touched []int
}

// NewSegment creates a segment of the given size at virtual address base
// with the given page size. The size is rounded up to a whole number of
// pages. base must itself be page aligned, mirroring mmap semantics.
func NewSegment(base uint64, size, pageSize int) (*Segment, error) {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("vmem: page size %d is not a power of two", pageSize)
	}
	if size <= 0 {
		return nil, fmt.Errorf("vmem: segment size %d must be positive", size)
	}
	if base%uint64(pageSize) != 0 {
		return nil, fmt.Errorf("vmem: base %#x not aligned to page size %d", base, pageSize)
	}
	pages := (size + pageSize - 1) / pageSize
	return &Segment{
		base:          base,
		pageSize:      pageSize,
		data:          make([]byte, pages*pageSize),
		prot:          make([]bool, pages),
		twinned:       make([]bool, pages),
		open:          true,
		heatFaults:    make([]uint64, pages),
		heatDiffRuns:  make([]uint64, pages),
		heatDiffBytes: make([]uint64, pages),
		shipped:       make([]uint64, pages),
	}, nil
}

// MustSegment is NewSegment that panics on error, for statically correct
// construction sites.
func MustSegment(base uint64, size, pageSize int) *Segment {
	s, err := NewSegment(base, size, pageSize)
	if err != nil {
		panic(err)
	}
	return s
}

// Base returns the virtual base address.
func (s *Segment) Base() uint64 { return s.base }

// Size returns the segment length in bytes (a whole number of pages).
func (s *Segment) Size() int { return len(s.data) }

// PageSize returns the page size.
func (s *Segment) PageSize() int { return s.pageSize }

// Pages returns the number of pages.
func (s *Segment) Pages() int { return len(s.prot) }

// Faults returns the number of write traps taken since creation.
func (s *Segment) Faults() uint64 { return s.faults }

// OnFault registers a hook invoked on every write trap (after the twin is
// made). Pass nil to remove it.
func (s *Segment) OnFault(f FaultFunc) { s.onFault = f }

// Contains reports whether the virtual address range [addr, addr+n) lies
// inside the segment.
func (s *Segment) Contains(addr uint64, n int) bool {
	return addr >= s.base && addr+uint64(n) <= s.base+uint64(len(s.data))
}

// Addr translates a segment offset to a virtual address.
func (s *Segment) Addr(off int) uint64 { return s.base + uint64(off) }

// Offset translates a virtual address to a segment offset; it returns an
// error when the address is outside the segment.
func (s *Segment) Offset(addr uint64) (int, error) {
	if addr < s.base || addr >= s.base+uint64(len(s.data)) {
		return 0, fmt.Errorf("vmem: address %#x outside segment [%#x,%#x)", addr, s.base, s.base+uint64(len(s.data)))
	}
	return int(addr - s.base), nil
}

// ProtectAll write-protects every page and discards all twins. This is the
// DSD's "mprotect the globals" step at acquire time. It costs the dirty
// pages only, unless some page was left writable without a twin.
func (s *Segment) ProtectAll() {
	if s.open {
		for i := range s.prot {
			s.prot[i] = true
		}
		s.open = false
	}
	for _, p := range s.dirty {
		s.prot[p] = true
		s.twinned[p] = false
	}
	s.dirty = s.dirty[:0]
}

// UnprotectAll removes write protection from every page without touching
// twins; used when a node wants raw access (e.g. while initially loading
// data before sharing begins).
func (s *Segment) UnprotectAll() {
	for i := range s.prot {
		s.prot[i] = false
	}
	s.open = true
}

// Protected reports whether the page is currently write-protected.
func (s *Segment) Protected(page int) bool { return s.prot[page] }

// Read copies n bytes at offset off into buf (which must be at least n
// long) and returns buf[:n]. Reads never fault: the paper protects pages
// against writes only.
func (s *Segment) Read(off, n int, buf []byte) ([]byte, error) {
	if err := s.check(off, n); err != nil {
		return nil, err
	}
	copy(buf[:n], s.data[off:off+n])
	return buf[:n], nil
}

// View returns a read-only view of n bytes at off without copying. The
// caller must not mutate it (mutations would bypass write detection; use
// Write). It remains valid until the segment is garbage.
func (s *Segment) View(off, n int) ([]byte, error) {
	if err := s.check(off, n); err != nil {
		return nil, err
	}
	return s.data[off : off+n : off+n], nil
}

// Write stores b at offset off, taking a write trap on the first store to
// each protected page: the page is twinned, unprotected, and the fault hook
// runs — exactly the SIGSEGV-handler protocol of the paper.
func (s *Segment) Write(off int, b []byte) error {
	v, err := s.WriteView(off, len(b))
	if err != nil {
		return err
	}
	copy(v, b)
	return nil
}

// WriteView is Write without a source buffer: it takes the write traps for
// [off, off+n) and returns those n bytes of the segment for the caller to
// store into in place, so a typed store encodes straight into the replica.
// The view is for this store only; keeping it to write later would bypass
// the next window's write detection. An empty range traps nothing.
func (s *Segment) WriteView(off, n int) ([]byte, error) {
	if err := s.check(off, n); err != nil {
		return nil, err
	}
	if n > 0 {
		for p, last := off/s.pageSize, (off+n-1)/s.pageSize; p <= last; p++ {
			if s.prot[p] {
				s.trap(p)
			}
		}
	}
	return s.data[off : off+n : off+n], nil
}

// trap performs the fault protocol on one page: twin, unprotect, notify.
func (s *Segment) trap(p int) {
	if s.twin == nil {
		s.twin = make([]byte, len(s.data))
	}
	lo, hi := p*s.pageSize, (p+1)*s.pageSize
	copy(s.twin[lo:hi], s.data[lo:hi])
	s.twinned[p] = true
	if n := len(s.dirty); n == 0 || s.dirty[n-1] < p {
		s.dirty = append(s.dirty, p)
	} else {
		i, _ := slices.BinarySearch(s.dirty, p)
		s.dirty = slices.Insert(s.dirty, i, p)
	}
	s.prot[p] = false
	s.faults++
	if s.heatFaults[p] == s.shipped[p] {
		s.touched = append(s.touched, p)
	}
	s.heatFaults[p]++
	s.twinsMade++
	if s.onFault != nil {
		s.onFault(p)
	}
}

// RawWrite stores without the protection protocol. It is used by the DSD
// when applying remote updates to the local copy: those bytes are already
// known to both sides and must not be re-detected as local writes.
func (s *Segment) RawWrite(off int, b []byte) error {
	if err := s.check(off, len(b)); err != nil {
		return err
	}
	copy(s.data[off:], b)
	return nil
}

// ApplyRemote stores an incoming DSD update. Like RawWrite it takes no
// write trap, but it additionally patches any existing twin of the touched
// pages so the remote bytes do not show up in this node's next diff: they
// are the home's data, not local writes, and echoing them back would inflate
// every release.
func (s *Segment) ApplyRemote(off int, b []byte) error {
	if err := s.check(off, len(b)); err != nil {
		return err
	}
	copy(s.data[off:], b)
	if len(b) == 0 {
		return nil
	}
	for p, last := off/s.pageSize, (off+len(b)-1)/s.pageSize; p <= last; p++ {
		if !s.twinned[p] {
			continue
		}
		lo := max(off, p*s.pageSize)
		hi := min(off+len(b), (p+1)*s.pageSize)
		copy(s.twin[lo:hi], b[lo-off:hi-off])
	}
	return nil
}

func (s *Segment) check(off, n int) error {
	if off < 0 || n < 0 || off+n > len(s.data) {
		return fmt.Errorf("vmem: range [%d,%d) outside segment of %d bytes", off, off+n, len(s.data))
	}
	return nil
}

// DirtyPages returns the indexes of pages written since the last
// ProtectAll, in ascending order.
func (s *Segment) DirtyPages() []int {
	if len(s.dirty) == 0 {
		return nil
	}
	return slices.Clone(s.dirty)
}

// Window exposes the current detection window to a release scan
// (indextable.Table.ReleaseSpans) without copying: the dirty pages in
// ascending order, the replica, and the twin arena, whose bytes are
// meaningful on dirty pages only. All three are the segment's own storage:
// read them, never write them, and drop them at the next store, ApplyRemote,
// ProtectAll or DropTwins.
func (s *Segment) Window() (dirty []int, cur, twin []byte) {
	return s.dirty, s.data, s.twin
}

// Twinned reports whether page holds a twin, i.e. is dirty in the current
// window.
func (s *Segment) Twinned(page int) bool { return s.twinned[page] }

// Range is a half-open byte span [Start, End) of segment offsets.
type Range struct {
	// Start is the first offset in the span.
	Start int
	// End is one past the last offset.
	End int
}

// Len returns the span length.
func (r Range) Len() int { return r.End - r.Start }

// DiffGranularity names how the twin comparison scans memory.
type DiffGranularity int

// DiffByte compares byte by byte — the straightforward scheme the paper
// describes ("each byte on the dirty page must be compared to its
// corresponding byte on the original page", Section 4.2). It is the only
// granularity; the DSD's release path uses the fused element-stride scan
// (indextable.Table.ReleaseSpans), with Diff kept as its test oracle.
const DiffByte DiffGranularity = 0

// DiffPage compares a dirty page against its twin and returns the modified
// byte ranges as segment offsets. A page without a twin yields nil.
func (s *Segment) DiffPage(page int, g DiffGranularity) []Range {
	if !s.twinned[page] {
		return nil
	}
	base := page * s.pageSize
	cur := s.data[base : base+s.pageSize]
	tw := s.twin[base : base+s.pageSize]
	var out []Range
	for i, n := 0, len(cur); i < n; {
		if cur[i] == tw[i] {
			i++
			continue
		}
		start := i
		for i < n && cur[i] != tw[i] {
			i++
		}
		out = append(out, Range{Start: base + start, End: base + i})
	}
	return out
}

// Diff runs DiffPage over every dirty page and returns all modified ranges
// in ascending order, merging runs that touch across page boundaries.
func (s *Segment) Diff(g DiffGranularity) []Range {
	var out []Range
	for _, p := range s.dirty {
		for _, r := range s.DiffPage(p, g) {
			if len(out) > 0 && out[len(out)-1].End == r.Start {
				out[len(out)-1].End = r.End
			} else {
				out = append(out, r)
			}
		}
	}
	return out
}

// DropTwins discards all twins without re-protecting; used after a diff has
// been consumed when the pages should stay writable.
func (s *Segment) DropTwins() {
	for _, p := range s.dirty {
		s.twinned[p] = false
	}
	if len(s.dirty) > 0 {
		s.open = true
	}
	s.dirty = s.dirty[:0]
}

// TwinBytes returns the number of bytes currently held in twins, a measure
// of the memory overhead of the twin/diff scheme.
func (s *Segment) TwinBytes() int { return len(s.dirty) * s.pageSize }
