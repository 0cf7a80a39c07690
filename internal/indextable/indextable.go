// Package indextable implements the application-level index table of paper
// Section 4 (Figure 4 / Table 1).
//
// The MigThread preprocessor collects all globals into one structure, GThV.
// At start-up each node builds a table with one row per GThV element (plus
// the interleaved padding rows Table 1 shows): base address, element size
// on this machine, and element count — negative for pointers. The table is
// architecture independent in the sense that element *indexes* coincide on
// every platform even when sizes and addresses differ, which is what lets a
// page-level diff be abstracted to a portable (index, element-range) form
// and re-materialized at a heterogeneous receiver.
package indextable

import (
	"fmt"
	"sort"
	"strings"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/vmem"
)

// Row is one printable row of the table, in exactly the shape of the
// paper's Table 1: element rows alternate with padding rows (Size and
// Number zero, address = end of the previous element).
type Row struct {
	// Addr is the virtual base address of the element (or of the padding
	// slot).
	Addr uint64
	// Size is the element size in bytes on this platform; 0 on padding
	// rows (non-empty padding keeps Size 0 and records its length in
	// Pad, matching the (m,0) tag form when rendered).
	Size int
	// Number is the element count, negative for pointers, 0 for padding.
	Number int
	// Pad is the padding length for padding rows.
	Pad int
}

// Entry is one addressable element of GThV: the unit updates are expressed
// in. Entry indexes are identical on every platform for the same GThV type.
type Entry struct {
	// Index is the entry's position, shared across platforms.
	Index int
	// Name is the dotted member path, e.g. "A" or "hdr.len".
	Name string
	// Offset is the byte offset of the element inside the local segment.
	Offset int
	// Addr is the local virtual address (segment base + Offset).
	Addr uint64
	// ElemSize is the per-element size on this platform.
	ElemSize int
	// Count is the number of consecutive elements (1 for scalars).
	Count int
	// CType is the logical C type of the elements; this is what gives
	// the receiver enough information to sign-extend or float-convert.
	CType platform.CType
	// Pointer marks pointer elements (Number column is negative).
	Pointer bool
}

// Bytes returns the total storage of the entry on this platform.
func (e Entry) Bytes() int { return e.ElemSize * e.Count }

// Table is the index table for one node's GThV segment.
type Table struct {
	platform *platform.Platform
	base     uint64
	size     int
	entries  []Entry
	rows     []Row
}

// Build flattens the GThV layout into a table rooted at the virtual base
// address. The layout must be a struct (GThV always is). Nested structs
// flatten recursively; arrays of scalars become single multi-element
// entries exactly as in Table 1; arrays of aggregates flatten per element.
func Build(l *tag.Layout, base uint64) (*Table, error) {
	if l.Fields == nil {
		return nil, fmt.Errorf("indextable: GThV layout must be a struct, got %s", tag.TypeString(l.Type))
	}
	t := &Table{platform: l.Platform, base: base, size: l.Size}
	if err := t.flattenStruct(l, "", 0); err != nil {
		return nil, err
	}
	if len(t.entries) == 0 {
		return nil, fmt.Errorf("indextable: GThV has no elements")
	}
	return t, nil
}

// MustBuild is Build that panics on error.
func MustBuild(l *tag.Layout, base uint64) *Table {
	t, err := Build(l, base)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) flattenStruct(l *tag.Layout, prefix string, off int) error {
	for _, f := range l.Fields {
		name := f.Name
		if prefix != "" {
			name = prefix + "." + name
		}
		if err := t.flattenItem(f.Layout, name, off+f.Offset); err != nil {
			return err
		}
		// The padding row after the element, as in Table 1. Its address
		// is the end of the element just emitted.
		end := off + f.Offset + f.Layout.Size
		t.rows = append(t.rows, Row{Addr: t.base + uint64(end), Pad: f.PadAfter})
	}
	return nil
}

func (t *Table) flattenItem(l *tag.Layout, name string, off int) error {
	switch {
	case l.Fields != nil:
		return t.flattenNested(l, name, off)
	case l.Elem != nil:
		el := l.Elem
		if el.IsScalar() {
			t.addEntry(el, name, off, l.N)
			return nil
		}
		for i := 0; i < l.N; i++ {
			if err := t.flattenItem(el, fmt.Sprintf("%s[%d]", name, i), off+i*el.Size); err != nil {
				return err
			}
		}
		return nil
	default:
		t.addEntry(l, name, off, 1)
		return nil
	}
}

// flattenNested handles a struct used as a member: its fields become
// entries (and padding rows) of the outer table.
func (t *Table) flattenNested(l *tag.Layout, prefix string, off int) error {
	for _, f := range l.Fields {
		if err := t.flattenItem(f.Layout, prefix+"."+f.Name, off+f.Offset); err != nil {
			return err
		}
		end := off + f.Offset + f.Layout.Size
		t.rows = append(t.rows, Row{Addr: t.base + uint64(end), Pad: f.PadAfter})
	}
	return nil
}

func (t *Table) addEntry(leaf *tag.Layout, name string, off, count int) {
	ct := leafCType(leaf)
	e := Entry{
		Index:    len(t.entries),
		Name:     name,
		Offset:   off,
		Addr:     t.base + uint64(off),
		ElemSize: leaf.Size,
		Count:    count,
		CType:    ct,
		Pointer:  ct == platform.CPtr,
	}
	t.entries = append(t.entries, e)
	num := count
	if e.Pointer {
		num = -count
	}
	t.rows = append(t.rows, Row{Addr: e.Addr, Size: e.ElemSize, Number: num})
}

func leafCType(l *tag.Layout) platform.CType {
	switch typ := l.Type.(type) {
	case tag.Scalar:
		return typ.T
	case tag.Pointer:
		return platform.CPtr
	default:
		panic(fmt.Sprintf("indextable: %s is not a leaf", tag.TypeString(l.Type)))
	}
}

// Platform returns the platform the table was built for.
func (t *Table) Platform() *platform.Platform { return t.platform }

// Base returns the virtual base address of the GThV segment.
func (t *Table) Base() uint64 { return t.base }

// Size returns the GThV storage size on this platform.
func (t *Table) Size() int { return t.size }

// Len returns the number of element entries.
func (t *Table) Len() int { return len(t.entries) }

// Entry returns element entry i.
func (t *Table) Entry(i int) Entry { return t.entries[i] }

// Entries returns all element entries in index order. The slice is shared;
// callers must not mutate it.
func (t *Table) Entries() []Entry { return t.entries }

// Rows returns the printable table including padding rows, in Table 1's
// format and order.
func (t *Table) Rows() []Row { return t.rows }

// EntryByName finds an entry by its dotted member path.
func (t *Table) EntryByName(name string) (Entry, bool) {
	for _, e := range t.entries {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// MapOffset maps a segment byte offset to (entry index, element index
// within the entry). ok is false when the offset falls into padding or
// outside the segment.
func (t *Table) MapOffset(off int) (entry, elem int, ok bool) {
	// Entries are sorted by Offset (flattening walks storage order), so
	// binary search for the last entry with Offset <= off.
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Offset > off }) - 1
	if i < 0 {
		return 0, 0, false
	}
	e := t.entries[i]
	rel := off - e.Offset
	if rel >= e.Bytes() {
		return 0, 0, false // padding gap after entry i
	}
	return i, rel / e.ElemSize, true
}

// MapAddr maps a local virtual address like MapOffset.
func (t *Table) MapAddr(addr uint64) (entry, elem int, ok bool) {
	if addr < t.base {
		return 0, 0, false
	}
	return t.MapOffset(int(addr - t.base))
}

// Span is a run of whole consecutive elements within one entry — the
// portable form a page diff is abstracted to, and the unit a CGT-RMR tag
// describes. Spans are the "many indexes distilled into a single tag" of
// paper Section 5.
type Span struct {
	// Entry is the index-table entry the run belongs to.
	Entry int
	// First is the index of the first modified element within the entry.
	First int
	// Count is the number of consecutive modified elements.
	Count int
}

// MapRanges converts raw dirty byte ranges (segment offsets, as produced by
// vmem.Segment.Diff) into coalesced element spans. Bytes that fall into
// padding are dropped — padding never carries data. A byte range that
// partially covers an element widens to the whole element: the element is
// the atomic update unit.
//
// This is the t_index stage of Eq. 1 (with coalescing, the default the
// paper describes; see MapRangesNoCoalesce for the ablation).
func (t *Table) MapRanges(ranges []vmem.Range) []Span {
	return t.mapRanges(ranges, true)
}

// MapRangesNoCoalesce maps each modified element to its own single-element
// span, the naive scheme the paper's coalescing optimization replaces.
func (t *Table) MapRangesNoCoalesce(ranges []vmem.Range) []Span {
	return t.mapRanges(ranges, false)
}

func (t *Table) mapRanges(ranges []vmem.Range, coalesce bool) []Span {
	// Normalize: sort by start and merge overlaps so the single forward
	// sweep below is correct for arbitrary caller input. vmem.Diff output
	// is already sorted; this protects other producers.
	sorted := make([]vmem.Range, len(ranges))
	copy(sorted, ranges)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	merged := sorted[:0]
	for _, r := range sorted {
		if r.Len() <= 0 {
			continue
		}
		if n := len(merged); n > 0 && merged[n-1].End >= r.Start {
			if r.End > merged[n-1].End {
				merged[n-1].End = r.End
			}
			continue
		}
		merged = append(merged, r)
	}
	ranges = merged

	var out []Span
	emit := func(entry, first, count int) {
		if coalesce && len(out) > 0 {
			last := &out[len(out)-1]
			if last.Entry == entry && last.First+last.Count >= first {
				// Merge overlapping/adjacent runs in the same entry.
				end := first + count
				if lastEnd := last.First + last.Count; lastEnd > end {
					end = lastEnd
				}
				last.Count = end - last.First
				return
			}
		}
		if coalesce {
			out = append(out, Span{Entry: entry, First: first, Count: count})
			return
		}
		for i := 0; i < count; i++ {
			out = append(out, Span{Entry: entry, First: first + i, Count: 1})
		}
	}
	for _, r := range ranges {
		off := r.Start
		for off < r.End {
			entry, elem, ok := t.MapOffset(off)
			if !ok {
				// Padding byte: skip forward to the next entry start.
				off = t.nextEntryStart(off, r.End)
				continue
			}
			e := t.entries[entry]
			// Cover elements from elem up to the element containing
			// the last byte of the overlap with this entry.
			entryEnd := e.Offset + e.Bytes()
			end := r.End
			if entryEnd < end {
				end = entryEnd
			}
			lastElem := (end - 1 - e.Offset) / e.ElemSize
			emit(entry, elem, lastElem-elem+1)
			off = entryEnd
		}
	}
	return out
}

// nextEntryStart returns the offset of the first entry starting after off,
// or limit when none is below limit.
func (t *Table) nextEntryStart(off, limit int) int {
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].Offset > off })
	if i == len(t.entries) || t.entries[i].Offset >= limit {
		return limit
	}
	return t.entries[i].Offset
}

// MergeSpans sorts spans by (entry, first element) and merges overlapping
// or adjacent runs within the same entry.
func MergeSpans(spans []Span) []Span {
	out := make([]Span, len(spans))
	copy(out, spans)
	return MergeInPlace(out)
}

// IntersectSpans returns the parts of spans that overlap s, merged.
func IntersectSpans(spans []Span, s Span) []Span {
	var out []Span
	for _, sp := range spans {
		if sp.Entry != s.Entry {
			continue
		}
		lo := sp.First
		if s.First > lo {
			lo = s.First
		}
		hi := sp.First + sp.Count
		if end := s.First + s.Count; end < hi {
			hi = end
		}
		if lo < hi {
			out = append(out, Span{Entry: s.Entry, First: lo, Count: hi - lo})
		}
	}
	return MergeSpans(out)
}

// SubtractSpan removes the element range of s from spans, splitting spans
// that straddle it. The result is merged and sorted.
func SubtractSpan(spans []Span, s Span) []Span {
	var out []Span
	for _, sp := range spans {
		if sp.Entry != s.Entry {
			out = append(out, sp)
			continue
		}
		spEnd := sp.First + sp.Count
		sEnd := s.First + s.Count
		if sEnd <= sp.First || s.First >= spEnd {
			out = append(out, sp) // no overlap
			continue
		}
		if sp.First < s.First {
			out = append(out, Span{Entry: sp.Entry, First: sp.First, Count: s.First - sp.First})
		}
		if sEnd < spEnd {
			out = append(out, Span{Entry: sp.Entry, First: sEnd, Count: spEnd - sEnd})
		}
	}
	return MergeSpans(out)
}

// SpanBytes returns the local storage size of a span.
func (t *Table) SpanBytes(s Span) int {
	return t.entries[s.Entry].ElemSize * s.Count
}

// SpanOffset returns the segment offset of the first byte of a span.
func (t *Table) SpanOffset(s Span) int {
	e := t.entries[s.Entry]
	return e.Offset + s.First*e.ElemSize
}

// SpanTag renders the CGT-RMR tag for a span: "(m,n)" with n negative for
// pointer entries. This is the t_tag product of Eq. 1.
func (t *Table) SpanTag(s Span) tag.Seq {
	e := t.entries[s.Entry]
	count := s.Count
	if e.Pointer {
		count = -count
	}
	return tag.Seq{{Size: e.ElemSize, Count: count}}
}

// Translator returns a convert.Translator-compatible mapping from addresses
// of the remote table's platform into this (local) table's address space,
// by way of the shared entry indexes.
func (t *Table) Translator(remote *Table) AddrTranslator {
	return AddrTranslator{local: t, remote: remote}
}

// AddrTranslator maps remote GThV addresses to local ones through the
// architecture-independent entry indexes.
type AddrTranslator struct {
	local, remote *Table
}

// Translate implements convert.Translator.
func (a AddrTranslator) Translate(remoteAddr uint64) (uint64, bool) {
	entry, elem, ok := a.remote.MapAddr(remoteAddr)
	if !ok || entry >= a.local.Len() {
		return 0, false
	}
	le := a.local.Entry(entry)
	if elem >= le.Count {
		return 0, false
	}
	return le.Addr + uint64(elem*le.ElemSize), true
}

// Format renders the table in the three-column layout of Table 1.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s\n", "Address", "Size", "Number")
	for _, r := range t.rows {
		if r.Size == 0 && r.Number == 0 {
			fmt.Fprintf(&b, "0x%08x %6d %8d\n", r.Addr, r.Pad, 0)
			continue
		}
		fmt.Fprintf(&b, "0x%08x %6d %8d\n", r.Addr, r.Size, r.Number)
	}
	return b.String()
}

// Compatible reports whether two tables describe the same GThV shape: same
// entry count, and per entry the same logical type, count and pointer-ness.
// Sizes and addresses may differ (that is the point of heterogeneity).
func Compatible(a, b *Table) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("indextable: entry counts differ: %d vs %d", a.Len(), b.Len())
	}
	for i := 0; i < a.Len(); i++ {
		ea, eb := a.Entry(i), b.Entry(i)
		if ea.CType != eb.CType || ea.Count != eb.Count || ea.Pointer != eb.Pointer {
			return fmt.Errorf("indextable: entry %d (%s) incompatible: %v x%d vs %v x%d",
				i, ea.Name, ea.CType, ea.Count, eb.CType, eb.Count)
		}
	}
	return nil
}
