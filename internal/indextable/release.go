package indextable

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"

	"hetdsm/internal/vmem"
)

// ReleaseSpans is the release-side t_index stage in one pass. It walks the
// segment's dirty pages with an entry cursor, finds the first differing
// byte eight bytes at a time, and from there compares whole elements at
// the entry's stride, so a run of changed elements becomes one span without
// ever materializing the byte ranges in between. The spans are appended to
// dst[:0] (the caller owns and reuses the buffer) and are exactly
//
//	t.Widen(t.MapRanges(seg.Diff(vmem.DiffByte)), threshold)
//
// (MapRangesNoCoalesce when coalesce is false) — the three-pass pipeline
// this replaces, kept as its test oracle. Elements are compared by bytes,
// not values, so a same-value rewrite is no change and a NaN rewritten with
// itself is none either. Each dirty page's changed-element runs and bytes
// feed its heat counters (vmem.Segment.NoteDiff).
func (t *Table) ReleaseSpans(dst []Span, seg *vmem.Segment, coalesce bool, threshold float64) []Span {
	dst = dst[:0]
	dirty, cur, twin := seg.Window()
	ps := seg.PageSize()
	k := 0 // first entry that does not end before the current page
	for _, p := range dirty {
		lo, hi := p*ps, (p+1)*ps
		for k < len(t.entries) && t.entries[k].Offset+t.entries[k].Bytes() <= lo {
			k++
		}
		runs, nbytes := 0, 0
		prevEntry, prevEnd := -1, 0 // the last run found on this page
		for i := k; i < len(t.entries) && t.entries[i].Offset < hi; i++ {
			e := &t.entries[i]
			end := min(hi, e.Offset+e.Bytes())
			for x := max(lo, e.Offset); ; {
				if x = nextDiff(cur, twin, x, end); x == end {
					break
				}
				// Element first holds a changed byte on this page; extend
				// the run over every following element that lies wholly on
				// the page and differs too.
				first := (x - e.Offset) / e.ElemSize
				last := (runEnd(cur, twin, e.Offset+(first+1)*e.ElemSize, end, e.ElemSize) - e.Offset) / e.ElemSize
				if prevEntry != i || prevEnd != first {
					runs++
				}
				prevEntry, prevEnd = i, last
				x = e.Offset + last*e.ElemSize
				nbytes += min(x, hi) - max(e.Offset+first*e.ElemSize, lo)
				if coalesce {
					dst = addRun(dst, i, first, last)
				} else {
					dst = t.addSingles(dst, seg, i, first, last)
				}
				if x >= end {
					break
				}
			}
		}
		seg.NoteDiff(p, runs, nbytes)
	}
	if threshold > 0 {
		dst = t.widen(dst, threshold)
	}
	return dst
}

// nextDiff returns the first offset in [x, end) at which cur and twin
// differ, or end. Clean stretches go 64 bytes per (vectorized) compare,
// then eight bytes at a time to the differing word.
func nextDiff(cur, twin []byte, x, end int) int {
	for ; x+64 <= end && bytes.Equal(cur[x:x+64], twin[x:x+64]); x += 64 {
	}
	for ; x+8 <= end; x += 8 {
		if d := binary.LittleEndian.Uint64(cur[x:x+8]) ^ binary.LittleEndian.Uint64(twin[x:x+8]); d != 0 {
			return x + bits.TrailingZeros64(d)/8
		}
	}
	for ; x < end; x++ {
		if cur[x] != twin[x] {
			return x
		}
	}
	return end
}

// runEnd returns the end of the run of whole size-byte elements from off,
// up to end, that each differ from their twin; 4-byte elements are tested
// two per 8-byte compare.
func runEnd(cur, twin []byte, off, end, size int) int {
	if size == 4 {
		for ; off+8 <= end; off += 8 {
			d := binary.LittleEndian.Uint64(cur[off:off+8]) ^ binary.LittleEndian.Uint64(twin[off:off+8])
			if uint32(d) == 0 {
				return off
			}
			if d>>32 == 0 {
				return off + 4
			}
		}
	}
	for ; off+size <= end && elemDiffers(cur, twin, off, size); off += size {
	}
	return off
}

// elemDiffers compares the size bytes at off in cur and twin.
func elemDiffers(cur, twin []byte, off, size int) bool {
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(cur[off:off+4]) != binary.LittleEndian.Uint32(twin[off:off+4])
	case 8:
		return binary.LittleEndian.Uint64(cur[off:off+8]) != binary.LittleEndian.Uint64(twin[off:off+8])
	default:
		return !bytes.Equal(cur[off:off+size], twin[off:off+size])
	}
}

// addRun appends elements [first, last) of entry to coalesced spans. A run
// that continues or overlaps the previous span extends it: the overlap is
// an element straddling a page boundary, found again on the second page.
func addRun(dst []Span, entry, first, last int) []Span {
	if n := len(dst); n > 0 {
		if p := &dst[n-1]; p.Entry == entry && first <= p.First+p.Count {
			p.Count = max(p.Count, last-p.First)
			return dst
		}
	}
	return append(dst, Span{Entry: entry, First: first, Count: last - first})
}

// addSingles appends elements [first, last) of entry as single-element
// spans, the uncoalesced form: like MapRangesNoCoalesce, an element is
// listed once per changed-byte run that touches it. A page-straddling
// element already listed from the previous page is not listed again.
func (t *Table) addSingles(dst []Span, seg *vmem.Segment, entry, first, last int) []Span {
	e := &t.entries[entry]
	if n := len(dst); n > 0 && dst[n-1] == (Span{Entry: entry, First: first, Count: 1}) {
		first++
	}
	for el := first; el < last; el++ {
		es := e.Offset + el*e.ElemSize
		for n := byteRuns(seg, es, es+e.ElemSize); n > 0; n-- {
			dst = append(dst, Span{Entry: entry, First: el, Count: 1})
		}
	}
	return dst
}

// byteRuns counts the maximal runs of changed bytes (bytes differing from
// their twin on a dirty page) that overlap [lo, hi).
func byteRuns(seg *vmem.Segment, lo, hi int) int {
	_, cur, twin := seg.Window()
	ps := seg.PageSize()
	n, prev := 0, false
	for i := lo; i < hi; i++ {
		c := seg.Twinned(i/ps) && cur[i] != twin[i]
		if c && (i == lo || !prev) {
			n++
		}
		prev = c
	}
	return n
}

// Widen applies the whole-array transfer rule: a span covering at least
// threshold of its entry's elements grows to the full entry, letting large
// arrays be transferred and converted "as a whole" (paper Section 4). When
// anything widens, the spans are re-sorted and merged in place, so spans is
// reused. A threshold of zero or less disables the rule.
func (t *Table) Widen(spans []Span, threshold float64) []Span {
	if threshold <= 0 {
		return spans
	}
	return t.widen(spans, threshold)
}

func (t *Table) widen(spans []Span, threshold float64) []Span {
	widened := false
	for i, s := range spans {
		e := &t.entries[s.Entry]
		if e.Count > 1 && float64(s.Count) >= threshold*float64(e.Count) && s.Count < e.Count {
			spans[i] = Span{Entry: s.Entry, First: 0, Count: e.Count}
			widened = true
		}
	}
	if widened {
		return MergeInPlace(spans)
	}
	return spans
}

// MergeInPlace is MergeSpans reusing its argument's storage.
func MergeInPlace(spans []Span) []Span {
	if len(spans) <= 1 {
		return spans
	}
	slices.SortFunc(spans, func(a, b Span) int {
		if a.Entry != b.Entry {
			return a.Entry - b.Entry
		}
		return a.First - b.First
	})
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.Entry == last.Entry && s.First <= last.First+last.Count {
			last.Count = max(last.Count, s.First+s.Count-last.First)
			continue
		}
		out = append(out, s)
	}
	return out
}

// InsertSpan adds s to spans, which must be sorted and merged (MergeSpans's
// form), keeping them so: s absorbs every span of its entry it overlaps or
// touches. The store path keeps its pending set with it, so a store costs a
// binary search, and appending past the last span (ascending stores) moves
// nothing.
func InsertSpan(spans []Span, s Span) []Span {
	lo := sort.Search(len(spans), func(i int) bool {
		sp := spans[i]
		return sp.Entry > s.Entry || sp.Entry == s.Entry && sp.First+sp.Count >= s.First
	})
	first, end := s.First, s.First+s.Count
	hi := lo
	for ; hi < len(spans) && spans[hi].Entry == s.Entry && spans[hi].First <= end; hi++ {
		first = min(first, spans[hi].First)
		end = max(end, spans[hi].First+spans[hi].Count)
	}
	merged := Span{Entry: s.Entry, First: first, Count: end - first}
	if lo == hi {
		return slices.Insert(spans, lo, merged)
	}
	spans[lo] = merged
	return slices.Delete(spans, lo+1, hi)
}

// AppendGaps appends to dst the parts of s that no span in covered covers,
// in ascending order; covered must be sorted and merged. It is
// SubtractSpan's inverse view, for applying an update around a pending
// set in one walk.
func AppendGaps(dst, covered []Span, s Span) []Span {
	i := sort.Search(len(covered), func(i int) bool {
		c := covered[i]
		return c.Entry > s.Entry || c.Entry == s.Entry && c.First+c.Count > s.First
	})
	at, end := s.First, s.First+s.Count
	for ; i < len(covered) && covered[i].Entry == s.Entry && covered[i].First < end; i++ {
		if c := covered[i]; c.First > at {
			dst = append(dst, Span{Entry: s.Entry, First: at, Count: c.First - at})
		}
		at = max(at, covered[i].First+covered[i].Count)
	}
	if at < end {
		dst = append(dst, Span{Entry: s.Entry, First: at, Count: end - at})
	}
	return dst
}
