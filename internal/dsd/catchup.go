package dsd

import (
	"math"
	"slices"

	"hetdsm/internal/indextable"
)

// The stamped master (DESIGN.md §3.2). Every update-bearing request the
// home applies, and every import, takes the next stamp. Per index-table
// entry the home keeps sorted, disjoint runs of elements, each with the
// stamp and writer of its latest write, and per tracked rank the stamp its
// replica has seen. A grant or barrier release ships the runs above the
// receiver's seen that it did not write itself, so what a rank is owed
// never spans more elements than the GThV has, however long it idles.

// run is a range of one entry's elements last written by one request.
type run struct {
	first, count int
	stamp        uint64
	// writer is the rank whose release wrote the run, or -1 for an import
	// and for carried catch-up no rank wrote: every rank is owed those.
	writer int32
}

// floors are the two lowest seen stamps among the tracked ranks, and the
// rank holding the lowest.
type floors struct {
	low, next uint64
	lowRank   int32
}

// floorsLocked computes the floors. Caller holds h.mu.
func (h *Home) floorsLocked() floors {
	f := floors{low: math.MaxUint64, next: math.MaxUint64}
	for rank, seen := range h.seen {
		if seen < f.low {
			f = floors{low: seen, next: f.low, lowRank: rank}
		} else if seen < f.next {
			f.next = seen
		}
	}
	return f
}

// needs reports whether a tracked rank other than writer has seen below
// stamp; a run nobody needs is dropped, and one never needed not recorded.
func (f floors) needs(writer int32, stamp uint64) bool {
	if writer == f.lowRank {
		return f.next < stamp
	}
	return f.low < stamp
}

// recordLocked overwrites the runs under spans, sorted and merged as
// MergeInPlace leaves them, with the current stamp written by writer, in
// one pass per entry that also drops the runs f says nobody needs. Each
// entry's two run buffers swap roles every pass, so steady state allocates
// nothing. Nothing is recorded while no tracked rank but
// the writer exists. Caller holds h.mu.
func (h *Home) recordLocked(spans []indextable.Span, writer int32, f floors) {
	if !f.needs(writer, h.stamp) {
		return
	}
	for len(spans) > 0 {
		e, n := spans[0].Entry, 1
		for n < len(spans) && spans[n].Entry == e {
			n++
		}
		h.runs[e], h.spare[e] = overwrite(h.spare[e][:0], h.runs[e], spans[:n], run{stamp: h.stamp, writer: writer}, f), h.runs[e]
		spans = spans[n:]
	}
}

// overwrite appends to dst one entry's runs old with spans (sorted and
// disjoint) written over them as runs like nw; the surviving parts of old
// runs are kept while f says they are needed. old is trimmed in place.
func overwrite(dst, old []run, spans []indextable.Span, nw run, f floors) []run {
	keep := func(r run) {
		if f.needs(r.writer, r.stamp) {
			dst = appendRun(dst, r)
		}
	}
	i := 0
	for _, s := range spans {
		end := s.First + s.Count
		for ; i < len(old) && old[i].first+old[i].count <= s.First; i++ {
			keep(old[i])
		}
		if i < len(old) && old[i].first < s.First {
			head := old[i]
			head.count = s.First - head.first
			keep(head)
		}
		nw.first, nw.count = s.First, s.Count
		dst = appendRun(dst, nw)
		for ; i < len(old) && old[i].first+old[i].count <= end; i++ {
		}
		if i < len(old) && old[i].first < end {
			old[i].count -= end - old[i].first
			old[i].first = end
		}
	}
	for ; i < len(old); i++ {
		keep(old[i])
	}
	return dst
}

// appendRun appends r, coalescing it into the last run when the two touch
// and share a stamp and a writer.
func appendRun(runs []run, r run) []run {
	if n := len(runs); n > 0 {
		if l := &runs[n-1]; l.stamp == r.stamp && l.writer == r.writer && l.first+l.count == r.first {
			l.count += r.count
			return runs
		}
	}
	return append(runs, r)
}

// owedLocked appends to dst, sorted by entry and element, what rank's
// replica lacks: every entry whole when seed marks it blank, else each
// run above its seen stamp that it did not write. Caller holds h.mu.
func (h *Home) owedLocked(dst []indextable.Span, rank int32, seed bool) []indextable.Span {
	seen := h.seen[rank]
	for e, runs := range h.runs {
		if seed {
			dst = append(dst, indextable.Span{Entry: e, Count: h.table.Entry(e).Count})
			continue
		}
		for _, r := range runs {
			if r.stamp > seen && r.writer != rank {
				dst = append(dst, indextable.Span{Entry: e, First: r.first, Count: r.count})
			}
		}
	}
	return dst
}

// adoptLocked takes over a handoff image's catch-up: each Known rank is
// tracked as having seen the import, and the union of the Pending sets
// becomes runs of one new stamp. An element some Known rank is not owed is
// attributed to that rank as its writer (the last such rank), so it is not
// shipped back to it; every rank is owed the rest. A warm rank thus
// receives a superset of its exact catch-up, and the extra elements carry
// values its replica already holds. Caller holds h.mu, after the import.
func (h *Home) adoptLocked(known map[int32]bool, pending map[int32][]indextable.Span) {
	var ranks []int32
	for rank := range known {
		ranks = append(ranks, rank)
	}
	slices.Sort(ranks)
	var union []indextable.Span
	for _, rank := range ranks {
		h.seen[rank] = h.stamp
		union = append(union, pending[rank]...)
	}
	h.stamp++
	union = indextable.MergeInPlace(union)
	f := h.floorsLocked()
	h.recordLocked(union, -1, f)
	for _, rank := range ranks {
		owed, gaps := indextable.MergeSpans(pending[rank]), []indextable.Span(nil)
		for _, s := range union {
			gaps = indextable.AppendGaps(gaps, owed, s)
		}
		h.recordLocked(gaps, rank, f)
	}
}
