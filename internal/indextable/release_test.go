package indextable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/vmem"
)

// oracleSpans is the three-pass pipeline ReleaseSpans replaces: byte diff,
// range mapping, whole-array widening.
func oracleSpans(tb *Table, seg *vmem.Segment, coalesce bool, threshold float64) []Span {
	ranges := seg.Diff(vmem.DiffByte)
	var spans []Span
	if coalesce {
		spans = tb.MapRanges(ranges)
	} else {
		spans = tb.MapRangesNoCoalesce(ranges)
	}
	return widenSpans(tb, spans, threshold)
}

// widenSpans is the DSD's whole-array rule as it stood before the fused
// scan, kept verbatim as the oracle's third pass.
func widenSpans(t *Table, spans []Span, threshold float64) []Span {
	if threshold <= 0 {
		return spans
	}
	widened := false
	for i, s := range spans {
		e := t.Entry(s.Entry)
		if e.Count > 1 && float64(s.Count) >= threshold*float64(e.Count) && s.Count < e.Count {
			spans[i] = Span{Entry: s.Entry, First: 0, Count: e.Count}
			widened = true
		}
	}
	if widened {
		return MergeSpans(spans)
	}
	return spans
}

// checkAgainstOracle compares ReleaseSpans with the oracle for every
// pipeline setting the DSD exposes.
func checkAgainstOracle(t *testing.T, what string, tb *Table, seg *vmem.Segment) {
	t.Helper()
	var buf []Span
	for _, coalesce := range []bool{true, false} {
		for _, thr := range []float64{0, 0.5, 1} {
			want := oracleSpans(tb, seg, coalesce, thr)
			buf = tb.ReleaseSpans(buf, seg, coalesce, thr)
			if !slices.Equal(buf, want) {
				t.Fatalf("%s, coalesce=%v threshold=%v:\nfused  %v\noracle %v", what, coalesce, thr, buf, want)
			}
		}
	}
}

// releaseShape decodes fuzz bytes into a GThV struct: scalars of every
// width, pointer members, long arrays, and nested structs whose interior
// padding a write can hit. Doubles after an int put 8-byte elements at
// offsets ≡ 4 (mod 8) on ILP32, so they straddle page boundaries.
func releaseShape(data []byte) *tag.Struct {
	var fields []tag.Field
	for i := 0; i+1 < len(data) && len(fields) < 12; i += 2 {
		n := 1 + int(data[i+1])*8
		var ft tag.Type
		switch data[i] % 9 {
		case 0:
			ft = tag.Char()
		case 1:
			ft = tag.Int()
		case 2:
			ft = tag.LongLong()
		case 3:
			ft = tag.Double()
		case 4:
			ft = tag.Pointer{}
		case 5:
			ft = tag.IntArray(n)
		case 6:
			ft = tag.DoubleArray(n)
		case 7:
			ft = tag.Array{Elem: tag.Pointer{}, N: n%64 + 1}
		default:
			ft = tag.Array{N: n%16 + 1, Elem: tag.Struct{Name: "in", Fields: []tag.Field{
				{Name: "c", T: tag.Char()},
				{Name: "d", T: tag.Double()},
				{Name: "s", T: tag.Scalar{T: platform.CShort}},
			}}}
		}
		fields = append(fields, tag.Field{Name: fmt.Sprintf("f%d", len(fields)), T: ft})
	}
	if len(fields) == 0 {
		return nil
	}
	return &tag.Struct{Name: "GThV_t", Fields: fields}
}

// mutate runs one detection window of random stores over seg: raw byte
// writes (padding included), counter-like element bumps that change only a
// low byte, same-value rewrites, remote updates patched into the twins, and
// writes hugging a page boundary on one side or both.
func mutate(r *rand.Rand, tb *Table, seg *vmem.Segment, ops int) {
	size := tb.Size()
	for i := 0; i < ops; i++ {
		switch r.Intn(6) {
		case 5: // bytes left of, right of, or across a page boundary
			pages := (size + seg.PageSize() - 1) / seg.PageSize()
			if pages < 2 {
				continue
			}
			b := seg.PageSize() * (1 + r.Intn(pages-1))
			lo, hi := b-1-r.Intn(8), b+1+r.Intn(8)
			switch r.Intn(3) {
			case 0:
				hi = b
			case 1:
				lo = b
			}
			buf := make([]byte, min(hi, size)-lo)
			r.Read(buf)
			seg.Write(lo, buf)
		case 0: // raw bytes anywhere, padding included
			off := r.Intn(size)
			b := make([]byte, 1+r.Intn(min(64, size-off)))
			r.Read(b)
			seg.Write(off, b)
		case 1: // a run of elements, each bumped in one byte
			e := tb.Entry(r.Intn(tb.Len()))
			first := r.Intn(e.Count)
			n := 1 + r.Intn(e.Count-first)
			v, _ := seg.WriteView(e.Offset+first*e.ElemSize, n*e.ElemSize)
			for k := 0; k < n; k += 1 + r.Intn(3) {
				v[k*e.ElemSize+r.Intn(e.ElemSize)]++
			}
		case 2: // same-value rewrite: faults, changes nothing
			off := r.Intn(size)
			n := 1 + r.Intn(min(256, size-off))
			cur, _ := seg.View(off, n)
			seg.Write(off, slices.Clone(cur))
		case 3: // a remote update, invisible to the diff
			off := r.Intn(size)
			b := make([]byte, 1+r.Intn(min(512, size-off)))
			r.Read(b)
			seg.ApplyRemote(off, b)
		default: // a whole entry rewritten (widening material)
			e := tb.Entry(r.Intn(tb.Len()))
			v, _ := seg.WriteView(e.Offset, e.Bytes())
			for k := range v {
				v[k] ^= byte(r.Intn(2))
			}
		}
	}
}

// repack lays tb's entries out again with gaps of 0-3 bytes between them
// and no alignment at all. Every real platform aligns scalars naturally, so
// no element of a built table crosses a page; a packed table puts 8-byte
// elements across page boundaries, where the scan meets them twice.
func repack(tb *Table, r *rand.Rand) *Table {
	out := &Table{platform: tb.platform, base: tb.base}
	off := r.Intn(4)
	for _, e := range tb.entries {
		e.Offset, e.Addr = off, tb.base+uint64(off)
		out.entries = append(out.entries, e)
		off += e.Bytes() + r.Intn(4)
	}
	out.size = off
	return out
}

// releaseCase builds a table and a segment for shape on plat with the given
// page size (the table repacked when packed), fills it, and checks several
// windows against the oracle. The twin arena outlives each window, so the
// later windows also prove that stale twin bytes on clean pages are never
// read.
func releaseCase(t *testing.T, shape *tag.Struct, plat *platform.Platform, pageSize int, packed bool, seed int64) {
	t.Helper()
	l, err := tag.NewLayout(*shape, plat)
	if err != nil {
		return
	}
	tb, err := Build(l, 0x40000000)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	if packed {
		tb = repack(tb, r)
	}
	seg, err := vmem.NewSegment(0x40000000, tb.Size(), pageSize)
	if err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, tb.Size())
	r.Read(fill)
	seg.Write(0, fill)
	for w := 0; w < 3; w++ {
		seg.ProtectAll()
		mutate(r, tb, seg, 1+r.Intn(12))
		checkAgainstOracle(t, fmt.Sprintf("%s page %d packed %v seed %d window %d", plat, pageSize, packed, seed, w), tb, seg)
	}
}

// TestReleaseSpansMatchesOracle is the table half of the differential test:
// hand-picked layouts that pin the edge cases, then random windows over
// random layouts on every platform, natural and packed, at 4 KiB and 8 KiB
// pages and at a page size small enough that every layout spans many pages.
func TestReleaseSpansMatchesOracle(t *testing.T) {
	straddle := &tag.Struct{Name: "GThV_t", Fields: []tag.Field{
		{Name: "i", T: tag.Int()},
		{Name: "d", T: tag.DoubleArray(2048)}, // packed: 16 KiB of doubles at odd offsets
	}}
	cases := []struct {
		name  string
		shape *tag.Struct
	}{
		{"paper-figure-4", &tag.Struct{Name: "GThV_t", Fields: []tag.Field{
			{Name: "GThP", T: tag.Pointer{}},
			{Name: "A", T: tag.IntArray(3000)},
			{Name: "B", T: tag.IntArray(3000)},
			{Name: "n", T: tag.Int()},
		}}},
		{"straddling-doubles", straddle},
		{"two-element-entries", &tag.Struct{Name: "GThV_t", Fields: []tag.Field{
			{Name: "p", T: tag.IntArray(2)},
			{Name: "c", T: tag.Char()},
			{Name: "q", T: tag.DoubleArray(2)},
			{Name: "big", T: tag.IntArray(2000)},
		}}},
		{"padded-structs", releaseShape([]byte{8, 200, 0, 0, 8, 50, 3, 0})},
		{"pointers", releaseShape([]byte{7, 255, 4, 0, 7, 3, 1, 0})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, p := range platform.All() {
				for _, ps := range []int{4096, 8192, 256} {
					for seed := int64(0); seed < 8; seed++ {
						releaseCase(t, c.shape, p, ps, seed%2 == 1, seed)
					}
				}
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 150; i++ {
			data := make([]byte, 2+2*r.Intn(8))
			r.Read(data)
			shape := releaseShape(data)
			for _, p := range platform.All() {
				releaseCase(t, shape, p, []int{4096, 8192, 128}[i%3], i%2 == 1, int64(i))
			}
		}
	})
}

// TestReleaseSpansCounterPageIsOneRun pins the heat bug the fused scan
// fixes: a page of counters whose every element changes only its low byte
// used to be diffed into one byte run per element, which the false-sharing
// heuristic reads as unrelated objects fighting over the page.
func TestReleaseSpansCounterPageIsOneRun(t *testing.T) {
	shape := tag.Struct{Name: "GThV_t", Fields: []tag.Field{{Name: "A", T: tag.IntArray(2048)}}}
	tb := MustBuild(tag.MustLayout(shape, platform.LinuxX86), 0x40000000)
	seg := vmem.MustSegment(0x40000000, tb.Size(), 4096)
	var buf []Span
	for w := 0; w < 4; w++ {
		seg.ProtectAll()
		v, _ := seg.WriteView(0, tb.Size())
		for i := 0; i < len(v); i += 4 {
			v[i]++
		}
		buf = tb.ReleaseSpans(buf, seg, true, 0.5)
		if len(buf) != 1 || buf[0] != (Span{Entry: 0, First: 0, Count: 2048}) {
			t.Fatalf("window %d: spans %v, want the whole array", w, buf)
		}
	}
	for _, p := range seg.Heat().Pages {
		if p.DiffRuns != 4 || p.DiffBytes != 4*4096 {
			t.Errorf("page %d: %d runs / %d bytes over 4 windows, want 4 / %d", p.Page, p.DiffRuns, p.DiffBytes, 4*4096)
		}
		if p.FalseSharingSuspect {
			t.Errorf("dense counter page %d flagged as a false-sharing suspect: %+v", p.Page, p)
		}
	}
}

func TestInsertSpanKeepsSetMerged(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var set, all []Span
		for i := 0; i < 40; i++ {
			s := Span{Entry: r.Intn(3), First: r.Intn(60), Count: 1 + r.Intn(6)}
			set = InsertSpan(set, s)
			all = append(all, s)
			if want := MergeSpans(all); !slices.Equal(set, want) {
				t.Fatalf("after inserting %v: %v, want %v", all, set, want)
			}
		}
	}
}

func TestAppendGapsIsSubtraction(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 500; trial++ {
		var covered []Span
		for i := 0; i < r.Intn(8); i++ {
			covered = InsertSpan(covered, Span{Entry: r.Intn(2), First: r.Intn(40), Count: 1 + r.Intn(5)})
		}
		s := Span{Entry: r.Intn(2), First: r.Intn(40), Count: 1 + r.Intn(20)}
		want := []Span{s}
		for _, c := range covered {
			want = SubtractSpan(want, c)
		}
		if got := AppendGaps(nil, covered, s); !slices.Equal(got, want) {
			t.Fatalf("gaps of %v around %v = %v, want %v", s, covered, got, want)
		}
	}
}

// FuzzReleaseSpans differentially fuzzes the fused scan against the oracle
// pipeline over random GThV layouts (natural or packed), platforms, page
// sizes and store windows. CI runs it for 20 s; the seeds are the table
// test's shapes.
func FuzzReleaseSpans(f *testing.F) {
	f.Add([]byte{4, 0, 5, 255, 5, 255, 1, 0}, int64(0), uint8(0), uint8(0)) // Figure 4
	f.Add([]byte{1, 0, 6, 255}, int64(1), uint8(0), uint8(6))               // packed: straddling doubles
	f.Add([]byte{8, 200, 0, 0, 8, 50, 3, 0}, int64(2), uint8(1), uint8(1))  // padded structs
	f.Add([]byte{7, 255, 4, 0, 7, 3, 1, 0}, int64(3), uint8(2), uint8(0))   // pointers
	f.Add([]byte{5, 0, 0, 0, 6, 0, 5, 250}, int64(4), uint8(3), uint8(7))   // packed two-element entries
	f.Fuzz(func(t *testing.T, data []byte, seed int64, plat, page uint8) {
		shape := releaseShape(data)
		if shape == nil {
			return
		}
		plats := platform.All()
		releaseCase(t, shape, plats[int(plat)%len(plats)], []int{4096, 8192, 256, 64}[page%4], page&4 != 0, seed)
	})
}
