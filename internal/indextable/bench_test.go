package indextable

import (
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/vmem"
)

// Index-table costs: mapping diffs to spans is the second half of t_index;
// building the table is a one-time start-up cost.

func BenchmarkBuildGThV(b *testing.B) {
	l := tag.MustLayout(gthv(), platform.LinuxX86)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(l, 0x40058000); err != nil {
			b.Fatal(err)
		}
	}
}

func benchMapRanges(b *testing.B, coalesce bool, nRanges int) {
	tb := MustBuild(tag.MustLayout(gthv(), platform.LinuxX86), 0x40058000)
	var ranges []vmem.Range
	// Scattered 64-byte dirty runs through the A array.
	for i := 0; i < nRanges; i++ {
		start := 4 + (i*733)%(4*56169-64)
		ranges = append(ranges, vmem.Range{Start: start, End: start + 64})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var spans []Span
		if coalesce {
			spans = tb.MapRanges(ranges)
		} else {
			spans = tb.MapRangesNoCoalesce(ranges)
		}
		if len(spans) == 0 {
			b.Fatal("no spans")
		}
	}
}

func BenchmarkMapRangesCoalesced100(b *testing.B)   { benchMapRanges(b, true, 100) }
func BenchmarkMapRangesCoalesced1000(b *testing.B)  { benchMapRanges(b, true, 1000) }
func BenchmarkMapRangesPerElement100(b *testing.B)  { benchMapRanges(b, false, 100) }
func BenchmarkMapRangesPerElement1000(b *testing.B) { benchMapRanges(b, false, 1000) }

func BenchmarkMapOffset(b *testing.B) {
	tb := MustBuild(tag.MustLayout(gthv(), platform.LinuxX86), 0x40058000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := tb.MapOffset(4 + (i*733)%(12*56169)); !ok {
			b.Fatal("unmapped")
		}
	}
}

func BenchmarkSpanTag(b *testing.B) {
	tb := MustBuild(tag.MustLayout(gthv(), platform.LinuxX86), 0x40058000)
	s := Span{Entry: 1, First: 100, Count: 5000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if str := tb.SpanTag(s).String(); len(str) == 0 {
			b.Fatal("empty tag")
		}
	}
}

func BenchmarkMergeSpans(b *testing.B) {
	var spans []Span
	for i := 0; i < 1000; i++ {
		spans = append(spans, Span{Entry: i % 4, First: (i * 37) % 50000, Count: 10})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := MergeSpans(spans); len(out) == 0 {
			b.Fatal("no spans")
		}
	}
}

// benchRelease times the fused release scan against the oracle pipeline it
// replaced, over bench/'s release shapes: int A[262144] (1 MiB) with every
// element's low byte bumped (dense) or every 256th element (sparse).
func benchRelease(b *testing.B, stride int, fused bool) {
	shape := tag.Struct{Name: "GThV_t", Fields: []tag.Field{{Name: "A", T: tag.IntArray(262144)}}}
	tb := MustBuild(tag.MustLayout(shape, platform.LinuxX86), 0x40058000)
	seg := vmem.MustSegment(0x40058000, tb.Size(), 4096)
	seg.ProtectAll()
	v, _ := seg.WriteView(0, tb.Size())
	for i := 0; i < len(v); i += 4 * stride {
		v[i]++
	}
	b.SetBytes(int64(seg.TwinBytes()))
	var buf []Span
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fused {
			buf = tb.ReleaseSpans(buf, seg, true, 0.5)
		} else {
			buf = widenSpans(tb, tb.MapRanges(seg.Diff(vmem.DiffByte)), 0.5)
		}
		if len(buf) == 0 {
			b.Fatal("no spans")
		}
	}
}

func BenchmarkReleaseSpansDense(b *testing.B)  { benchRelease(b, 1, true) }
func BenchmarkReleaseSpansSparse(b *testing.B) { benchRelease(b, 256, true) }
func BenchmarkOracleSpansDense(b *testing.B)   { benchRelease(b, 1, false) }
func BenchmarkOracleSpansSparse(b *testing.B)  { benchRelease(b, 256, false) }
