// Benchmarks that regenerate the paper's evaluation (Section 5).
//
// Each BenchmarkFigN corresponds to one figure; the reported custom metrics
// are the Eq. 1 components the figure plots, in seconds per run:
//
//	Fig. 6  — stacked breakdown (index/tag/pack/unpack/conv), matmul
//	Fig. 7  — the same components; percentages are printed by cmd/dsmbench
//	Fig. 8  — t_index vs matrix size (release side), matmul
//	Fig. 9  — t_tag vs matrix size (release side), matmul
//	Fig. 10 — t_conv (home side) vs matrix size, matmul
//	Fig. 11 — t_conv (home side) vs matrix size, LU decomposition
//
// Table 1 and Figure 3 are exact-output artifacts and are regenerated by
// tests (internal/indextable TestTable1IndexTable, internal/tag
// TestFigure3TagStrings) and printed by cmd/dsmbench.
//
// The Ablation benchmarks quantify the design choices DESIGN.md §5 calls
// out: tag coalescing, whole-array transfers, twin-diff granularity, and
// page size.
package hetdsm

import (
	"fmt"
	"testing"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dsd"
	"hetdsm/internal/stats"
	"hetdsm/internal/vmem"
)

// paperSizes are the matrix dimensions of the paper's sweep.
var paperSizes = []int{99, 138, 177, 216, 255}

// benchSeed keeps benchmark inputs deterministic.
const benchSeed = 20060814 // ICPP 2006

func benchExperiment(b *testing.B, workload string, pair apps.Pair, n int) *apps.Result {
	b.Helper()
	var agg [stats.NumPhases]time.Duration
	var home [stats.NumPhases]time.Duration
	var wall time.Duration
	var last *apps.Result
	for i := 0; i < b.N; i++ {
		res, err := apps.Run(apps.Config{
			Workload: workload,
			N:        n,
			Pair:     pair,
			Seed:     benchSeed,
		})
		if err != nil {
			b.Fatal(err)
		}
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			agg[p] += res.Agg[p]
			home[p] += res.Home[p]
		}
		wall += res.Wall
		last = res
	}
	div := float64(b.N)
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		b.ReportMetric(agg[p].Seconds()/div, p.String()+"-s/op")
	}
	b.ReportMetric(home[stats.Conv].Seconds()/div, "homeconv-s/op")
	b.ReportMetric(wall.Seconds()/div, "wall-s/op")
	return last
}

// BenchmarkFig6_Breakdown regenerates Figure 6: the data-sharing overhead
// breakdown for matrix multiplication across LL, SS and SL at every paper
// size. All five Eq. 1 components are reported per run.
func BenchmarkFig6_Breakdown(b *testing.B) {
	for _, pair := range apps.Pairs() {
		for _, n := range paperSizes {
			b.Run(fmt.Sprintf("%s/N%d", pair.Label, n), func(b *testing.B) {
				benchExperiment(b, "matmul", pair, n)
			})
		}
	}
}

// BenchmarkFig8_IndexDiscovery regenerates Figure 8: the time to map writes
// to application-level indexes (t_index), per release-side platform.
func BenchmarkFig8_IndexDiscovery(b *testing.B) {
	// The paper plots one series per unlocking platform; SL gives both a
	// Solaris home thread and Linux remote threads in a single run.
	pair, _ := apps.PairByLabel("SL")
	for _, n := range paperSizes {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			byPlat := map[string]time.Duration{}
			for i := 0; i < b.N; i++ {
				res, err := apps.Run(apps.Config{Workload: "matmul", N: n, Pair: pair, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				for name, bd := range res.ByPlatform {
					byPlat[name] += bd[stats.Index]
				}
			}
			for name, d := range byPlat {
				b.ReportMetric(d.Seconds()/float64(b.N), name+"-index-s/op")
			}
		})
	}
}

// BenchmarkFig9_TagGeneration regenerates Figure 9: the time to form
// application-level tags from indexes (t_tag), per release-side platform.
func BenchmarkFig9_TagGeneration(b *testing.B) {
	pair, _ := apps.PairByLabel("SL")
	for _, n := range paperSizes {
		b.Run(fmt.Sprintf("N%d", n), func(b *testing.B) {
			byPlat := map[string]time.Duration{}
			for i := 0; i < b.N; i++ {
				res, err := apps.Run(apps.Config{Workload: "matmul", N: n, Pair: pair, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				for name, bd := range res.ByPlatform {
					byPlat[name] += bd[stats.Tag]
				}
			}
			for name, d := range byPlat {
				b.ReportMetric(d.Seconds()/float64(b.N), name+"-tag-s/op")
			}
		})
	}
}

// BenchmarkFig10_ConversionMatMul regenerates Figure 10: data conversion
// time at the home node for matrix multiplication, per platform pair. The
// paper's signature result — SL grows fast, LL and SS stay near zero
// (memcpy) — shows up in the homeconv-s/op column.
func BenchmarkFig10_ConversionMatMul(b *testing.B) {
	for _, pair := range apps.Pairs() {
		for _, n := range paperSizes {
			b.Run(fmt.Sprintf("%s/N%d", pair.Label, n), func(b *testing.B) {
				benchExperiment(b, "matmul", pair, n)
			})
		}
	}
}

// BenchmarkFig11_ConversionLU regenerates Figure 11: data conversion time
// for LU decomposition, which moves more data per update than matmul and
// therefore pays a higher heterogeneity cost.
func BenchmarkFig11_ConversionLU(b *testing.B) {
	for _, pair := range apps.Pairs() {
		for _, n := range paperSizes {
			b.Run(fmt.Sprintf("%s/N%d", pair.Label, n), func(b *testing.B) {
				benchExperiment(b, "lu", pair, n)
			})
		}
	}
}

// benchAblation runs matmul/SL at a fixed size under modified options.
func benchAblation(b *testing.B, mod func(*dsd.Options)) {
	b.Helper()
	pair, _ := apps.PairByLabel("SL")
	opts := dsd.DefaultOptions()
	if mod != nil {
		mod(&opts)
	}
	var agg [stats.NumPhases]time.Duration
	for i := 0; i < b.N; i++ {
		res, err := apps.Run(apps.Config{Workload: "matmul", N: 138, Pair: pair, Opts: opts, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		for p := stats.Phase(0); p < stats.NumPhases; p++ {
			agg[p] += res.Agg[p]
		}
	}
	for p := stats.Phase(0); p < stats.NumPhases; p++ {
		b.ReportMetric(agg[p].Seconds()/float64(b.N), p.String()+"-s/op")
	}
}

// BenchmarkAblation_Baseline is the paper configuration at N=138/SL, the
// reference point for the ablations below.
func BenchmarkAblation_Baseline(b *testing.B) { benchAblation(b, nil) }

// BenchmarkAblation_NoCoalesce disables grouping consecutive elements into
// single tags (paper Section 5's optimization): t_tag and t_pack balloon.
func BenchmarkAblation_NoCoalesce(b *testing.B) {
	benchAblation(b, func(o *dsd.Options) { o.Coalesce = false })
}

// BenchmarkAblation_NoWholeArray disables the whole-array transfer rule
// (paper Section 4's array optimization).
func BenchmarkAblation_NoWholeArray(b *testing.B) {
	benchAblation(b, func(o *dsd.Options) { o.WholeArrayThreshold = 0 })
}

// BenchmarkAblation_InvalidateProtocol swaps the paper's update protocol
// for invalidate-with-demand-fetch. In matmul the workers never read each
// other's C blocks, so the redistribution data vanishes; they do read A and
// B, which now arrive via explicit fetches.
func BenchmarkAblation_InvalidateProtocol(b *testing.B) {
	benchAblation(b, func(o *dsd.Options) { o.Protocol = dsd.ProtocolInvalidate })
}

// BenchmarkAblation_PageSizeDiff quantifies the raw twin/diff cost at the
// two hardware page sizes (4 KiB Linux vs 8 KiB Solaris).
func BenchmarkAblation_PageSizeDiff(b *testing.B) {
	for _, page := range []int{4096, 8192} {
		b.Run(fmt.Sprintf("page%d", page), func(b *testing.B) {
			const size = 1 << 20
			seg := vmem.MustSegment(0, size, page)
			payload := make([]byte, 64)
			b.SetBytes(size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				seg.ProtectAll()
				// Vary the payload per iteration: rewriting identical
				// bytes would produce an empty (value-based) diff.
				for j := range payload {
					payload[j] = byte(i + j + 1)
				}
				for off := 0; off < size; off += 4096 {
					if err := seg.Write(off, payload); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				if got := seg.Diff(vmem.DiffByte); len(got) == 0 {
					b.Fatal("no diffs")
				}
			}
		})
	}
}

// BenchmarkExt_WordSize extends the paper's heterogeneity axis from byte
// order to word size: ILP32 vs LP64 pairs, where conversion also resizes
// longs and pointers. Not in the paper; reported like Figure 10.
func BenchmarkExt_WordSize(b *testing.B) {
	for _, pair := range apps.ExtPairs() {
		b.Run(pair.Label, func(b *testing.B) {
			benchExperiment(b, "matmul", pair, 138)
		})
	}
}

// BenchmarkExt_Jacobi measures the extension workload (barrier-heavy
// stencil) across the paper's pairs.
func BenchmarkExt_Jacobi(b *testing.B) {
	for _, pair := range apps.Pairs() {
		b.Run(pair.Label, func(b *testing.B) {
			var agg [stats.NumPhases]time.Duration
			for i := 0; i < b.N; i++ {
				res, err := apps.Run(apps.Config{
					Workload: "jacobi", N: 99, Iters: 10, Pair: pair, Seed: benchSeed,
				})
				if err != nil {
					b.Fatal(err)
				}
				for p := stats.Phase(0); p < stats.NumPhases; p++ {
					agg[p] += res.Agg[p]
				}
			}
			for p := stats.Phase(0); p < stats.NumPhases; p++ {
				b.ReportMetric(agg[p].Seconds()/float64(b.N), p.String()+"-s/op")
			}
		})
	}
}
