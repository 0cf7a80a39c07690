// Command dsmbench regenerates every table and figure of the paper's
// evaluation (Section 5) from this reproduction.
//
// Usage:
//
//	dsmbench -all                 # everything
//	dsmbench -fig 6               # one figure (3, 6, 7, 8, 9, 10, 11)
//	dsmbench -table 1             # the index-table artifact
//	dsmbench -fig 10 -sizes 99,138 -reps 3
//
// Figures 6–11 are measured live by running the paper's workloads (matrix
// multiplication and LU decomposition; 3 threads, two on the remote
// platform) across the three platform pairs LL, SS and SL. Table 1 and
// Figure 3 are exact artifacts and print byte-identically to the paper.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dsd"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
)

func main() {
	var (
		figFlag   = flag.Int("fig", 0, "figure to regenerate (3, 6, 7, 8, 9, 10, 11)")
		tableFlag = flag.Int("table", 0, "table to regenerate (1)")
		allFlag   = flag.Bool("all", false, "regenerate everything")
		extFlag   = flag.Bool("ext", false, "run the extension experiments (word-size pairs, jacobi)")
		ablFlag   = flag.Bool("ablation", false, "run the design-choice ablations (DESIGN.md §5)")
		sizesFlag = flag.String("sizes", "99,138,177,216,255", "comma-separated matrix sizes")
		repsFlag  = flag.Int("reps", 1, "repetitions per configuration (medians reported)")
		verify    = flag.Bool("verify", false, "verify every distributed result against a sequential run")
		shardFlag = flag.Bool("sharding", false, "run the 1-vs-N-shard benchmark and write the baseline file")
		shardOut  = flag.String("sharding-out", "BENCH_sharding.json", "output path for -sharding")
		shardChk  = flag.String("sharding-check", "", "re-run the sharding suite and fail on >10% Cshare regression vs this baseline file")
		traceFlag = flag.Bool("tracing", false, "measure tracing/flight-recorder overhead and write the budget file")
		traceOut  = flag.String("tracing-out", "BENCH_tracing.json", "output path for -tracing")
		traceChk  = flag.String("tracing-check", "", "re-measure tracing overhead and fail if the disabled path exceeds 2% vs this baseline file")
		dlFlag    = flag.Bool("deadline", false, "measure deadline-plane overhead (OpTimeout unset vs armed-but-idle) and write the budget file")
		dlOut     = flag.String("deadline-out", "BENCH_deadline.json", "output path for -deadline")
		dlChk     = flag.String("deadline-check", "", "re-measure deadline-plane overhead and fail if the armed-but-idle path exceeds 2% vs this baseline file")
	)
	flag.Parse()

	sizes, err := parseSizes(*sizesFlag)
	if err != nil {
		fatal(err)
	}
	h := &harness{sizes: sizes, reps: *repsFlag, verify: *verify}

	switch {
	case *allFlag:
		h.table1()
		h.fig3()
		h.fig6()
		h.fig7()
		h.fig8()
		h.fig9()
		h.fig10()
		h.fig11()
		h.ext()
		h.ablation()
	case *tableFlag == 1:
		h.table1()
	case *figFlag == 3:
		h.fig3()
	case *figFlag == 6:
		h.fig6()
	case *figFlag == 7:
		h.fig7()
	case *figFlag == 8:
		h.fig8()
	case *figFlag == 9:
		h.fig9()
	case *figFlag == 10:
		h.fig10()
	case *figFlag == 11:
		h.fig11()
	case *extFlag:
		h.ext()
	case *ablFlag:
		h.ablation()
	case *shardFlag:
		h.sharding(*shardOut)
	case *shardChk != "":
		h.shardingCheck(*shardChk)
	case *traceFlag:
		h.tracing(*traceOut)
	case *traceChk != "":
		h.tracingCheck(*traceChk)
	case *dlFlag:
		h.deadline(*dlOut)
	case *dlChk != "":
		h.deadlineCheck(*dlChk)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmbench:", err)
	os.Exit(1)
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	sort.Ints(out)
	return out, nil
}

type runKey struct {
	workload string
	pair     string
	n        int
}

type harness struct {
	sizes  []int
	reps   int
	verify bool
	cache  map[runKey]*apps.Result
}

// run executes (and memoizes) one configuration, taking the median total
// over reps repetitions.
func (h *harness) run(workload, pairLabel string, n int) *apps.Result {
	if h.cache == nil {
		h.cache = make(map[runKey]*apps.Result)
	}
	key := runKey{workload, pairLabel, n}
	if r, ok := h.cache[key]; ok {
		return r
	}
	pair, ok := apps.PairByLabel(pairLabel)
	if !ok {
		fatal(fmt.Errorf("unknown pair %q", pairLabel))
	}
	reps := h.reps
	if reps < 1 {
		reps = 1
	}
	results := make([]*apps.Result, 0, reps)
	for i := 0; i < reps; i++ {
		res, err := apps.Run(apps.Config{
			Workload: workload, N: n, Pair: pair,
			Verify: h.verify, Seed: 20060814,
		})
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
	}
	sort.Slice(results, func(i, j int) bool { return results[i].AggTotal() < results[j].AggTotal() })
	res := results[len(results)/2]
	h.cache[key] = res
	return res
}

func header(title string) {
	fmt.Println()
	fmt.Println(strings.Repeat("=", 72))
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", 72))
}

// table1 prints the index table of Figure 4's struct — the paper's Table 1.
func (h *harness) table1() {
	header("Table 1: index table generated from the Figure 4 structure\n(base 0x40058000, linux-x86)")
	const n = 237 * 237
	gthv := tag.Struct{Name: "GThV_t", Fields: []tag.Field{
		{Name: "GThP", T: tag.Pointer{}},
		{Name: "A", T: tag.IntArray(n)},
		{Name: "B", T: tag.IntArray(n)},
		{Name: "C", T: tag.IntArray(n)},
		{Name: "n", T: tag.Int()},
	}}
	tb, err := indextable.Build(tag.MustLayout(gthv, platform.LinuxX86), 0x40058000)
	if err != nil {
		fatal(err)
	}
	fmt.Print(tb.Format())
}

// fig3 prints the run-time tag strings of Figure 3.
func (h *harness) fig3() {
	header("Figure 3: tag calculation at run-time (linux-x86)")
	p := platform.LinuxX86
	ptr := tag.MustLayout(tag.Pointer{}, p)
	ci := tag.MustLayout(tag.Int(), p)
	mthv := tag.VarFrame([]*tag.Layout{ptr, ci, ci}, 8).String()
	mthp := tag.VarFrame([]*tag.Layout{ptr, ptr}, 0).String()
	fmt.Printf("char MThV_heter[60]=%q;\n", mthv)
	fmt.Printf("char MThP_heter[41]=%q;\n", mthp)
}

// fig6 prints the absolute data-sharing overhead breakdown for matmul.
func (h *harness) fig6() {
	header("Figure 6: data sharing overhead breakdown, matrix multiplication\n(milliseconds per run; stacked components of Eq. 1)")
	fmt.Printf("%8s %5s %10s %10s %10s %10s %10s %10s\n",
		"N", "pair", "index", "tag", "pack", "unpack", "conv", "Cshare")
	for _, n := range h.sizes {
		for _, pair := range apps.Pairs() {
			res := h.run("matmul", pair.Label, n)
			fmt.Printf("%8d %5s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
				n, pair.Label,
				ms(res.Agg[stats.Index]), ms(res.Agg[stats.Tag]),
				ms(res.Agg[stats.Pack]), ms(res.Agg[stats.Unpack]),
				ms(res.Agg[stats.Conv]), ms(res.AggTotal()))
		}
	}
}

// fig7 prints the same components as percentages of Cshare.
func (h *harness) fig7() {
	header("Figure 7: costs as a percentage of total data-sharing time,\nmatrix multiplication")
	fmt.Printf("%8s %5s %9s %9s %9s %9s %9s\n",
		"N", "pair", "index%", "tag%", "pack%", "unpack%", "conv%")
	for _, pair := range apps.Pairs() {
		for _, n := range h.sizes {
			res := h.run("matmul", pair.Label, n)
			total := res.AggTotal()
			pct := func(p stats.Phase) float64 {
				if total == 0 {
					return 0
				}
				return 100 * float64(res.Agg[p]) / float64(total)
			}
			fmt.Printf("%8d %5s %9.1f %9.1f %9.1f %9.1f %9.1f\n",
				n, pair.Label,
				pct(stats.Index), pct(stats.Tag), pct(stats.Pack),
				pct(stats.Unpack), pct(stats.Conv))
		}
	}
}

// seriesByPlatform prints one Eq. 1 phase per release-side platform from SL
// runs (Figures 8 and 9).
func (h *harness) seriesByPlatform(phase stats.Phase, what string) {
	fmt.Printf("%8s %14s %14s\n", "N", "Solaris (s)", "Linux (s)")
	for _, n := range h.sizes {
		res := h.run("matmul", "SL", n)
		sol := res.ByPlatform[platform.SolarisSPARC.Name][phase]
		lin := res.ByPlatform[platform.LinuxX86.Name][phase]
		fmt.Printf("%8d %14.6f %14.6f\n", n, sol.Seconds(), lin.Seconds())
	}
	_ = what
}

func (h *harness) fig8() {
	header("Figure 8: mapping writes to application-level indexes (t_index),\nmatrix multiplication, per release-side platform")
	h.seriesByPlatform(stats.Index, "index discovery")
}

func (h *harness) fig9() {
	header("Figure 9: forming application-level tags from indexes (t_tag),\nmatrix multiplication, per release-side platform")
	h.seriesByPlatform(stats.Tag, "tag generation")
}

// convFigure prints home-side conversion time per pair (Figures 10/11).
func (h *harness) convFigure(workload string) {
	fmt.Printf("%8s %16s %16s %16s\n", "N", "Solaris/Linux", "Solaris/Solaris", "Linux/Linux")
	for _, n := range h.sizes {
		sl := h.run(workload, "SL", n)
		ss := h.run(workload, "SS", n)
		ll := h.run(workload, "LL", n)
		fmt.Printf("%8d %16.6f %16.6f %16.6f\n",
			n,
			sl.Home[stats.Conv].Seconds(),
			ss.Home[stats.Conv].Seconds(),
			ll.Home[stats.Conv].Seconds())
	}
}

func (h *harness) fig10() {
	header("Figure 10: data conversion at the home node (t_conv),\nmatrix multiplication")
	h.convFigure("matmul")
}

func (h *harness) fig11() {
	header("Figure 11: data conversion at the home node (t_conv),\nLU decomposition")
	h.convFigure("lu")
}

// ext runs the beyond-the-paper experiments: word-size-heterogeneous pairs
// and the Jacobi stencil workload.
func (h *harness) ext() {
	header("Extension: word-size heterogeneity (ILP32 vs LP64),\nmatrix multiplication N=138, conversion at the home node")
	fmt.Printf("%8s %12s %12s\n", "pair", "t_conv (s)", "Cshare (s)")
	for _, pair := range apps.ExtPairs() {
		res := h.run("matmul", pair.Label, 138)
		fmt.Printf("%8s %12.6f %12.6f\n", pair.Label,
			res.Home[stats.Conv].Seconds(), res.AggTotal().Seconds())
	}

	header("Extension: Jacobi iteration (barrier-per-sweep stencil), N=99,\n10 sweeps, full Cshare per pair")
	fmt.Printf("%8s %10s %10s %10s %10s %10s %10s\n",
		"pair", "index", "tag", "pack", "unpack", "conv", "Cshare")
	for _, pair := range apps.Pairs() {
		res, err := apps.Run(apps.Config{
			Workload: "jacobi", N: 99, Iters: 10, Pair: pair,
			Verify: h.verify, Seed: 20060814,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%8s %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			pair.Label,
			ms(res.Agg[stats.Index]), ms(res.Agg[stats.Tag]),
			ms(res.Agg[stats.Pack]), ms(res.Agg[stats.Unpack]),
			ms(res.Agg[stats.Conv]), ms(res.AggTotal()))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ablation quantifies the DESIGN.md §5 design choices on matmul N=138 over
// the heterogeneous pair.
func (h *harness) ablation() {
	header("Ablations: design choices, matrix multiplication N=138, pair SL\n(milliseconds per run)")
	configs := []struct {
		name string
		mod  func(*dsd.Options)
	}{
		{"baseline (paper)", nil},
		{"no coalescing", func(o *dsd.Options) { o.Coalesce = false }},
		{"no whole-array", func(o *dsd.Options) { o.WholeArrayThreshold = 0 }},
		{"invalidate protocol", func(o *dsd.Options) { o.Protocol = dsd.ProtocolInvalidate }},
	}
	pair, _ := apps.PairByLabel("SL")
	fmt.Printf("%-22s %8s %8s %8s %8s %8s %10s %12s\n",
		"configuration", "index", "tag", "pack", "unpack", "conv", "Cshare", "bytes moved")
	for _, c := range configs {
		opts := dsd.DefaultOptions()
		if c.mod != nil {
			c.mod(&opts)
		}
		res, err := apps.Run(apps.Config{
			Workload: "matmul", N: 138, Pair: pair, Opts: opts,
			Verify: h.verify, Seed: 20060814,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%-22s %8.3f %8.3f %8.3f %8.3f %8.3f %10.3f %12d\n",
			c.name,
			ms(res.Agg[stats.Index]), ms(res.Agg[stats.Tag]),
			ms(res.Agg[stats.Pack]), ms(res.Agg[stats.Unpack]),
			ms(res.Agg[stats.Conv]), ms(res.AggTotal()), res.UpdateBytes)
	}
}
