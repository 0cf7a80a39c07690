// Command bench measures the DSD end to end and layer by layer; see
// README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// metricDef names a metric, its unit and direction. bound is the share of
// the baseline by which an end-to-end metric may worsen before it counts
// as a regression; negative means the metric is reported but not gated.
type metricDef struct {
	name, unit, better string
	bound              float64
	// contract marks the metrics BENCHMARK.json lists and the result line
	// carries; the others appear only in the printed table and -out file.
	contract bool
	// timing marks wall-clock metrics, which summarize reduces differently
	// from counts.
	timing bool
}

// endToEnd is what a user of the DSM sees, per workload.
var endToEnd = []metricDef{
	{name: "op_p50_us", unit: "us", better: "lower", bound: 0.25, contract: true, timing: true},
	{name: "op_p99_us", unit: "us", better: "lower", bound: 0.25, timing: true},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.25, contract: true, timing: true},
	{name: "allocs_per_op", unit: "count", better: "lower", bound: 0.02, contract: true},
	{name: "alloc_bytes_per_op", unit: "B", better: "lower", bound: 0.02, contract: true},
	{name: "msgs_per_op", unit: "count", better: "lower", bound: 0.02, contract: true},
	{name: "wire_bytes_per_op", unit: "B", better: "lower", bound: 0.02, contract: true},
	{name: "failed_share", unit: "share", better: "lower", bound: 0},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, contract: true, timing: true},
	{name: "seq_s", unit: "s", better: "lower", bound: -1},
}

// setupFloor is the absolute slack on setup_s: a set-up that got slower by
// less than this is not a regression whatever the share.
const setupFloor = 0.05

// boundFor is the metric's bound on one workload, nil when not gated
// there. Counts of frames and bytes repeat exactly with one thread, so
// they are held to no change at all; a segment's p99 needs ten ops beyond
// it, so a thousand ops per segment.
func (m metricDef) boundFor(def *workloadDef, measuredOps int) *float64 {
	b := m.bound
	switch m.name {
	case "msgs_per_op", "wire_bytes_per_op":
		if def.ranks == 1 {
			b = 0
		}
	case "op_p99_us":
		if measuredOps < 1000*measuredSegments {
			b = -1
		}
	}
	if b < 0 {
		return nil
	}
	return &b
}

// perLayer are the metrics of single layers, from the traced run. They
// have no bound: they say where an end-to-end change came from.
var perLayer = []metricDef{
	{name: "dsd.acquire_us", unit: "us", better: "lower"},
	{name: "dsd.write_us", unit: "us", better: "lower"},
	{name: "dsd.release_us", unit: "us", better: "lower"},
	{name: "dsd.barrier_us", unit: "us", better: "lower"},
	{name: "op.unattributed_pct", unit: "%", better: "lower"},
	{name: "vmem.write_ns_per_store", unit: "ns", better: "lower"},
	{name: "vmem.diff_MBps", unit: "MB/s", better: "higher"},
	{name: "vmem.diff_ranges", unit: "count", better: "lower"},
	{name: "indextable.map_ns_per_range", unit: "ns", better: "lower"},
	{name: "indextable.spans", unit: "count", better: "lower"},
	{name: "tag.format_ns_per_span", unit: "ns", better: "lower"},
	{name: "tag.bytes_per_span", unit: "B", better: "lower"},
	{name: "wire.encode_MBps", unit: "MB/s", better: "higher"},
	{name: "wire.decode_MBps", unit: "MB/s", better: "higher"},
	{name: "wire.allocs_per_update", unit: "count", better: "lower"},
	{name: "wire.overhead_bytes_per_update", unit: "B", better: "lower"},
	{name: "transport.rtt_us.inproc", unit: "us", better: "lower"},
	{name: "transport.rtt_us.tcp", unit: "us", better: "lower"},
	{name: "convert.MBps", unit: "MB/s", better: "higher"},
	{name: "vmem.apply_MBps", unit: "MB/s", better: "higher"},
	{name: "eq1.index_ms_per_op", unit: "ms", better: "lower"},
	{name: "eq1.tag_ms_per_op", unit: "ms", better: "lower"},
	{name: "eq1.pack_ms_per_op", unit: "ms", better: "lower"},
	{name: "eq1.unpack_ms_per_op", unit: "ms", better: "lower"},
	{name: "eq1.conv_ms_per_op", unit: "ms", better: "lower"},
	{name: "release.unexplained_pct", unit: "%", better: "lower"},
	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}

// metric is one reported number.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	// IQRPct is the quartile spread of the values summarized (segments,
	// or set-ups), in percent of their median.
	IQRPct float64 `json:"iqr_pct"`
	// Bound is absent where the metric is not gated on this workload.
	Bound *float64 `json:"bound,omitempty"`
}

// layerMetric is one per-layer number: a single reading, no spread, no bound.
type layerMetric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

func newMetric(m metricDef, values []float64) metric {
	v, iqr := summarize(m, values)
	return metric{Value: v, Unit: m.unit, Better: m.better, IQRPct: iqr}
}

// workloadResult is one workload's row of the report.
type workloadResult struct {
	Name        string                 `json:"name"`
	Why         string                 `json:"why"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Error       string                 `json:"error,omitempty"`
	MeasuredOps int                    `json:"measured_ops"`
	EndToEnd    map[string]metric      `json:"end_to_end,omitempty"`
	PerLayer    map[string]layerMetric `json:"per_layer,omitempty"`
	TraceFile   string                 `json:"trace_file,omitempty"`
}

// report is what -out writes and -compare reads.
type report struct {
	Schema string `json:"schema"`
	// Claim is what the commit says it gained; the commit that defines the
	// benchmark claims nothing.
	Claim      *string          `json:"claim"`
	Seed       int64            `json:"seed"`
	Seconds    float64          `json:"seconds"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Go         string           `json:"go"`
	Commit     string           `json:"commit"`
	Workloads  []workloadResult `json:"workloads"`
}

// Trace modes: which of the two runs a workload gets.
const (
	traceOff  = 0 // measured run only: end-to-end metrics
	traceOnly = 1 // traced run only: per-layer metrics
	traceBoth = 2
)

// runWorkload runs one workload in the given mode. A failed op or a failed
// verification voids the whole run: every op counts as failed.
func runWorkload(def *workloadDef, seed int64, sz sizes, seconds float64, mode int, traceDir string) workloadResult {
	res := workloadResult{Name: def.name, Why: def.why, EndToEnd: map[string]metric{}, PerLayer: map[string]layerMetric{}}
	d := time.Duration(seconds * float64(time.Second))
	var err error
	if mode != traceOnly {
		err = measure(def, seed, sz, d, &res)
	}
	if err == nil && mode != traceOff {
		if mode == traceBoth {
			d /= 2
		}
		err = traceRun(def, seed, sz, d, traceDir, &res)
	}
	res.Correct = err == nil
	if err != nil {
		res.Error = err.Error()
		res.Attempted = max(res.Attempted, 1)
		res.Failed = res.Attempted
		if m, ok := res.EndToEnd["failed_share"]; ok {
			m.Value = 1
			res.EndToEnd["failed_share"] = m
		}
	}
	return res
}

func printResult(w io.Writer, res *workloadResult) {
	status := "verified against the sequential model"
	if !res.Correct {
		status = "FAILED: " + res.Error
	}
	fmt.Fprintf(w, "\n== %s: %d ops attempted, %d failed, %s\n", res.Name, res.Attempted, res.Failed, status)
	for _, d := range endToEnd {
		m, ok := res.EndToEnd[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-32s %16.4f %-6s iqr %5.2f%%", d.name, m.Value, m.Unit, m.IQRPct)
		if m.Bound != nil {
			fmt.Fprintf(w, "  bound %g%%", *m.Bound*100)
		}
		fmt.Fprintln(w)
	}
	for _, d := range perLayer {
		if m, ok := res.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "  %-32s %16.4f %s\n", d.name, m.Value, m.Unit)
		}
	}
	if res.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", res.TraceFile)
	}
}

// resultLine is the one-line JSON summary printed last for each workload:
// the end-to-end metrics BENCHMARK.json lists, the per-layer ones, or both,
// according to the trace mode.
func resultLine(res *workloadResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range endToEnd {
		if m, ok := res.EndToEnd[d.name]; ok && d.contract {
			metrics[d.name] = value{m.Value, m.Unit}
		}
	}
	for name, m := range res.PerLayer {
		metrics[name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(line)
}

// commit is the revision the binary was built from, marked when the tree
// had uncommitted changes; "unknown" outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

type nameList []string

func (l *nameList) String() string     { return strings.Join(*l, ",") }
func (l *nameList) Set(s string) error { *l = append(*l, s); return nil }

func run(args []string, sz sizes, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names nameList
	fs.Var(&names, "workload", "workload to run; repeat for several (default: all)")
	seed := fs.Int64("seed", 1, "seed all generated inputs derive from")
	seconds := fs.Float64("seconds", 10, "length of each workload's measured phase")
	mode := fs.Int("trace", traceBoth, "0: end-to-end metrics only, 1: per-layer metrics from the traced run only, 2: both")
	out := fs.String("out", "", "write the full report to this JSON file")
	traceDir := fs.String("trace-dir", "bench/out", "directory the traced run writes its spans to")
	cmp := fs.Bool("compare", false, "compare two reports: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *seconds <= 0 || *mode < traceOff || *mode > traceBoth {
		fmt.Fprintln(stderr, "usage: bench [-workload NAME]... [-seed N] [-seconds S] [-trace 0|1|2] [-out FILE]")
		return 2
	}
	defs := make([]*workloadDef, 0, len(workloads))
	for _, n := range names {
		def := workloadByName(n)
		if def == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", n)
			return 2
		}
		defs = append(defs, def)
	}
	if len(defs) == 0 {
		for i := range workloads {
			defs = append(defs, &workloads[i])
		}
	}

	nproc := runtime.NumCPU()
	// One P: threads and home stubs hand frames to each other through the
	// scheduler instead of waking a second OS thread. On this class of box
	// that is both faster and the only setting whose medians repeat (see
	// README.md, "Why GOMAXPROCS is 1").
	runtime.GOMAXPROCS(1)
	rep := report{
		Schema: "hetdsm-bench/1", Seed: *seed, Seconds: *seconds,
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
	}
	fmt.Fprintf(stdout, "hetdsm bench: seed %d, %.3g s per workload, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		rep.Seed, rep.Seconds, rep.NProc, rep.GOMAXPROCS, rep.Go, rep.Commit)
	code := 0
	for _, def := range defs {
		res := runWorkload(def, *seed, sz, *seconds, *mode, *traceDir)
		rep.Workloads = append(rep.Workloads, res)
		printResult(stdout, &res)
		if !res.Correct {
			code = 1
		}
		fmt.Fprintln(stdout, resultLine(&res))
	}
	if *out != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "writing report: %v\n", err)
			return 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], fullSizes, os.Stdout, os.Stderr)) }
