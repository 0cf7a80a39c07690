package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(a, b metric) float64 {
	if a.Value == b.Value {
		return 0
	}
	if a.Value == 0 {
		// From nothing to something: worse without limit if lower is
		// better, better otherwise.
		if a.Better == "lower" {
			return 1
		}
		return -1
	}
	d := (b.Value - a.Value) / a.Value
	if a.Better == "higher" {
		d = -d
	}
	return d
}

// compare prints, per workload and gated end-to-end metric, both medians,
// the change, the bound and both spreads. b regresses where it is worse
// than a by more than the bound; where either side's spread is wider than
// the bound the row is unresolved instead of unchanged. It returns 1 when
// anything regressed.
func compare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readReport(pathA)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	b, err := readReport(pathB)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	return compareReports(a, b, stdout)
}

func compareReports(a, b *report, w io.Writer) int {
	rowsB := map[string]*workloadResult{}
	for i := range b.Workloads {
		rowsB[b.Workloads[i].Name] = &b.Workloads[i]
	}
	fmt.Fprintf(w, "a: commit %s seed %d   b: commit %s seed %d\n", a.Commit, a.Seed, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-20s %-20s %14s %14s %9s %7s %7s %7s  %s\n",
		"workload", "metric", "a", "b", "worse by", "bound", "iqr a", "iqr b", "verdict")
	regressed, unresolved := 0, 0
	for i := range a.Workloads {
		ra := &a.Workloads[i]
		rb, ok := rowsB[ra.Name]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := ra.EndToEnd[d.name]
			mb, okB := rb.EndToEnd[d.name]
			if !okA || !okB || ma.Bound == nil {
				continue
			}
			bound := *ma.Bound
			worse := worsening(ma, mb)
			verdict := "ok"
			switch {
			case worse > bound && !(d.name == "setup_s" && mb.Value-ma.Value <= setupFloor):
				verdict = "REGRESSION"
				regressed++
			case ma.IQRPct > bound*100 || mb.IQRPct > bound*100:
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-20s %-20s %14.4f %14.4f %+8.2f%% %6.1f%% %6.2f%% %6.2f%%  %s\n",
				ra.Name, d.name, ma.Value, mb.Value, worse*100, bound*100, ma.IQRPct, mb.IQRPct, verdict)
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}
