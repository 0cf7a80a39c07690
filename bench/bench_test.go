package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// testSizes is every workload at about a hundredth of its full size.
var testSizes = sizes{arrayLen: 4096, stride: 256, accounts: 64, planLen: 512, luN: 16, warmDiv: 100}

var (
	smallRuns = map[string]workloadResult{}
	smallDir  string
)

// runSmall runs one workload, measured and traced, at test size. Tests
// share one run per workload.
func runSmall(t *testing.T, name string) workloadResult {
	t.Helper()
	res, ok := smallRuns[name]
	if !ok {
		if smallDir == "" {
			var err error
			if smallDir, err = os.MkdirTemp("", "bench-test"); err != nil {
				t.Fatal(err)
			}
		}
		res = runWorkload(workloadByName(name), 7, testSizes, 0.2, traceBoth, smallDir)
		smallRuns[name] = res
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %s", name, res.Failed, res.Attempted, res.Error)
	}
	return res
}

func TestMain(m *testing.M) {
	code := m.Run()
	if smallDir != "" {
		os.RemoveAll(smallDir)
	}
	os.Exit(code)
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, def := range workloads {
		res := runSmall(t, def.name)
		check := func(d metricDef, ok bool, value float64, unit string) {
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", def.name, d.name)
			case unit != d.unit || unit == "":
				t.Errorf("%s: %s has unit %q, want %q", def.name, d.name, unit, d.unit)
			case math.IsNaN(value) || math.IsInf(value, 0):
				t.Errorf("%s: %s = %v", def.name, d.name, value)
			}
		}
		for _, d := range endToEnd {
			m, ok := res.EndToEnd[d.name]
			if d.name == "seq_s" && def.name != "app.lu" {
				if ok {
					t.Errorf("%s: seq_s belongs to app.lu only", def.name)
				}
				continue
			}
			check(d, ok, m.Value, m.Unit)
		}
		for _, d := range perLayer {
			m, ok := res.PerLayer[d.name]
			check(d, ok, m.Value, m.Unit)
		}
		if v := res.EndToEnd["failed_share"].Value; v != 0 {
			t.Errorf("%s: failed_share = %v", def.name, v)
		}
	}
}

// The protocol's frame counts: lock request, grant and ack, unlock request
// and ack. A transfer takes two locks.
func TestFramesPerOp(t *testing.T) {
	for name, want := range map[string]float64{"sync.empty": 5, "release.sparse.het": 5, "contend.transfer": 10} {
		m := runSmall(t, name).EndToEnd["msgs_per_op"]
		if name == "contend.transfer" {
			// Worker 0 reads the counter between its own ops, which can be
			// well after a segment's nominal end when a segment is 40 ms.
			if math.Abs(m.Value-want) > 2 {
				t.Errorf("%s: msgs_per_op = %v, want about %v", name, m.Value, want)
			}
			continue
		}
		if m.Value != want || m.IQRPct != 0 {
			t.Errorf("%s: msgs_per_op = %v (iqr %v%%), want exactly %v", name, m.Value, m.IQRPct, want)
		}
		if m.Bound == nil || *m.Bound != 0 {
			t.Errorf("%s: msgs_per_op must be held to no change on a one-thread workload", name)
		}
	}
}

func TestSameSeedSamePlans(t *testing.T) {
	sparsePlan := func(seed int64) [][]int64 {
		inst, err := workloadByName("release.sparse.het").build(seed, testSizes, &wireMeter{})
		if err != nil {
			t.Fatal(err)
		}
		a := inst.(*arrayInstance)
		var plan [][]int64
		for j := 0; j < 300; j++ {
			a.prep(0, j)
			for k, i := range a.idx {
				plan = append(plan, []int64{int64(i), a.vals[k]})
			}
		}
		if err := a.finish([]int{0}); err != nil {
			t.Fatal(err)
		}
		return plan
	}
	if !reflect.DeepEqual(sparsePlan(3), sparsePlan(3)) {
		t.Error("store plan differs between two builds from one seed")
	}
	if reflect.DeepEqual(sparsePlan(3), sparsePlan(4)) {
		t.Error("store plan ignores the seed")
	}
	if !reflect.DeepEqual(planTransfers(3, 1, 64, 512), planTransfers(3, 1, 64, 512)) {
		t.Error("transfer plan differs between two builds from one seed")
	}
	if reflect.DeepEqual(planTransfers(3, 1, 64, 512), planTransfers(4, 1, 64, 512)) {
		t.Error("transfer plan ignores the seed")
	}
	if reflect.DeepEqual(planTransfers(3, 0, 64, 512), planTransfers(3, 1, 64, 512)) {
		t.Error("both ranks got the same transfer plan")
	}
}

// Every op's children lie inside it back to back without overlap, and the
// reported per-kind times plus the unattributed share add up to the op.
func TestSpansAddUpToTheOp(t *testing.T) {
	for _, name := range []string{"release.sparse.het", "contend.transfer", "app.lu"} {
		res := runSmall(t, name)
		data, err := os.ReadFile(res.TraceFile)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil {
			t.Fatal(err)
		}
		ops := map[uint64]span{}
		kids := map[uint64][]span{}
		for _, s := range spans {
			if s.Name == "op" {
				ops[s.ID] = s
			} else {
				kids[s.Parent] = append(kids[s.Parent], s)
			}
		}
		if len(ops) == 0 || len(spans) >= maxKeptSpans {
			t.Fatalf("%s: %d ops in %d spans; the test needs an untruncated trace", name, len(ops), len(spans))
		}
		var opTotal, kidTotal float64
		for id, op := range ops {
			end := op.Start
			for _, k := range kids[id] {
				if k.Op != id || k.Start < end || k.Start+k.Dur > op.Start+op.Dur {
					t.Fatalf("%s: span %+v overlaps a sibling or leaves its op %+v", name, k, op)
				}
				end = k.Start + k.Dur
				kidTotal += float64(k.Dur)
			}
			opTotal += float64(op.Dur)
		}
		var reported float64
		for k := kindAcquire; k < numKinds; k++ {
			reported += res.PerLayer[kindNames[k]+"_us"].Value
		}
		meanOp := opTotal / 1e3 / float64(len(ops))
		unattributed := meanOp * res.PerLayer["op.unattributed_pct"].Value / 100
		if got := reported + unattributed; math.Abs(got-meanOp) > 1e-6*meanOp {
			t.Errorf("%s: acquire+write+release+barrier+unattributed = %v us, op span = %v us", name, got, meanOp)
		}
		if want := kidTotal / 1e3 / float64(len(ops)); math.Abs(reported-want) > 1e-6*want {
			t.Errorf("%s: reported child time %v us per op, spans in the file say %v", name, reported, want)
		}
	}
}

// A final state that differs from the sequential model must fail the run,
// and a failed run counts every op as failed.
func TestVerificationFailsTheRun(t *testing.T) {
	inst, err := workloadByName("release.dense.het").build(5, testSizes, &wireMeter{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		inst.prep(0, j)
		if err := inst.op(0, j, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := inst.finish([]int{2}); err == nil {
		t.Error("home state after 3 ops passed verification against a model of 2")
	}

	broken := workloadDef{name: "broken", workers: 1, ranks: 1, warm: 1,
		build: func(int64, sizes, *wireMeter) (instance, error) { return nil, errors.New("no cluster") }}
	res := runWorkload(&broken, 1, testSizes, 0.01, traceOff, t.TempDir())
	if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
		t.Errorf("failed run reported correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for the same lists.
	for _, c := range []struct{ v, want []float64 }{
		{[]float64{5, 1, 4, 2, 3}, []float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, []float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := []float64{q1, q2, q3}; !reflect.DeepEqual(got, c.want) {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	bound := func(b float64) *float64 { return &b }
	mk := func(p50, iqr, setup, msgs float64) *report {
		return &report{Workloads: []workloadResult{{Name: "w", EndToEnd: map[string]metric{
			"op_p50_us":   {Value: p50, Better: "lower", IQRPct: iqr, Bound: bound(0.25)},
			"ops_per_s":   {Value: 1e6 / p50, Better: "higher", Bound: bound(0.25)},
			"msgs_per_op": {Value: msgs, Better: "lower", Bound: bound(0)},
			"setup_s":     {Value: setup, Better: "lower", Bound: bound(0.25)},
			"seq_s":       {Value: p50, Better: "lower"},
		}}}}
	}
	base := mk(100, 2, 0.05, 5)
	for _, c := range []struct {
		name string
		b    *report
		code int
		want string
	}{
		{"same", mk(100, 2, 0.05, 5), 0, "0 regressed, 0 unresolved"},
		{"faster", mk(50, 2, 0.05, 5), 0, "0 regressed, 0 unresolved"},
		{"slower within bound", mk(120, 2, 0.05, 5), 0, "0 regressed, 0 unresolved"},
		{"slower", mk(140, 2, 0.05, 5), 1, "2 regressed"},
		{"noisy", mk(100, 30, 0.05, 5), 0, "0 regressed, 1 unresolved"},
		{"one more frame", mk(100, 2, 0.05, 6), 1, "1 regressed"},
		{"set-up under the floor", mk(100, 2, 0.09, 5), 0, "0 regressed"},
		{"set-up over the floor", mk(100, 2, 0.2, 5), 1, "1 regressed"},
	} {
		var out bytes.Buffer
		if code := compareReports(base, c.b, &out); code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: exit %d, want %d and %q in:\n%s", c.name, code, c.code, c.want, out.String())
		}
	}
}

// The result line carries exactly the metrics BENCHMARK.json lists for the
// trace mode, and the report names the environment.
func TestCommandLine(t *testing.T) {
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
	}
	wantE2E := map[string]bool{}
	for _, m := range spec.EndToEnd {
		wantE2E[m.Name] = true
		ok := false
		for _, d := range endToEnd {
			ok = ok || d.contract && d.name == m.Name && d.unit == m.Unit && d.better == m.Better && d.bound == m.Bound
		}
		if !ok {
			t.Errorf("BENCHMARK.json end-to-end metric %+v does not match the program's table", m)
		}
	}
	wantLayer := map[string]bool{}
	for _, m := range spec.PerLayer {
		wantLayer[m.Name] = true
	}
	if len(wantLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(wantLayer), len(perLayer))
	}

	out := t.TempDir() + "/report.json"
	for mode, want := range map[string]map[string]bool{"0": wantE2E, "1": wantLayer} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "sync.empty", "--seed", "3", "--seconds", "0.06", "--trace", mode, "-trace-dir", t.TempDir(), "-out", out}
		if code := run(args, testSizes, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line struct {
			Correct   *bool
			Attempted *int
			Failed    *int
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&line); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
		if line.Correct == nil || !*line.Correct || line.Attempted == nil || *line.Attempted < 1 || line.Failed == nil || *line.Failed != 0 {
			t.Errorf("trace %s: result line %s", mode, lines[len(lines)-1])
		}
		for name := range want {
			if m, ok := line.Metrics[name]; !ok || m.Value == nil || m.Unit == "" {
				t.Errorf("trace %s: result line lacks %s", mode, name)
			}
		}
		if len(line.Metrics) != len(want) {
			t.Errorf("trace %s: result line has %d metrics, BENCHMARK.json lists %d", mode, len(line.Metrics), len(want))
		}
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NProc < 1 || rep.GOMAXPROCS != 1 || rep.Go == "" || rep.Commit == "" || rep.Seed != 3 || rep.Claim != nil {
		t.Errorf("report header %+v", rep)
	}
	if code := run([]string{"-workload", "nope"}, testSizes, &bytes.Buffer{}, &bytes.Buffer{}); code == 0 {
		t.Error("unknown workload accepted")
	}
}
