package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"hetdsm/internal/stats"
)

const (
	// measuredSegments splits the measured phase; every end-to-end metric
	// is computed per segment and reduced by summarize.
	measuredSegments = 10
	// tracedSegments splits the traced run, which alternates untraced and
	// traced segments on one cluster so that drift cancels.
	tracedSegments = 6
	// setupReps is how often a run sets up; setup_s is summarized over them.
	setupReps = 7
)

// sample is the process-wide state read at a segment boundary.
type sample struct {
	t            time.Time
	mallocs      uint64
	allocBytes   uint64
	frames, wire int64
}

func takeSample(m *wireMeter) sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return sample{t: time.Now(), mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, frames: m.frames.Load(), wire: m.bytes.Load()}
}

// phase is one closed-loop run of a fixed length split into equal segments.
type phase struct {
	inst   instance
	meter  *wireMeter
	start  time.Time
	segLen time.Duration
	nSeg   int
	// tracers, when set, are handed to ops that start in odd segments.
	tracers []*tracer

	lat        [][][]time.Duration // [worker][segment], by op start time
	begin, end []sample            // per segment, taken by worker 0 between ops
	done       []int               // ops completed per worker
	eq1        eq1                 // the program's Eq. 1 time accrued during the phase
}

// runPhase runs every worker's closed loop for d, continuing each worker's
// op numbering from first. rate is the expected ops/s per worker and only
// sizes the latency buffers. An op error aborts the phase: the cluster is
// abandoned as it is, and the caller is expected to exit.
func runPhase(inst instance, workers int, meter *wireMeter, first []int, d time.Duration, nSeg int, rate float64, tracers []*tracer) (*phase, error) {
	p := &phase{
		inst: inst, meter: meter, segLen: d / time.Duration(nSeg), nSeg: nSeg, tracers: tracers,
		lat: make([][][]time.Duration, workers), begin: make([]sample, nSeg), end: make([]sample, nSeg), done: make([]int, workers),
	}
	perSeg := int(rate*p.segLen.Seconds()*1.5) + 64
	for w := range p.lat {
		p.lat[w] = make([][]time.Duration, nSeg)
		for s := range p.lat[w] {
			p.lat[w][s] = make([]time.Duration, 0, perSeg)
		}
	}
	runtime.GC()
	eq0 := inst.eq1()
	p.start = time.Now()
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() { errc <- p.worker(w, first[w]) }()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			return nil, err
		}
	}
	p.eq1 = inst.eq1().sub(eq0)
	return p, nil
}

func (p *phase) worker(w, first int) error {
	cur := -1
	for j := first; ; j++ {
		p.inst.prep(w, j)
		t0 := time.Now()
		seg := int(t0.Sub(p.start) / p.segLen)
		if w == 0 && seg != cur {
			// Worker 0 reads the counters between two of its own ops, so
			// on a one-worker workload every count belongs to whole ops.
			s := takeSample(p.meter)
			if cur >= 0 {
				p.end[cur] = s
			}
			if seg < p.nSeg {
				p.begin[seg] = s
			}
			cur = seg
			t0 = time.Now()
		}
		if seg >= p.nSeg {
			return nil
		}
		var trs []*tracer
		if seg%2 == 1 {
			trs = p.tracers
		}
		if err := p.inst.op(w, j, trs); err != nil {
			return fmt.Errorf("worker %d op %d: %w", w, j, err)
		}
		p.lat[w][seg] = append(p.lat[w][seg], time.Since(t0))
		p.done[w]++
	}
}

// latencies merges the workers' op times of the chosen segments, sorted.
func (p *phase) latencies(keep func(seg int) bool) []time.Duration {
	var all []time.Duration
	for w := range p.lat {
		for s, l := range p.lat[w] {
			if keep(s) {
				all = append(all, l...)
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// percentile of a sorted, non-empty slice, in µs.
func percentile(sorted []time.Duration, q float64) float64 {
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i].Nanoseconds()) / 1e3
}

// segmentMetrics returns each end-to-end metric's value per segment,
// leaving out segments in which no op started or that never closed.
func (p *phase) segmentMetrics() map[string][]float64 {
	out := map[string][]float64{}
	for s := 0; s < p.nSeg; s++ {
		lat := p.latencies(func(seg int) bool { return seg == s })
		if len(lat) == 0 || p.end[s].t.IsZero() || p.begin[s].t.IsZero() {
			continue
		}
		b, e, ops := p.begin[s], p.end[s], float64(len(lat))
		add := func(name string, v float64) { out[name] = append(out[name], v) }
		add("op_p50_us", percentile(lat, 0.50))
		add("op_p99_us", percentile(lat, 0.99))
		add("ops_per_s", ops/e.t.Sub(b.t).Seconds())
		add("allocs_per_op", float64(e.mallocs-b.mallocs)/ops)
		add("alloc_bytes_per_op", float64(e.allocBytes-b.allocBytes)/ops)
		add("msgs_per_op", float64(e.frames-b.frames)/ops)
		add("wire_bytes_per_op", float64(e.wire-b.wire)/ops)
	}
	return out
}

// quartiles are Python's statistics.quantiles(v, n=4): the exclusive
// method, interpolating between order statistics. v needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// summarize reduces the values of a run's segments (or set-ups) to the
// reported one, and gives their quartile spread as a percentage of the
// median. Counts report the median. Times report the quartile on their
// better side: on a shared box interference only ever adds time, in bursts
// that cover some segments and not others, so the better quartile is what
// the op costs when the box leaves it alone, and repeats where the median
// does not. A change in the code moves every segment, the quartile with it.
func summarize(m metricDef, v []float64) (value, iqrPct float64) {
	if len(v) == 1 {
		return v[0], 0
	}
	q1, q2, q3 := quartiles(v)
	value = q2
	if m.timing {
		value = q1
		if m.better == "higher" {
			value = q3
		}
	}
	if q2 != 0 {
		iqrPct = 100 * (q3 - q1) / math.Abs(q2)
	}
	return value, iqrPct
}

// warmUp runs n untimed ops per worker and returns the ops/s per worker.
func warmUp(inst instance, workers, n int) (float64, error) {
	start := time.Now()
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			for j := 0; j < n; j++ {
				inst.prep(w, j)
				if err := inst.op(w, j, nil); err != nil {
					errc <- fmt.Errorf("warm-up worker %d op %d: %w", w, j, err)
					return
				}
			}
			errc <- nil
		}()
	}
	for w := 0; w < workers; w++ {
		if err := <-errc; err != nil {
			return 0, err
		}
	}
	return float64(n) / time.Since(start).Seconds(), nil
}

// built is a set-up workload, ready for a measured phase.
type built struct {
	inst  instance
	meter *wireMeter
	warm  int     // warm-up ops each worker has done
	rate  float64 // ops/s per worker seen in warm-up
	took  time.Duration
}

// setUp builds the workload from the seed and warms it up: home and
// threads, handshake, initial fill, and a fixed number of discarded ops.
func setUp(def *workloadDef, seed int64, sz sizes) (*built, error) {
	start := time.Now()
	b := &built{meter: &wireMeter{}, warm: max(1, def.warm/sz.warmDiv)}
	var err error
	if b.inst, err = def.build(seed, sz, b.meter); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	if b.rate, err = warmUp(b.inst, def.workers, b.warm); err != nil {
		return nil, err
	}
	b.took = time.Since(start)
	return b, nil
}

// doneWith adds the warm-up to a phase's op counts.
func (b *built) doneWith(workers int, p *phase) []int {
	done := make([]int, workers)
	for w := range done {
		done[w] = b.warm
		if p != nil {
			done[w] += p.done[w]
		}
	}
	return done
}

// runVerified runs a phase on the set-up cluster, then joins the threads
// and verifies the final state against the sequential model.
func (b *built) runVerified(def *workloadDef, d time.Duration, nSeg int, tracers []*tracer, res *workloadResult) (*phase, error) {
	p, err := runPhase(b.inst, def.workers, b.meter, b.doneWith(def.workers, nil), d, nSeg, b.rate, tracers)
	if err != nil {
		return nil, err
	}
	done := b.doneWith(def.workers, p)
	res.Attempted += sum(done)
	if err := b.inst.finish(done); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	return p, nil
}

// measure is the untraced run: it sets up setupReps times, keeps the last
// cluster, runs the measured phase on it and verifies the final state.
func measure(def *workloadDef, seed int64, sz sizes, d time.Duration, res *workloadResult) error {
	var b *built
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if b != nil {
			// A discarded set-up is verified like a run: it is the same code.
			if err := b.inst.finish(b.doneWith(def.workers, nil)); err != nil {
				return fmt.Errorf("set-up %d: %w", i, err)
			}
		}
		var err error
		if b, err = setUp(def, seed, sz); err != nil {
			return err
		}
		setups = append(setups, b.took.Seconds())
	}
	p, err := b.runVerified(def, d, measuredSegments, nil, res)
	if err != nil {
		return err
	}
	measured := sum(p.done)
	res.MeasuredOps = measured
	segs := p.segmentMetrics()
	if len(segs["op_p50_us"]) == 0 {
		return fmt.Errorf("no measured segment completed: %d ops in %v", measured, d)
	}
	for _, m := range endToEnd {
		var v metric
		switch m.name {
		case "setup_s":
			v = newMetric(m, setups)
		case "failed_share":
			v = newMetric(m, []float64{0})
		case "seq_s":
			l, ok := b.inst.(*luInstance)
			if !ok {
				continue
			}
			v = newMetric(m, []float64{l.seq.Seconds()})
		default:
			v = newMetric(m, segs[m.name])
		}
		v.Bound = m.boundFor(def, measured)
		res.EndToEnd[m.name] = v
	}
	return nil
}

// traceRun is the traced run: one set-up, a phase alternating untraced
// and traced segments, verification, then the layer replays.
func traceRun(def *workloadDef, seed int64, sz sizes, d time.Duration, traceDir string, res *workloadResult) error {
	b, err := setUp(def, seed, sz)
	if err != nil {
		return err
	}
	epoch := time.Now()
	tracers := make([]*tracer, def.ranks)
	for rank := range tracers {
		tracers[rank] = newTracer(rank, epoch)
	}
	p, err := b.runVerified(def, d, tracedSegments, tracers, res)
	if err != nil {
		return err
	}
	eq := p.eq1

	var count [numKinds]int64
	var total [numKinds]time.Duration
	var relEq1 time.Duration
	for _, t := range tracers {
		for k := range count {
			count[k] += t.count[k]
			total[k] += t.total[k]
		}
		relEq1 += t.relEq1
	}
	untraced := p.latencies(func(seg int) bool { return seg%2 == 0 })
	traced := p.latencies(func(seg int) bool { return seg%2 == 1 })
	if count[kindOp] == 0 || len(untraced) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced run too short: %d traced and %d untraced ops in %v", len(traced), len(untraced), d)
	}

	layer := map[string]float64{}
	// Spans: mean time per op spent inside each kind of dsd call.
	ops := float64(count[kindOp])
	var children time.Duration
	for k := kindAcquire; k < numKinds; k++ {
		layer[kindNames[k]+"_us"] = us(total[k]) / ops
		children += total[k]
	}
	layer["op.unattributed_pct"] = 100 * (1 - children.Seconds()/total[kindOp].Seconds())
	layer["trace_overhead_pct"] = 100 * (percentile(traced, 0.5)/percentile(untraced, 0.5) - 1)

	// The program's own Eq. 1 counters over the whole phase, both sides.
	phaseOps := float64(len(traced) + len(untraced))
	for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
		layer["eq1."+ph.String()+"_ms_per_op"] = (eq.threads[ph] + eq.home[ph]).Seconds() * 1e3 / phaseOps
	}
	// What the Eq. 1 terms leave unexplained of the client-observed
	// release time. The threads' share is exact (read around each call);
	// the home's unpack and conv time is apportioned by traced ops.
	release := total[kindRelease] + total[kindBarrier]
	homeRel := time.Duration(float64(eq.home[stats.Unpack]+eq.home[stats.Conv]) * float64(len(traced)) / phaseOps)
	layer["release.unexplained_pct"] = 100 * (release - relEq1 - homeRel).Seconds() / release.Seconds()

	replayed, err := replayLayers(b.inst.replay(), min(replayBudget, d/4))
	if err != nil {
		return err
	}
	for k, v := range replayed {
		layer[k] = v
	}
	for _, m := range perLayer {
		v, ok := layer[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not produced", m.name)
		}
		res.PerLayer[m.name] = layerMetric{Value: v, Unit: m.unit, Better: m.better}
	}
	if res.TraceFile, err = writeTrace(traceDir, def.name, tracers); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sum(v []int) int {
	n := 0
	for _, x := range v {
		n += x
	}
	return n
}
