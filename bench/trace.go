package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"hetdsm/internal/dsd"
)

// Span kinds: the op span and its children, one child kind per dsd call
// family the benchmark wraps.
const (
	kindOp      = iota
	kindAcquire // Thread.Lock
	kindWrite   // Var.Set*
	kindRelease // Thread.Unlock, Thread.Join
	kindBarrier // Thread.Barrier
	numKinds
)

var kindNames = [numKinds]string{"op", "dsd.acquire", "dsd.write", "dsd.release", "dsd.barrier"}

// span is one timed interval. Children of an op span carry its id as
// parent; all spans of one op share Op.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     uint64 `json:"op"`
	Rank   int    `json:"rank"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// maxKeptSpans bounds the spans one rank keeps for the trace file; the
// per-kind totals below cover every span regardless.
const maxKeptSpans = 1 << 15

// tracer records one rank's spans from the benchmark side: it is driven by
// the workload's op code around its calls into dsd. Spans are contiguous —
// each mark closes the interval opened by the previous mark, skip or begin
// — so whatever a workload does not mark (reads, compute) is the op's
// unattributed remainder. A nil *tracer is the untraced run: every method
// is a no-op.
type tracer struct {
	rank  int
	epoch time.Time
	th    *dsd.Thread

	seq   uint64 // spans opened so far; ids are rank<<48 | seq
	opID  uint64
	opBeg time.Time
	last  time.Time
	pre   time.Duration

	kept []span
	// count and total cover every span of the kind; relEq1 is the
	// thread-side Eq. 1 time that accrued inside release and barrier spans.
	count  [numKinds]int64
	total  [numKinds]time.Duration
	relEq1 time.Duration
}

func newTracer(rank int, epoch time.Time) *tracer {
	return &tracer{rank: rank, epoch: epoch, kept: make([]span, 0, maxKeptSpans)}
}

func (t *tracer) newID() uint64 {
	t.seq++
	return uint64(t.rank)<<48 | t.seq
}

// begin opens an op span on thread th.
func (t *tracer) begin(th *dsd.Thread) {
	if t == nil {
		return
	}
	t.th = th
	t.opID = t.newID()
	t.opBeg = time.Now()
	t.last = t.opBeg
}

// skip leaves the time since the previous boundary unattributed.
func (t *tracer) skip() {
	if t == nil {
		return
	}
	t.last = time.Now()
}

// preRelease notes the thread's Eq. 1 total just before a release-side
// call, so the following mark can tell how much of the span the program's
// own accounting explains.
func (t *tracer) preRelease() {
	if t == nil {
		return
	}
	t.pre = t.th.Stats().Total()
}

// mark closes a child span of the given kind at now.
func (t *tracer) mark(kind int) {
	if t == nil {
		return
	}
	now := time.Now()
	if kind == kindRelease || kind == kindBarrier {
		t.relEq1 += t.th.Stats().Total() - t.pre
	}
	t.record(kind, t.newID(), t.opID, t.last, now)
	t.last = now
}

// end closes the op span at the last boundary.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.record(kindOp, t.opID, 0, t.opBeg, t.last)
}

func (t *tracer) record(kind int, id, parent uint64, from, to time.Time) {
	d := to.Sub(from)
	t.count[kind]++
	t.total[kind] += d
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, span{
			ID: id, Parent: parent, Op: t.opID, Rank: t.rank, Name: kindNames[kind],
			Start: from.Sub(t.epoch).Nanoseconds(), Dur: d.Nanoseconds(),
		})
	}
}

// writeTrace writes the kept spans of all ranks as one JSON array.
func writeTrace(dir, workload string, tracers []*tracer) (string, error) {
	var all []span
	for _, t := range tracers {
		all = append(all, t.kept...)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace."+workload+".json")
	data, err := json.Marshal(all)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
