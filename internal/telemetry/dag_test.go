package telemetry

import (
	"testing"
	"time"

	"hetdsm/internal/flight"
)

// mkSpan builds one traced span the way the pipeline does: the span id is
// derived from (trace, node, stage, rank) and the parent is supplied by
// the caller.
func mkSpan(trace uint64, node, stage string, rank int32, seq uint64, parent uint64, start, dur int64) Span {
	return Span{
		Rank: rank, Seq: seq, Node: node, Stage: stage,
		Start: start, Dur: dur,
		TraceID: trace, SpanID: SpanID(trace, node, stage, rank), Parent: parent,
	}
}

// chainFor lays down the canonical sender→home→wal chain of one release
// for tests: index → tag → pack → ship on the sender, unpack → conv →
// apply on the home, wal-fsync on the log — each stage parented to its
// predecessor exactly as the production code stamps them.
func chainFor(trace uint64, rank int32, seq uint64, sender, home, walNode string, base int64) []Span {
	idx := SpanID(trace, sender, StageIndex, rank)
	tg := SpanID(trace, sender, StageTag, rank)
	pk := SpanID(trace, sender, StagePack, rank)
	sh := SpanID(trace, sender, StageShip, rank)
	un := SpanID(trace, home, StageUnpack, rank)
	cv := SpanID(trace, home, StageConv, rank)
	ap := SpanID(trace, home, StageApply, rank)
	return []Span{
		mkSpan(trace, sender, StageIndex, rank, seq, 0, base, 10),
		mkSpan(trace, sender, StageTag, rank, seq, idx, base+10, 5),
		mkSpan(trace, sender, StagePack, rank, seq, tg, base+15, 20),
		// Ship ends before the WAL tail: async durability outlives the reply.
		mkSpan(trace, sender, StageShip, rank, seq, pk, base+35, 100),
		mkSpan(trace, home, StageUnpack, rank, seq, sh, base+60, 8),
		mkSpan(trace, home, StageConv, rank, seq, un, base+68, 12),
		mkSpan(trace, home, StageApply, rank, seq, cv, base+80, 30),
		mkSpan(trace, walNode, StageWAL, rank, 0, ap, base+90, 120),
	}
}

// TestMergeTimelineStitchesTrace verifies the core DAG build: spans from
// three different logs (sender, home, wal) with one trace id become one
// release whose critical path walks the causal chain across all nodes.
func TestMergeTimelineStitchesTrace(t *testing.T) {
	const trace = 0xabcdef0123456789
	all := chainFor(trace, 2, 7, "rank-2", "shard1", "wal1", 1000)
	// Deliver the spans the way a scrape would: split per source.
	rels := MergeTimeline(all[:4], all[4:7], all[7:])
	if len(rels) != 1 {
		t.Fatalf("got %d releases, want 1", len(rels))
	}
	rel := rels[0]
	if rel.TraceID != trace || rel.Rank != 2 || rel.Seq != 7 {
		t.Fatalf("release identity = (%x, %d, %d), want (%x, 2, 7)", rel.TraceID, rel.Rank, rel.Seq, uint64(trace))
	}
	nodes := rel.Nodes()
	if len(nodes) != 3 || nodes[0] != "rank-2" || nodes[1] != "shard1" || nodes[2] != "wal1" {
		t.Fatalf("nodes = %v, want [rank-2 shard1 wal1]", nodes)
	}
	cp := rel.CriticalPath()
	want := []string{StageIndex, StageTag, StagePack, StageShip, StageUnpack, StageConv, StageApply, StageWAL}
	if len(cp) != len(want) {
		t.Fatalf("critical path has %d stages (%v), want %d", len(cp), stages(cp), len(want))
	}
	for i, s := range cp {
		if s.Stage != want[i] {
			t.Fatalf("critical path stage %d = %s, want %s (full: %v)", i, s.Stage, want[i], stages(cp))
		}
	}
	if got := rel.Latency(); got != 210 {
		t.Fatalf("latency = %d, want 210 (index start to wal end)", got)
	}
	// Children follows the forward edges: ship's only child is unpack.
	ship, _ := rel.Stage(StageShip)
	kids := rel.Children(ship.SpanID)
	if len(kids) != 1 || kids[0].Stage != StageUnpack {
		t.Fatalf("children of ship = %v, want [unpack]", stages(kids))
	}
}

// TestMergeTimelineMissingStages drops the tag span (a release below the
// tag-cache threshold) and the whole home side (scrape raced the home):
// the path must still resolve through the remaining parents instead of
// breaking or inventing stages.
func TestMergeTimelineMissingStages(t *testing.T) {
	const trace = 0x1111
	idx := SpanID(trace, "rank-0", StageIndex, 0)
	// No tag stage: ship parents straight to index, as the sender does for
	// tag-cache hits.
	spans := []Span{
		mkSpan(trace, "rank-0", StageIndex, 0, 3, 0, 100, 10),
		mkSpan(trace, "rank-0", StageShip, 0, 3, idx, 110, 50),
	}
	rels := MergeTimeline(spans)
	if len(rels) != 1 {
		t.Fatalf("got %d releases, want 1", len(rels))
	}
	cp := rels[0].CriticalPath()
	if len(cp) != 2 || cp[0].Stage != StageIndex || cp[1].Stage != StageShip {
		t.Fatalf("critical path = %v, want [index ship]", stages(cp))
	}
	// A dangling parent (home recorded, sender ring already wrapped) stops
	// the walk gracefully at the orphan.
	orphan := mkSpan(trace, "home", StageUnpack, 0, 3, SpanID(trace, "rank-0", StageShip, 0), 200, 5)
	rels = MergeTimeline([]Span{orphan})
	cp = rels[0].CriticalPath()
	if len(cp) != 1 || cp[0].Stage != StageUnpack {
		t.Fatalf("orphan critical path = %v, want [unpack]", stages(cp))
	}
}

// TestMergeTimelineOutOfOrder shuffles arrival order: merged spans must
// come back sorted by start time regardless of which log delivered them
// first.
func TestMergeTimelineOutOfOrder(t *testing.T) {
	const trace = 0x2222
	chain := chainFor(trace, 1, 9, "rank-1", "home", "wal", 500)
	// Deliver in reverse.
	rev := make([]Span, len(chain))
	for i, s := range chain {
		rev[len(chain)-1-i] = s
	}
	rels := MergeTimeline(rev)
	if len(rels) != 1 {
		t.Fatalf("got %d releases, want 1", len(rels))
	}
	for i := 1; i < len(rels[0].Spans); i++ {
		if rels[0].Spans[i].Start < rels[0].Spans[i-1].Start {
			t.Fatalf("spans not start-ordered: %v", stages(rels[0].Spans))
		}
	}
}

// TestMergeTimelineDuplicateRankSeqAcrossEpochs pins the reason TraceID
// grouping exists: two shard incarnations reusing (rank, seq) must remain
// two distinct releases, adjacent in the sorted output.
func TestMergeTimelineDuplicateRankSeqAcrossEpochs(t *testing.T) {
	a := chainFor(0xaaaa, 0, 4, "rank-0", "shard0", "wal0", 100)
	b := chainFor(0xbbbb, 0, 4, "rank-0", "shard0-epoch2", "wal0", 9000)
	rels := MergeTimeline(append(a, b...))
	if len(rels) != 2 {
		t.Fatalf("got %d releases, want 2 distinct for the reused (rank, seq)", len(rels))
	}
	if rels[0].Rank != rels[1].Rank || rels[0].Seq != rels[1].Seq {
		t.Fatalf("releases lost the shared wire identity: %+v / %+v", rels[0], rels[1])
	}
	if rels[0].TraceID == rels[1].TraceID {
		t.Fatal("releases merged despite distinct trace ids")
	}
	if rels[0].TraceID > rels[1].TraceID {
		t.Fatal("duplicate (rank, seq) releases not ordered by trace id")
	}
}

// TestMergeTimelineLegacySpans keeps the pre-trace behavior: spans with
// no trace id group by (rank, seq), have no DAG edges (nil critical
// path), and anonymous spans (no trace, no seq) are dropped.
func TestMergeTimelineLegacySpans(t *testing.T) {
	legacy := []Span{
		{Rank: 0, Seq: 1, Node: "rank-0", Stage: StagePack, Start: 10, Dur: 5},
		{Rank: 0, Seq: 1, Node: "home", Stage: StageApply, Start: 20, Dur: 5},
		{Rank: 0, Seq: 2, Node: "rank-0", Stage: StagePack, Start: 30, Dur: 5},
		{Node: "wal", Stage: StageWAL, Start: 40, Dur: 5}, // anonymous: dropped
	}
	rels := MergeTimeline(legacy)
	if len(rels) != 2 {
		t.Fatalf("got %d releases, want 2", len(rels))
	}
	if len(rels[0].Spans) != 2 || len(rels[1].Spans) != 1 {
		t.Fatalf("span grouping wrong: %d + %d spans", len(rels[0].Spans), len(rels[1].Spans))
	}
	if cp := rels[0].CriticalPath(); cp != nil {
		t.Fatalf("legacy release produced a critical path: %v", stages(cp))
	}
}

// TestSpanIDDeterministic pins the contract both ends of a wire hop rely
// on: the id is a pure function of (trace, node, stage, rank), nonzero
// for any real trace, and zero only for the zero trace.
func TestSpanIDDeterministic(t *testing.T) {
	a := SpanID(42, "home", StageApply, 3)
	b := SpanID(42, "home", StageApply, 3)
	if a != b || a == 0 {
		t.Fatalf("SpanID not deterministic/nonzero: %x vs %x", a, b)
	}
	if SpanID(42, "home", StageConv, 3) == a || SpanID(42, "home2", StageApply, 3) == a || SpanID(43, "home", StageApply, 3) == a {
		t.Fatal("SpanID collision across stage/node/trace variation")
	}
	if SpanID(0, "home", StageApply, 3) != 0 {
		t.Fatal("zero trace must yield zero span id")
	}
}

// TestNewTraceIDUniqueAndNonzero mints ids concurrently-adjacent releases
// would and requires no collisions in a modest sample.
func TestNewTraceIDUniqueAndNonzero(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := NewTraceID(int32(i % 7))
		if id == 0 {
			t.Fatal("zero trace id minted")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %x after %d mints", id, i)
		}
		seen[id] = true
	}
}

// TestRecordCtxStampsSpanID confirms the span rendering derives the span id
// itself, so recorders only thread the trace id and parent.
func TestRecordCtxStampsSpanID(t *testing.T) {
	l := flight.New(8)
	l.Span("home", StageApply, 1, 5, 0x77, 0x12, time.Unix(0, 100), 30*time.Nanosecond, 64)
	spans := Spans(l)
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if want := SpanID(0x77, "home", StageApply, 1); spans[0].SpanID != want {
		t.Fatalf("span id = %x, want %x", spans[0].SpanID, want)
	}
	if spans[0].Parent != 0x12 || spans[0].TraceID != 0x77 {
		t.Fatalf("trace context not stored: %+v", spans[0])
	}
}

func stages(spans []Span) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Stage
	}
	return out
}
