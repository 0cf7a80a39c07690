package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hetdsm/internal/flight"
)

// TestSpanLogRing renders the span log a wrapped ring retains,
// oldest-first, skipping the protocol moments that share the ring.
func TestSpanLogRing(t *testing.T) {
	l := flight.New(4)
	base := time.Unix(0, 1_000_000)
	for i := 0; i < 7; i++ {
		l.Span("n", StagePack, 1, uint64(i+1), 0, 0, base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, i)
	}
	l.Note("home", flight.KindJoin, 1, -1, 0, "")
	spans := Spans(l)
	if len(spans) != 3 {
		t.Fatalf("rendered %d spans, want 3", len(spans))
	}
	for i, s := range spans {
		if want := uint64(5 + i); s.Seq != want {
			t.Errorf("span %d seq = %d, want %d (oldest-first after wrap)", i, s.Seq, want)
		}
	}
	// A snapshot is sized to what the ring holds, not to its capacity: it
	// can outlive the ring (dsmsim keeps one per run).
	part := flight.New(1 << 12)
	part.Note("home", flight.KindHello, 1, -1, 0, "")
	part.Span("n", StagePack, 1, 1, 0, 0, base, time.Millisecond, 0)
	if got := cap(Spans(part)); got != 1 {
		t.Errorf("snapshot of 1 span has capacity %d, want 1", got)
	}
}

// TestSpanLogNil renders a nil ring as no spans and an empty stream.
func TestSpanLogNil(t *testing.T) {
	var l *flight.Ring
	l.Span("n", StageIndex, 0, 1, 0, 0, time.Now(), time.Millisecond, 0)
	if Spans(l) != nil {
		t.Error("a nil ring must render no spans")
	}
	var buf bytes.Buffer
	if err := WriteSpans(&buf, l); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil ring wrote %q", buf.String())
	}
}

func TestSpanDumpJSONFieldNames(t *testing.T) {
	l := flight.New(4)
	l.Span("rank-2@linux-x86", StageShip, 2, 9, 0, 0, time.Unix(10, 0), 3*time.Millisecond, 512)
	var buf bytes.Buffer
	if err := WriteSpans(&buf, l); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	for _, key := range []string{"rank", "seq", "node", "stage", "start_unix_ns", "dur_ns", "bytes"} {
		if _, ok := m[key]; !ok {
			t.Errorf("missing key %q: %s", key, line)
		}
	}
	if m["stage"] != "ship" || m["dur_ns"] != float64(3_000_000) {
		t.Errorf("bad values: %s", line)
	}
}

func TestMergeTimeline(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*1_000_000) }
	sender := flight.New(16)
	home := flight.New(16)

	// Two releases by rank 1 (seq 3 and 4) and one by rank 2 (seq 3):
	// identical seq on different ranks must stay distinct releases.
	for _, seq := range []uint64{3, 4} {
		off := int(seq) * 100
		sender.Span("rank-1", StageIndex, 1, seq, 0, 0, at(off+0), time.Millisecond, 0)
		sender.Span("rank-1", StageTag, 1, seq, 0, 0, at(off+1), time.Millisecond, 0)
		sender.Span("rank-1", StagePack, 1, seq, 0, 0, at(off+2), time.Millisecond, 256)
		sender.Span("rank-1", StageShip, 1, seq, 0, 0, at(off+3), 5*time.Millisecond, 256)
		home.Span("home", StageUnpack, 1, seq, 0, 0, at(off+4), time.Millisecond, 256)
		home.Span("home", StageConv, 1, seq, 0, 0, at(off+5), time.Millisecond, 256)
		home.Span("home", StageApply, 1, seq, 0, 0, at(off+6), time.Millisecond, 256)
	}
	sender.Span("rank-2", StageShip, 2, 3, 0, 0, at(900), time.Millisecond, 0)
	// Spans without a release id are metadata, not releases.
	sender.Span("rank-1", StageShip, 1, 0, 0, 0, at(950), time.Millisecond, 0)

	rels := MergeTimeline(Spans(sender), Spans(home))
	if len(rels) != 3 {
		t.Fatalf("got %d releases, want 3", len(rels))
	}
	// Ordered by rank then seq.
	wantIDs := []struct {
		rank int32
		seq  uint64
	}{{1, 3}, {1, 4}, {2, 3}}
	for i, w := range wantIDs {
		if rels[i].Rank != w.rank || rels[i].Seq != w.seq {
			t.Errorf("release %d = (%d,%d), want (%d,%d)", i, rels[i].Rank, rels[i].Seq, w.rank, w.seq)
		}
	}
	full := rels[0]
	if len(full.Spans) != 7 {
		t.Fatalf("release (1,3) has %d spans, want 7", len(full.Spans))
	}
	// All seven stages present, and start-ordered so the pipeline reads
	// left to right: sender stages then home stages.
	wantStages := []string{StageIndex, StageTag, StagePack, StageShip, StageUnpack, StageConv, StageApply}
	for i, s := range full.Spans {
		if s.Stage != wantStages[i] {
			t.Errorf("span %d stage = %s, want %s", i, s.Stage, wantStages[i])
		}
	}
	if sp, ok := full.Stage(StageConv); !ok || sp.Node != "home" {
		t.Errorf("Stage(conv) = %+v, %v", sp, ok)
	}
	if _, ok := full.Stage("nope"); ok {
		t.Error("Stage on a missing stage must report false")
	}
}
