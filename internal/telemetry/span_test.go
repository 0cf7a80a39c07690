package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanLogRing(t *testing.T) {
	l := NewSpanLog(3)
	base := time.Unix(0, 1_000_000)
	for i := 0; i < 7; i++ {
		l.Record("n", StagePack, 1, uint64(i+1), base.Add(time.Duration(i)*time.Millisecond), time.Millisecond, i)
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	if l.Total() != 7 {
		t.Errorf("Total = %d, want 7", l.Total())
	}
	if l.Dropped() != 4 {
		t.Errorf("Dropped = %d, want 4", l.Dropped())
	}
	spans := l.Spans()
	for i, s := range spans {
		if want := uint64(5 + i); s.Seq != want {
			t.Errorf("span %d seq = %d, want %d (oldest-first after wrap)", i, s.Seq, want)
		}
	}
	// A snapshot is sized to what the ring holds, not to its capacity: it
	// can outlive the log (dsmsim keeps one per run).
	part := NewSpanLog(1 << 16)
	part.Record("n", StagePack, 1, 1, base, time.Millisecond, 0)
	if got := cap(part.Spans()); got != 1 {
		t.Errorf("snapshot of 1 span has capacity %d, want 1", got)
	}
}

func TestSpanLogNil(t *testing.T) {
	var l *SpanLog
	l.Record("n", StageIndex, 0, 1, time.Now(), time.Millisecond, 0)
	if l.Len() != 0 || l.Total() != 0 || l.Dropped() != 0 || l.Spans() != nil {
		t.Error("nil SpanLog must read as empty")
	}
	var buf bytes.Buffer
	if err := l.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil SpanLog wrote %q", buf.String())
	}
}

func TestSpanDumpJSONFieldNames(t *testing.T) {
	l := NewSpanLog(4)
	l.Record("rank-2@linux-x86", StageShip, 2, 9, time.Unix(10, 0), 3*time.Millisecond, 512)
	var buf bytes.Buffer
	if err := l.DumpJSON(&buf); err != nil {
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
	sender := NewSpanLog(16)
	home := NewSpanLog(16)

	// Two releases by rank 1 (seq 3 and 4) and one by rank 2 (seq 3):
	// identical seq on different ranks must stay distinct releases.
	for _, seq := range []uint64{3, 4} {
		off := int(seq) * 100
		sender.Record("rank-1", StageIndex, 1, seq, at(off+0), time.Millisecond, 0)
		sender.Record("rank-1", StageTag, 1, seq, at(off+1), time.Millisecond, 0)
		sender.Record("rank-1", StagePack, 1, seq, at(off+2), time.Millisecond, 256)
		sender.Record("rank-1", StageShip, 1, seq, at(off+3), 5*time.Millisecond, 256)
		home.Record("home", StageUnpack, 1, seq, at(off+4), time.Millisecond, 256)
		home.Record("home", StageConv, 1, seq, at(off+5), time.Millisecond, 256)
		home.Record("home", StageApply, 1, seq, at(off+6), time.Millisecond, 256)
	}
	sender.Record("rank-2", StageShip, 2, 3, at(900), time.Millisecond, 0)
	// Spans without a release id are metadata, not releases.
	sender.Record("rank-1", StageShip, 1, 0, at(950), time.Millisecond, 0)

	rels := MergeTimeline(sender.Spans(), home.Spans())
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
