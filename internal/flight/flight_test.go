package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRingWrap pins the black-box property: the ring keeps exactly the
// last capacity events, oldest first, and counts the total honestly. The
// fill level is not a multiple of the capacity, where a naive oldest-first
// reconstruction goes wrong.
func TestRingWrap(t *testing.T) {
	r := New(5)
	const total = 13 // 13 % 5 = 3: the ring seam sits mid-buffer
	for i := 0; i < total; i++ {
		r.Note("n", KindLockGrant, int32(i), int64(i), 0, "")
	}
	if r.Len() != 5 || r.Total() != total || r.Dropped() != total-5 {
		t.Fatalf("len=%d total=%d dropped=%d, want 5, %d, %d", r.Len(), r.Total(), r.Dropped(), total, total-5)
	}
	snap := r.Snapshot()
	if len(snap) != 5 || cap(snap) != 5 {
		t.Fatalf("snapshot len %d cap %d, want 5 and 5", len(snap), cap(snap))
	}
	for i, l := range r.Lines() {
		if want := uint64(total - 5 + i); l.Seq != want {
			t.Fatalf("line %d seq = %d, want %d", i, l.Seq, want)
		}
		if want := int32(total - 5 + i); l.Rank != want || snap[i].Rank != want {
			t.Fatalf("slot %d rank = %d, want %d (payload must travel with its seq)", i, l.Rank, want)
		}
	}
	// A snapshot is sized to what the ring holds, not to its capacity: it
	// can outlive the ring (dsmsim keeps one per run).
	part := New(1 << 12)
	part.Note("n", KindJoin, 0, -1, 0, "")
	if got := cap(part.Snapshot()); got != 1 {
		t.Errorf("snapshot of 1 event has capacity %d, want 1", got)
	}
}

// TestLinesSeqAndCounters checks moments render in recording order with
// their ring sequence number and a wall-clock stamp, and that spans take
// a sequence number without rendering as a line.
func TestLinesSeqAndCounters(t *testing.T) {
	r := New(8)
	r.Note("home", KindHello, 0, -1, 0, "linux-x86")
	r.Span("rank-0", "ship", 0, 1, 0xbeef, 0, time.Now(), time.Millisecond, 64)
	r.Note("home", KindJoin, 0, -1, 0, "")
	lines := r.Lines()
	if len(lines) != 2 || lines[0].Seq != 0 || lines[1].Seq != 2 {
		t.Fatalf("lines = %+v, want seqs 0 and 2", lines)
	}
	for i, l := range lines {
		if l.At.IsZero() {
			t.Errorf("line %d has zero time", i)
		}
	}
	if r.Total() != 3 || r.Dropped() != 0 || r.Len() != 3 {
		t.Errorf("counters: total=%d dropped=%d len=%d", r.Total(), r.Dropped(), r.Len())
	}
	if got := len(r.Moments()); got != 2 {
		t.Errorf("moments = %d, want 2", got)
	}
}

// TestFilterAfterWrap checks Filter sees only retained events, in order,
// once the ring has overwritten earlier matches.
func TestFilterAfterWrap(t *testing.T) {
	r := New(6)
	// Alternate two kinds for 20 events; the ring keeps the last 6 (ranks
	// 14..19), of which the even ones are grants.
	for i := 0; i < 20; i++ {
		kind := KindLockGrant
		if i%2 == 1 {
			kind = KindUnlock
		}
		r.Note("n", kind, int32(i), 0, 0, "")
	}
	got := r.Filter(KindLockGrant)
	want := []int32{14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("filter kept %d events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Rank != want[i] || e.Kind != KindLockGrant {
			t.Errorf("filter[%d] = %v rank %d, want lock-grant rank %d", i, e.Kind, e.Rank, want[i])
		}
	}
	if got := r.Filter(KindDetach); len(got) != 0 {
		t.Errorf("unexpected detach events: %v", got)
	}
}

// TestTripDeliversSnapshot wires the dump sink and trips: the callback
// must see the reason and the retained moments, without the spans.
func TestTripDeliversSnapshot(t *testing.T) {
	r := New(8)
	r.Note("shard0", KindFence, -1, 9, 5, "")
	r.Span("shard0", "apply", 0, 1, 0xbeef, 0, time.Now(), time.Millisecond, 64)
	var gotReason string
	var gotEvents []Event
	r.OnTrip(func(reason string, events []Event) {
		gotReason, gotEvents = reason, events
	})
	r.Trip("shard0 fenced")
	if gotReason != "shard0 fenced" {
		t.Fatalf("reason = %q", gotReason)
	}
	if len(gotEvents) != 1 || gotEvents[0].Kind != KindFence || gotEvents[0].A != 9 {
		t.Fatalf("events = %+v", gotEvents)
	}
}

// TestFormatReadable checks the dump text carries the fields a post-mortem
// reads: the reason, the kind name, the node, and the operands.
func TestFormatReadable(t *testing.T) {
	r := New(8)
	r.Note("shard1", KindRestart, 1, 3, 12, "")
	r.Note("shard1", KindEpochAdopt, 0, 3, 2, "")
	var sb strings.Builder
	if err := r.Dump(&sb, "crash-restart"); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"crash-restart", "2 events", "restart", "epoch-adopt", "node=shard1", "a=3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestLineString checks the dsmrun -trace rendering: every set field
// shows, and negative rank/mutex are suppressed.
func TestLineString(t *testing.T) {
	l := Line{Seq: 7, Node: "home@linux-x86", Kind: KindUnlock, Rank: 2, Mutex: 0, Bytes: 512, Detail: "x"}
	s := l.String()
	for _, sub := range []string{"home@linux-x86", "unlock", "rank=2", "idx=0", "bytes=512", "x"} {
		if !strings.Contains(s, sub) {
			t.Errorf("String %q missing %q", s, sub)
		}
	}
	l2 := Line{Node: "home", Kind: KindDetach, Rank: -1, Mutex: -1}
	if s2 := l2.String(); strings.Contains(s2, "rank=") || strings.Contains(s2, "idx=") {
		t.Errorf("suppressed fields leaked: %q", s2)
	}
}

// TestWriteLinesFieldNames pins the /trace JSONL schema: stable lowercase
// keys, kinds by name, one object per line in recording order, and a line
// written before the rings were folded still decodes.
func TestWriteLinesFieldNames(t *testing.T) {
	r := New(8)
	r.Note("home@linux-x86", KindLockGrant, 2, 5, 128, "grant")
	r.Note("rank-1@solaris-sparc", KindApply, 1, -1, 64, "")

	var buf bytes.Buffer
	if err := r.WriteLines(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	for _, key := range []string{"seq", "at", "node", "kind", "rank", "mutex", "bytes", "detail"} {
		if _, ok := first[key]; !ok {
			t.Errorf("line 0 missing key %q: %s", key, lines[0])
		}
	}
	if first["kind"] != "lock-grant" || first["seq"] != float64(0) {
		t.Errorf("kind/seq = %v/%v, want lock-grant/0", first["kind"], first["seq"])
	}
	// The second event has no detail; omitempty keeps the line lean.
	if strings.Contains(lines[1], "detail") {
		t.Errorf("empty detail should be omitted: %s", lines[1])
	}

	old := `{"seq":3,"at":"2026-01-02T15:04:05.123456789Z","node":"home@linux-x86","kind":"barrier-arrive","rank":1,"mutex":0,"bytes":256}`
	var l Line
	if err := json.Unmarshal([]byte(old), &l); err != nil {
		t.Fatalf("decoding an existing trace line: %v", err)
	}
	if l.Kind != KindBarrierArrive || l.Seq != 3 || l.Bytes != 256 || l.Node != "home@linux-x86" {
		t.Errorf("decoded line lost fields: %+v", l)
	}
	if err := json.Unmarshal([]byte(`{"kind":"no-such-kind"}`), &l); err == nil {
		t.Error("an unknown kind must not decode")
	}
}

// TestNilRecorderSafe makes every method a no-op on a nil ring — the
// disabled path every non-instrumented deployment runs.
func TestNilRecorderSafe(t *testing.T) {
	var r *Ring
	r.Note("n", KindLockGrant, 0, 0, 0, "")
	r.Span("n", "ship", 0, 1, 0, 0, time.Now(), time.Millisecond, 0)
	r.OnTrip(func(string, []Event) { t.Fatal("trip on nil ring") })
	r.Trip("x")
	if r.Len() != 0 || r.Total() != 0 || r.Dropped() != 0 || r.Snapshot() != nil || r.Lines() != nil || r.String() != "" {
		t.Fatal("nil ring not inert")
	}
	var buf bytes.Buffer
	if err := r.WriteLines(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil ring wrote %q (err %v)", buf.String(), err)
	}
}

// TestNoteZeroAlloc pins the hot-path promise for both the disabled and
// the installed ring: recording any kind of event — every moment and a
// span — is a struct store, never an allocation.
func TestNoteZeroAlloc(t *testing.T) {
	start := time.Now()
	record := func(r *Ring) func() {
		return func() {
			for k := KindHello; k < KindSpan; k++ {
				r.Note("n", k, 1, 2, 3, "detail")
			}
			r.Span("n", "ship", 1, 1, 0xbeef, 0x77, start, time.Microsecond, 64)
		}
	}
	if allocs := testing.AllocsPerRun(1000, record(nil)); allocs != 0 {
		t.Errorf("nil ring allocated %v, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, record(New(64))); allocs != 0 {
		t.Errorf("installed ring allocated %v, want 0", allocs)
	}
}

// TestConcurrentNotes records from several goroutines: nothing is lost
// from the total and the retained window stays contiguous.
func TestConcurrentNotes(t *testing.T) {
	r := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := fmt.Sprintf("rank-%d", g)
			for i := 0; i < 500; i++ {
				r.Note(node, KindApply, int32(g), -1, int64(i), "")
			}
		}(g)
	}
	wg.Wait()
	if r.Total() != 4000 {
		t.Errorf("total = %d, want 4000", r.Total())
	}
	lines := r.Lines()
	if len(lines) != 128 {
		t.Fatalf("retained = %d", len(lines))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].Seq != lines[i-1].Seq+1 {
			t.Fatalf("retained window not contiguous at %d: %d -> %d", i, lines[i-1].Seq, lines[i].Seq)
		}
	}
}

// TestDefaultCapacity checks New's fallback size.
func TestDefaultCapacity(t *testing.T) {
	r := New(0)
	for i := 0; i < DefaultCapacity+10; i++ {
		r.Note("x", KindApply, 0, -1, 0, "")
	}
	if r.Len() != DefaultCapacity {
		t.Errorf("default capacity = %d, want %d", r.Len(), DefaultCapacity)
	}
}

// TestKindNames keeps every kind printable and parseable by name.
func TestKindNames(t *testing.T) {
	for k := KindInvalid; k <= KindSpan; k++ {
		name := k.String()
		if name == "" || strings.HasPrefix(name, "flight-kind-") {
			t.Fatalf("kind %d has no name", k)
		}
		var back Kind
		if err := back.UnmarshalText([]byte(name)); err != nil || back != k {
			t.Fatalf("kind %q did not round-trip: %v, %v", name, back, err)
		}
	}
}
