// Package trace_test pins the protocol-event view of the one event ring:
// the moments dsmrun -trace prints and the /trace endpoint and -trace-out
// dumps serve, as rendered by flight.Ring.Lines and flight.Line. The ring
// itself lives in internal/flight; this directory holds only these tests.
package trace_test

import (
	"bytes"
	"strings"
	"testing"

	"hetdsm/internal/flight"
)

// dump writes the retained moments one dsmrun -trace line each.
func dump(r *flight.Ring) string {
	var b strings.Builder
	for _, l := range r.Lines() {
		b.WriteString(l.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func TestRingWrap(t *testing.T) {
	r := flight.New(4)
	for i := 0; i < 10; i++ {
		r.Note("home", flight.KindApply, int32(i), -1, 0, "")
	}
	lines := r.Lines()
	if len(lines) != 4 {
		t.Fatalf("retained %d, want 4", len(lines))
	}
	// Oldest retained is seq 6; order must be 6,7,8,9.
	for i, l := range lines {
		if want := uint64(6 + i); l.Seq != want {
			t.Errorf("slot %d seq = %d, want %d", i, l.Seq, want)
		}
	}
	if r.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", r.Dropped())
	}
	if r.Total() != 10 {
		t.Errorf("total = %d, want 10", r.Total())
	}
}

func TestNilLogRecordIsNoop(t *testing.T) {
	var r *flight.Ring
	// Must not panic: the DSD hot path records unconditionally.
	r.Note("home", flight.KindHello, 1, -1, 0, "")
	if r.Lines() != nil || r.Total() != 0 {
		t.Errorf("nil ring retained moments")
	}
}

func TestRecordAndFilter(t *testing.T) {
	r := flight.New(64)
	r.Note("home", flight.KindLockGrant, 1, 0, 100, "")
	r.Note("home", flight.KindUnlock, 1, 0, 200, "")
	r.Note("home", flight.KindLockGrant, 2, 0, 50, "")
	grants := r.Filter(flight.KindLockGrant)
	if len(grants) != 2 {
		t.Fatalf("grants = %d", len(grants))
	}
	if grants[0].Rank != 1 || grants[1].Rank != 2 {
		t.Errorf("grant ranks = %d,%d", grants[0].Rank, grants[1].Rank)
	}
	if got := r.Filter(flight.KindDetach); len(got) != 0 {
		t.Errorf("unexpected detach events: %v", got)
	}
}

func TestEventString(t *testing.T) {
	l := flight.Line{Seq: 7, Node: "home@linux-x86", Kind: flight.KindUnlock, Rank: 2, Mutex: 0, Bytes: 512, Detail: "x"}
	s := l.String()
	for _, sub := range []string{"home@linux-x86", "unlock", "rank=2", "idx=0", "bytes=512", "x"} {
		if !strings.Contains(s, sub) {
			t.Errorf("String %q missing %q", s, sub)
		}
	}
	// Negative rank/mutex suppressed.
	l2 := flight.Line{Node: "home", Kind: flight.KindDetach, Rank: -1, Mutex: -1}
	if s2 := l2.String(); strings.Contains(s2, "rank=") || strings.Contains(s2, "idx=") {
		t.Errorf("suppressed fields leaked: %q", s2)
	}
}

func TestDump(t *testing.T) {
	r := flight.New(8)
	r.Note("home", flight.KindHello, 0, -1, 0, "linux-x86")
	r.Note("home", flight.KindJoin, 0, -1, 0, "")
	out := dump(r)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("dump lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "hello") || !strings.Contains(lines[1], "join") {
		t.Errorf("dump content wrong:\n%s", out)
	}
}

// TestDumpJSONNil checks the nil ring writes nothing and does not panic.
func TestDumpJSONNil(t *testing.T) {
	var r *flight.Ring
	var buf bytes.Buffer
	if err := r.WriteLines(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil ring wrote %q", buf.String())
	}
}

// TestEventsOrderAfterPartialWrap drives the ring to a fill level that
// is not a multiple of its capacity, where a naive oldest-first
// reconstruction goes wrong.
func TestEventsOrderAfterPartialWrap(t *testing.T) {
	r := flight.New(5)
	const total = 13 // 13 % 5 = 3: ring seam sits mid-buffer
	for i := 0; i < total; i++ {
		r.Note("n", flight.KindFlush, int32(i), -1, 0, "")
	}
	lines := r.Lines()
	if len(lines) != 5 {
		t.Fatalf("retained %d, want 5", len(lines))
	}
	for i, l := range lines {
		if want := uint64(total - 5 + i); l.Seq != want {
			t.Fatalf("slot %d seq = %d, want %d", i, l.Seq, want)
		}
		if want := int32(total - 5 + i); l.Rank != want {
			t.Fatalf("slot %d rank = %d, want %d (payload must travel with its seq)", i, l.Rank, want)
		}
	}
	if got, want := r.Dropped(), uint64(total-5); got != want {
		t.Errorf("dropped = %d, want %d", got, want)
	}
	if r.Total() != total {
		t.Errorf("total = %d, want %d", r.Total(), total)
	}
}

// TestFilterAfterWrap checks the /trace view sees only retained moments,
// in order, once the ring has overwritten earlier matches.
func TestFilterAfterWrap(t *testing.T) {
	r := flight.New(6)
	// Alternate two kinds for 20 moments; the ring keeps the last 6
	// (seqs 14..19), of which the even seqs are locks.
	for i := 0; i < 20; i++ {
		kind := flight.KindLockGrant
		if i%2 == 1 {
			kind = flight.KindUnlock
		}
		r.Note("n", kind, -1, -1, 0, "")
	}
	var got []flight.Line
	for _, l := range r.Lines() {
		if l.Kind == flight.KindLockGrant {
			got = append(got, l)
		}
	}
	want := []uint64{14, 16, 18}
	if len(got) != len(want) {
		t.Fatalf("filter kept %d moments, want %d", len(got), len(want))
	}
	for i, l := range got {
		if l.Seq != want[i] {
			t.Errorf("filter[%d].Seq = %d, want %d", i, l.Seq, want[i])
		}
	}
	if n := len(r.Filter(flight.KindLockGrant)); n != len(want) {
		t.Errorf("Filter kept %d lock grants, want %d", n, len(want))
	}
}
