package check

import (
	"bytes"
	"strings"
	"testing"

	"hetdsm/internal/flight"
	"hetdsm/internal/platform"
)

// record replays a compact script onto a History using the Recorder
// interface, so the tests exercise the same entry points dsd threads call.
type step struct {
	rank   int32
	op     Op
	sync   int
	name   string
	index  int
	value  int64
	target string
	tindex int
}

func record(steps []step) *History {
	h := NewHistory()
	for _, s := range steps {
		switch s.op {
		case OpAcquire:
			h.Acquire(s.rank, s.sync)
		case OpRelease:
			h.Release(s.rank, s.sync)
		case OpBarrierEnter:
			h.BarrierEnter(s.rank, s.sync)
		case OpBarrierExit:
			h.BarrierExit(s.rank, s.sync)
		case OpJoin:
			h.Join(s.rank)
		case OpRead:
			h.Read(s.rank, s.name, s.index, s.value)
		case OpWrite:
			h.Write(s.rank, s.name, s.index, s.value)
		case OpPtrWrite:
			h.WritePtr(s.rank, s.name, s.index, s.target, s.tindex)
		case OpPtrRead:
			h.ReadPtr(s.rank, s.name, s.index, s.target, s.tindex)
		}
	}
	return h
}

func TestValidateCleanLockHistory(t *testing.T) {
	// r0 writes A[0]=5 in a CS; r1 then reads 5 and writes 7; r0 reads 7.
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpWrite, name: "A", value: 5},
		{rank: 0, op: OpRead, name: "A", value: 5}, // read-own-write
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpAcquire, sync: 0},
		{rank: 1, op: OpRead, name: "A", value: 5},
		{rank: 1, op: OpWrite, name: "A", value: 7},
		{rank: 1, op: OpRelease, sync: 0},
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpRead, name: "A", value: 7},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 0, op: OpJoin},
		{rank: 1, op: OpJoin},
	})
	if vs := Validate(h.Events(), 2); len(vs) != 0 {
		t.Fatalf("clean history flagged: %v", vs)
	}
}

func TestValidateDetectsStaleRead(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpWrite, name: "A", value: 5},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpAcquire, sync: 0},
		{rank: 1, op: OpRead, name: "A", value: 0}, // lost update: must see 5
		{rank: 1, op: OpRelease, sync: 0},
	})
	vs := Validate(h.Events(), 2)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %v", len(vs), vs)
	}
	if !strings.Contains(vs[0].Msg, "stale read") {
		t.Fatalf("unexpected violation: %v", vs[0])
	}
	if len(vs[0].Trace) == 0 {
		t.Fatal("violation carries no minimized trace")
	}
}

func TestValidateDetectsMutualExclusionBreak(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 1, op: OpAcquire, sync: 0}, // double grant
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpRelease, sync: 0},
	})
	vs := Validate(h.Events(), 2)
	found := false
	for _, v := range vs {
		if strings.Contains(v.Msg, "mutual exclusion") {
			found = true
		}
	}
	if !found {
		t.Fatalf("double grant not flagged: %v", vs)
	}
}

func TestValidateDetectsEarlyBarrierOpen(t *testing.T) {
	// r0 exits generation 0 although r1 never entered it.
	h := record([]step{
		{rank: 0, op: OpBarrierEnter, sync: 0},
		{rank: 0, op: OpBarrierExit, sync: 0},
		{rank: 1, op: OpBarrierEnter, sync: 0},
		{rank: 1, op: OpBarrierExit, sync: 0},
	})
	vs := Validate(h.Events(), 2)
	if len(vs) == 0 || !strings.Contains(vs[0].Msg, "arrivals") {
		t.Fatalf("early barrier open not flagged: %v", vs)
	}
}

func TestValidateCleanBarrierHistory(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpWrite, name: "A", index: 0, value: 1},
		{rank: 1, op: OpWrite, name: "A", index: 1, value: 2},
		{rank: 0, op: OpBarrierEnter, sync: 0},
		{rank: 1, op: OpBarrierEnter, sync: 0},
		{rank: 0, op: OpBarrierExit, sync: 0},
		{rank: 1, op: OpBarrierExit, sync: 0},
		// After the barrier both ranks see both writes.
		{rank: 0, op: OpRead, name: "A", index: 1, value: 2},
		{rank: 1, op: OpRead, name: "A", index: 0, value: 1},
	})
	if vs := Validate(h.Events(), 2); len(vs) != 0 {
		t.Fatalf("clean barrier history flagged: %v", vs)
	}
}

func TestValidateDetectsActAfterJoin(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpJoin},
		{rank: 0, op: OpAcquire, sync: 0},
	})
	vs := Validate(h.Events(), 1)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "after join") {
		t.Fatalf("act-after-join not flagged: %v", vs)
	}
}

func TestFinalState(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpWrite, name: "A", index: 3, value: 9},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpWrite, name: "B", index: 0, value: 4},
		{rank: 1, op: OpJoin}, // join flushes the dirty write
	})
	fs := FinalState(h.Events())
	if got := fs["A"][3]; got != 9 {
		t.Errorf("A[3] = %d, want 9", got)
	}
	if got := fs["B"][0]; got != 4 {
		t.Errorf("B[0] = %d, want 4", got)
	}
}

func TestCanonicalIgnoresInterleaving(t *testing.T) {
	// Same per-rank programs, different global interleavings.
	a := record([]step{
		{rank: 0, op: OpWrite, name: "A", value: 1},
		{rank: 1, op: OpWrite, name: "B", value: 2},
		{rank: 0, op: OpJoin},
		{rank: 1, op: OpJoin},
	})
	b := record([]step{
		{rank: 1, op: OpWrite, name: "B", value: 2},
		{rank: 0, op: OpWrite, name: "A", value: 1},
		{rank: 1, op: OpJoin},
		{rank: 0, op: OpJoin},
	})
	ca, cb := Canonical(a.Events()), Canonical(b.Events())
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical traces differ across interleavings:\n%s\nvs\n%s", ca, cb)
	}
}

func TestMinimizeKeepsOnlyRelevantEvents(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpWrite, name: "A", index: 0, value: 1},
		{rank: 1, op: OpWrite, name: "Z", index: 9, value: 99}, // unrelated
		{rank: 0, op: OpRead, name: "A", index: 0, value: 1},
	})
	events := h.Events()
	bad := events[len(events)-1]
	min := Minimize(events, bad, 40)
	for _, e := range min {
		if e.Var == "Z" {
			t.Fatalf("minimized trace kept unrelated event %s", e)
		}
	}
	if min[len(min)-1].Stamp != bad.Stamp {
		t.Fatal("minimized trace does not end at the violation")
	}
}

func TestRoundTripInts(t *testing.T) {
	vals := []int64{0, 1, -1, 1 << 20, -(1 << 20), 2147483647, -2147483648}
	pairs := [][2]*platform.Platform{
		{platform.LinuxX86, platform.SolarisSPARC}, // endianness flip
		{platform.LinuxX86, platform.LinuxX8664},   // ILP32 vs LP64
		{platform.SolarisSPARC, platform.SolarisSPARC64},
		{platform.LinuxX8664, platform.SolarisSPARC64}, // both LP64, endian flip
	}
	for _, p := range pairs {
		for _, ct := range []platform.CType{platform.CInt, platform.CLong, platform.CLongLong} {
			if err := RoundTripInts(vals, ct, p[0], p[1]); err != nil {
				t.Errorf("%v %s<->%s: %v", ct, p[0], p[1], err)
			}
		}
	}
}

func TestCrossCheckTrace(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 0, op: OpBarrierEnter, sync: 0},
		{rank: 0, op: OpBarrierExit, sync: 0},
	})
	full := flight.New(64)
	full.Note("home", flight.KindLockGrant, 0, 0, 0, "")
	full.Note("home", flight.KindBarrierArrive, 0, 0, 0, "")
	if vs := CrossCheckTrace(h.Events(), full); len(vs) != 0 {
		t.Fatalf("covered history flagged: %v", vs)
	}
	// Replays may over-count in the log: still fine.
	full.Note("home", flight.KindLockGrant, 0, 0, 0, "replay")
	if vs := CrossCheckTrace(h.Events(), full); len(vs) != 0 {
		t.Fatalf("over-counted log flagged: %v", vs)
	}
	empty := flight.New(64)
	vs := CrossCheckTrace(h.Events(), empty)
	if len(vs) != 2 {
		t.Fatalf("missing grants/arrivals not flagged: %v", vs)
	}
}

// TestValidateNestedLockHistory round-trips a clean nested-lock history:
// a rank that writes while holding an outer+inner lock pair commits both
// writes at the releases, and a later acquirer of either lock must see
// them. This is the acquire-while-dirty shape the grammar's nested and
// ptr-pub actions emit.
func TestValidateNestedLockHistory(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpWrite, name: "A", value: 11},
		{rank: 0, op: OpAcquire, sync: 1}, // inner acquire with A dirty
		{rank: 0, op: OpWrite, name: "B", value: 22},
		{rank: 0, op: OpRead, name: "A", value: 11}, // own dirty write survives the inner refresh
		{rank: 0, op: OpRelease, sync: 1},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpAcquire, sync: 1},
		{rank: 1, op: OpRead, name: "B", value: 22},
		{rank: 1, op: OpRelease, sync: 1},
		{rank: 1, op: OpAcquire, sync: 0},
		{rank: 1, op: OpRead, name: "A", value: 11},
		{rank: 1, op: OpRelease, sync: 0},
		{rank: 0, op: OpJoin},
		{rank: 1, op: OpJoin},
	})
	if vs := Validate(h.Events(), 2); len(vs) != 0 {
		t.Fatalf("clean nested-lock history flagged: %v", vs)
	}
}

// TestValidateNestedExclusionBreak pins that mutual exclusion is tracked
// per lock even when held as a nested chain: a rank acquiring the inner
// lock while another rank still holds it is flagged.
func TestValidateNestedExclusionBreak(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpAcquire, sync: 1},
		{rank: 1, op: OpAcquire, sync: 1}, // inner lock granted twice
		{rank: 0, op: OpRelease, sync: 1},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpRelease, sync: 1},
	})
	if vs := Validate(h.Events(), 2); len(vs) == 0 {
		t.Fatal("double grant of a nested inner lock not flagged")
	}
}

// TestValidateBarrierFreeOrdering covers the producer/consumer shape: no
// barrier anywhere, ordering flows only through the flag lock's
// release->acquire edge. Blind writes published before the release must be
// visible after the matching acquire; the same read before the edge exists
// would be stale.
func TestValidateBarrierFreeOrdering(t *testing.T) {
	clean := []step{
		{rank: 0, op: OpWrite, name: "S", index: 2, value: 99}, // blind write outside any CS
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpWrite, name: "G", value: 1}, // generation bump
		{rank: 0, op: OpRelease, sync: 0},           // publishes S[2] and G
		{rank: 1, op: OpAcquire, sync: 0},
		{rank: 1, op: OpRead, name: "G", value: 1},
		{rank: 1, op: OpRead, name: "S", index: 2, value: 99},
		{rank: 1, op: OpRelease, sync: 0},
		{rank: 0, op: OpJoin},
		{rank: 1, op: OpJoin},
	}
	if vs := Validate(record(clean).Events(), 2); len(vs) != 0 {
		t.Fatalf("clean barrier-free history flagged: %v", vs)
	}

	stale := []step{
		{rank: 0, op: OpWrite, name: "S", index: 2, value: 99},
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpWrite, name: "G", value: 1},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpAcquire, sync: 0},
		{rank: 1, op: OpRead, name: "S", index: 2, value: 0}, // lost the published write
		{rank: 1, op: OpRelease, sync: 0},
	}
	vs := Validate(record(stale).Events(), 2)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "stale read") {
		t.Fatalf("consumer reading past the release edge not flagged: %v", vs)
	}
}

// TestValidatePointerHistory round-trips pointer publication: a committed
// WritePtr must be observed by a post-acquire ReadPtr, and FinalPtrState
// must report the committed target.
func TestValidatePointerHistory(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpPtrWrite, name: "pt", index: 1, target: "a", tindex: 3},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpAcquire, sync: 0},
		{rank: 1, op: OpPtrRead, name: "pt", index: 1, target: "a", tindex: 3},
		{rank: 1, op: OpRelease, sync: 0},
		{rank: 0, op: OpJoin},
		{rank: 1, op: OpJoin},
	})
	if vs := Validate(h.Events(), 2); len(vs) != 0 {
		t.Fatalf("clean pointer history flagged: %v", vs)
	}
	final := FinalPtrState(h.Events())
	got, ok := final["pt"][1]
	if !ok || got != (PtrTarget{Var: "a", Index: 3}) {
		t.Fatalf("FinalPtrState[pt][1] = %v (ok=%v), want a[3]", got, ok)
	}
}

// TestValidateDetectsStalePointerRead pins the pointer-chase staleness
// rule: reading the pre-publication target after the release->acquire edge
// is a violation.
func TestValidateDetectsStalePointerRead(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpPtrWrite, name: "pt", index: 0, target: "b", tindex: 5},
		{rank: 0, op: OpRelease, sync: 0},
		{rank: 1, op: OpAcquire, sync: 0},
		{rank: 1, op: OpPtrRead, name: "pt", index: 0, target: "", tindex: -1}, // still nil: stale
		{rank: 1, op: OpRelease, sync: 0},
	})
	vs := Validate(h.Events(), 2)
	if len(vs) != 1 || !strings.Contains(vs[0].Msg, "stale pointer read") {
		t.Fatalf("stale pointer read not flagged: %v", vs)
	}
}

// TestRoundTripPointerValues complements TestRoundTripInts for the values
// grammar histories carry: the int64 payloads written under nested locks
// and producer phases must survive every heterogeneous platform hop used
// by the simulator's mixes.
func TestRoundTripPointerValues(t *testing.T) {
	h := record([]step{
		{rank: 0, op: OpAcquire, sync: 0},
		{rank: 0, op: OpWrite, name: "A", value: -1115292547},
		{rank: 0, op: OpAcquire, sync: 1},
		{rank: 0, op: OpWrite, name: "B", value: 1213937417},
		{rank: 0, op: OpRelease, sync: 1},
		{rank: 0, op: OpRelease, sync: 0},
	})
	var vals []int64
	for _, e := range h.Events() {
		if e.Op == OpWrite {
			vals = append(vals, e.Value)
		}
	}
	if len(vals) != 2 {
		t.Fatalf("expected 2 writes in history, got %d", len(vals))
	}
	pairs := [][2]*platform.Platform{
		{platform.LinuxX86, platform.SolarisSPARC},
		{platform.SolarisSPARC64, platform.LinuxX8664},
	}
	for _, p := range pairs {
		for _, ct := range []platform.CType{platform.CInt, platform.CLongLong} {
			if err := RoundTripInts(vals, ct, p[0], p[1]); err != nil {
				t.Errorf("%v %s<->%s: %v", ct, p[0], p[1], err)
			}
		}
	}
}
