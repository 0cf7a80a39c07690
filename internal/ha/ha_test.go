package ha_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/ha"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/vclock"
	"hetdsm/internal/wire"
)

// testGThV mirrors the small shared structure the dsd tests use.
func testGThV() tag.Struct {
	return tag.Struct{
		Name: "GThV_t",
		Fields: []tag.Field{
			{Name: "GThP", T: tag.Pointer{}},
			{Name: "A", T: tag.IntArray(64)},
			{Name: "sum", T: tag.Int()},
			{Name: "d", T: tag.DoubleArray(8)},
		},
	}
}

// waitFor polls cond until it holds or the deadline passes. Yielding
// instead of sleeping keeps the poll loop deterministic under -race and on
// loaded single-core CI runners.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func TestDetectorSuspectsUnreachableAddress(t *testing.T) {
	nw := transport.NewInproc()
	counters := &ha.Counters{}
	view := ha.NewView()

	var transitions atomic.Int64
	view.Watch(func(addr string, s ha.NodeState) {
		if addr == "ghost" && s == ha.StateSuspect {
			transitions.Add(1)
		}
	})

	var suspected atomic.Bool
	d := ha.NewDetector(nw, "ghost", 2*time.Millisecond, 10*time.Millisecond)
	// Drive probe timing on a virtual clock: the suspicion timeout
	// elapses because the test advances time, not because it sleeps.
	vc := vclock.NewVirtual(time.Time{})
	d.Clock = vc
	d.Counters = counters
	d.View = view
	d.OnSuspect = func(addr string, reason error) {
		if addr != "ghost" || reason == nil {
			t.Errorf("OnSuspect(%q, %v)", addr, reason)
		}
		suspected.Store(true)
	}
	d.Start()

	deadline := time.Now().Add(5 * time.Second)
	for verdict := false; !verdict; {
		select {
		case <-d.Done():
			verdict = true
		default:
			if time.Now().After(deadline) {
				t.Fatal("detector never gave a verdict on an unreachable address")
			}
			vc.Advance(2 * time.Millisecond)
			runtime.Gosched()
		}
	}
	if !suspected.Load() {
		t.Error("OnSuspect did not fire")
	}
	if got := view.State("ghost"); got != ha.StateSuspect {
		t.Errorf("view state = %v, want suspect", got)
	}
	if transitions.Load() != 1 {
		t.Errorf("suspect transitions = %d, want 1", transitions.Load())
	}
	if counters.Suspicions.Load() != 1 {
		t.Errorf("suspicions = %d, want 1", counters.Suspicions.Load())
	}
	d.Stop() // idempotent after Done
}

func TestDetectorStaysAliveWhilePongsFlow(t *testing.T) {
	nw := transport.NewInproc()
	backup := ha.NewBackup(testGThV())
	l, err := nw.Listen("standby")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go backup.ServeReplication(l) // answers KindPing

	counters := &ha.Counters{}
	view := ha.NewView()
	d := ha.NewDetector(nw, "standby", 2*time.Millisecond, 50*time.Millisecond)
	d.Counters = counters
	d.View = view
	d.OnSuspect = func(addr string, reason error) {
		t.Errorf("unexpected suspicion of %q: %v", addr, reason)
	}
	d.Start()
	defer d.Stop()

	waitFor(t, 5*time.Second, "pongs", func() bool { return counters.Pongs.Load() >= 3 })
	if got := view.State("standby"); got != ha.StateAlive {
		t.Errorf("view state = %v, want alive", got)
	}
	if counters.HeartbeatsSent.Load() == 0 {
		t.Error("no heartbeats counted")
	}
	if counters.Suspicions.Load() != 0 {
		t.Errorf("suspicions = %d, want 0", counters.Suspicions.Load())
	}
}

// TestReplicationMirrorsHome drives a real home with a local thread, streams
// its mutations through a Replicator into a Backup, and promotes the backup
// on a *different* platform; the promoted home must hold the same values.
func TestReplicationMirrorsHome(t *testing.T) {
	gthv := testGThV()
	nw := transport.NewInproc()
	backup := ha.NewBackup(gthv)
	l, err := nw.Listen("replica")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go backup.ServeReplication(l)

	h, err := dsd.NewHome(gthv, platform.LinuxX86, 1, dsd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := nw.Dial("replica")
	if err != nil {
		t.Fatal(err)
	}
	counters := &ha.Counters{}
	repl := ha.NewReplicator(conn, counters)
	defer repl.Close()
	if err := h.StartReplication(repl); err != nil {
		t.Fatal(err)
	}

	th, err := h.LocalThread(0, platform.SolarisSPARC, dsd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Globals().MustVar("sum").SetInt(0, -7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := th.Globals().MustVar("A").SetInt(i, int64(3*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := th.Globals().MustVar("d").SetFloat64(2, 6.5); err != nil {
		t.Fatal(err)
	}
	// The unlock handler blocks on replication before acknowledging, so by
	// the time Unlock returns the standby has applied everything.
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}

	if !backup.Ready() {
		t.Fatal("backup never received the bootstrap record")
	}
	if backup.LastSeq() == 0 {
		t.Fatal("no replication records applied")
	}
	if counters.RepRecords.Load() == 0 || counters.RepAcks.Load() == 0 {
		t.Errorf("counters: records=%d acks=%d, want both > 0",
			counters.RepRecords.Load(), counters.RepAcks.Load())
	}

	h2, err := backup.Promote(platform.SolarisSPARC, dsd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if counters.Failovers.Load() != 0 {
		// Promote bumps the backup's own counters, which were never set.
		t.Errorf("failovers on replicator counters = %d", counters.Failovers.Load())
	}
	g := h2.Globals()
	if got, err := g.MustVar("sum").Int(0); err != nil || got != -7 {
		t.Errorf("promoted sum = %d (%v), want -7", got, err)
	}
	for i := 0; i < 8; i++ {
		if got, err := g.MustVar("A").Int(i); err != nil || got != int64(3*i) {
			t.Errorf("promoted A[%d] = %d (%v), want %d", i, got, err, 3*i)
		}
	}
	if got, err := g.MustVar("d").Float64(2); err != nil || got != 6.5 {
		t.Errorf("promoted d[2] = %g (%v), want 6.5", got, err)
	}

	if _, err := backup.Promote(platform.SolarisSPARC, dsd.DefaultOptions()); err == nil {
		t.Error("second promotion succeeded, want error")
	}
	if err := backup.Apply(&wire.Replication{Seq: 99, Event: wire.RepJoin, Rank: 0}); err == nil {
		t.Error("replication accepted after promotion, want error")
	}
}

// initRecord hand-builds a valid bootstrap record for the test GThV on the
// given platform.
func initRecord(t *testing.T, gthv tag.Struct, p *platform.Platform, seq uint64) *wire.Replication {
	t.Helper()
	layout, err := tag.NewLayout(gthv, p)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.Replication{
		Seq:   seq,
		Event: wire.RepInit,
		Rank:  -1,
		Mutex: -1,
		Home: &wire.HomeImage{
			Platform: p.Name,
			Base:     0x40000000,
			Image:    make([]byte, layout.Size),
			Tag:      tag.FromLayout(layout).String(),
			Nthreads: 2,
		},
	}
}

func TestBackupDeduplicatesAndValidates(t *testing.T) {
	gthv := testGThV()

	b := ha.NewBackup(gthv)
	if err := b.Apply(&wire.Replication{Seq: 1, Event: wire.RepUpdate}); err == nil {
		t.Error("update before init accepted")
	}

	bad := initRecord(t, gthv, platform.LinuxX86, 1)
	bad.Home.Image = bad.Home.Image[:len(bad.Home.Image)-1]
	if err := b.Apply(bad); err == nil {
		t.Error("short image accepted")
	}
	bad = initRecord(t, gthv, platform.LinuxX86, 1)
	bad.Home.Tag = "(4,1)"
	if err := b.Apply(bad); err == nil {
		t.Error("mismatched tag accepted")
	}
	bad = initRecord(t, gthv, platform.LinuxX86, 1)
	bad.Home.Platform = "vax-780"
	if err := b.Apply(bad); err == nil {
		t.Error("unknown platform accepted")
	}

	if _, err := b.Promote(platform.LinuxX86, dsd.DefaultOptions()); err == nil {
		t.Error("promotion before init succeeded")
	}

	if err := b.Apply(initRecord(t, gthv, platform.LinuxX86, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(&wire.Replication{Seq: 2, Event: wire.RepLock, Mutex: 3, Rank: 1}); err != nil {
		t.Fatal(err)
	}
	if b.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", b.LastSeq())
	}
	// Duplicate and stale deliveries are absorbed without effect.
	if err := b.Apply(&wire.Replication{Seq: 2, Event: wire.RepLock, Mutex: 4, Rank: 9}); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(&wire.Replication{Seq: 1, Event: wire.RepUnlock, Mutex: 3}); err != nil {
		t.Fatal(err)
	}
	if b.LastSeq() != 2 {
		t.Errorf("LastSeq after duplicates = %d, want 2", b.LastSeq())
	}

	// An out-of-range replicated span must be rejected, not written.
	if err := b.Apply(&wire.Replication{
		Seq:   3,
		Event: wire.RepUpdate,
		Updates: []wire.Update{
			{Entry: 999, First: 0, Count: 1, Data: []byte{0, 0, 0, 0}},
		},
	}); err == nil {
		t.Error("out-of-range span accepted")
	}
}

func TestCountersMap(t *testing.T) {
	var nilCounters *ha.Counters
	if m := nilCounters.Map(); len(m) != 0 {
		t.Errorf("nil counters map = %v, want empty", m)
	}
	c := &ha.Counters{}
	c.HeartbeatsSent.Add(3)
	c.Failovers.Add(1)
	m := c.Map()
	if m["heartbeats_sent"] != 3 || m["failovers"] != 1 {
		t.Errorf("map = %v", m)
	}
	for _, key := range []string{"heartbeats_sent", "pongs", "suspicions", "failovers", "reconnects", "rep_records", "rep_acks"} {
		if _, ok := m[key]; !ok {
			t.Errorf("map missing key %q", key)
		}
	}
}
