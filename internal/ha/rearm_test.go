package ha_test

import (
	"testing"

	"hetdsm/internal/dsd"
	"hetdsm/internal/ha"
	"hetdsm/internal/platform"
	"hetdsm/internal/wire"
)

// TestBackupRearmsAfterPromotion covers the promote-once bug: a standby
// used to be spent after its first promotion, leaving the cluster
// unprotected. A fresh RepInit from the new incarnation must re-arm the
// mirror so the backup can absorb the new stream and promote again.
func TestBackupRearmsAfterPromotion(t *testing.T) {
	gthv := testGThV()
	b := ha.NewBackup(gthv)

	if err := b.Apply(initRecord(t, gthv, platform.LinuxX86, 1)); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(&wire.Replication{Seq: 2, Event: wire.RepLock, Mutex: 0, Rank: 1}); err != nil {
		t.Fatal(err)
	}
	h1, err := b.Promote(platform.SolarisSPARC, dsd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	if h1.Epoch() == 0 {
		t.Fatal("promoted home did not bump the fencing epoch")
	}

	// The spent backup refuses ordinary records and a second promotion —
	// its mirror stopped being a shadow the moment it became the master.
	if err := b.Apply(&wire.Replication{Seq: 3, Event: wire.RepLock, Mutex: 1, Rank: 0}); err == nil {
		t.Fatal("promoted backup accepted a stream record")
	}
	if _, err := b.Promote(platform.SolarisSPARC, dsd.DefaultOptions()); err == nil {
		t.Fatal("backup promoted twice off one stream")
	}

	// The new incarnation attaches a fresh stream. Its bootstrap record
	// re-arms the mirror.
	rearm := initRecord(t, gthv, platform.SolarisSPARC, 1)
	rearm.Epoch = h1.Epoch()
	if err := b.Apply(rearm); err != nil {
		t.Fatalf("fresh RepInit did not re-arm the backup: %v", err)
	}
	if !b.Ready() {
		t.Fatal("re-armed backup not ready")
	}
	if err := b.Apply(&wire.Replication{Seq: 2, Event: wire.RepUnlock, Mutex: 0, Rank: 1, Epoch: h1.Epoch()}); err != nil {
		t.Fatalf("re-armed backup rejected the new stream: %v", err)
	}

	// Second failover: promotion works again and the epoch keeps rising.
	h2, err := b.Promote(platform.SolarisSPARC64, dsd.DefaultOptions())
	if err != nil {
		t.Fatalf("second promotion failed: %v", err)
	}
	defer h2.Close()
	if h2.Epoch() <= h1.Epoch() {
		t.Fatalf("second promotion epoch %d, want above the first's %d", h2.Epoch(), h1.Epoch())
	}
}

// TestBackupRejectsStaleEpochRecords pins the fencing rule on the
// replication stream: once the mirror has seen epoch E, records from any
// earlier incarnation — including a whole stale bootstrap — are refused.
func TestBackupRejectsStaleEpochRecords(t *testing.T) {
	gthv := testGThV()
	b := ha.NewBackup(gthv)

	current := initRecord(t, gthv, platform.LinuxX86, 1)
	current.Epoch = 3
	if err := b.Apply(current); err != nil {
		t.Fatal(err)
	}
	if b.Epoch() != 3 {
		t.Fatalf("backup epoch = %d, want 3", b.Epoch())
	}

	if err := b.Apply(&wire.Replication{Seq: 2, Event: wire.RepLock, Mutex: 0, Rank: 1, Epoch: 2}); err == nil {
		t.Fatal("record from a stale epoch accepted")
	}
	stale := initRecord(t, gthv, platform.LinuxX86, 9)
	stale.Epoch = 1
	if err := b.Apply(stale); err == nil {
		t.Fatal("bootstrap from a stale epoch re-armed the backup")
	}
	// Epoch-unstamped records (a pre-fencing home) still flow.
	if err := b.Apply(&wire.Replication{Seq: 2, Event: wire.RepLock, Mutex: 0, Rank: 1}); err != nil {
		t.Fatalf("unstamped record rejected: %v", err)
	}
	if b.LastSeq() != 2 {
		t.Fatalf("LastSeq = %d, want 2", b.LastSeq())
	}
}

// TestFailedPromoteKeepsBackupArmed covers the promote-bricks-the-standby
// bug: a promotion whose home cannot be built (here a base address the
// target platform's page size rejects) used to mark the mirror spent anyway,
// so the operator's corrected retry — and every later stream record — was
// refused.
func TestFailedPromoteKeepsBackupArmed(t *testing.T) {
	gthv := testGThV()
	b := ha.NewBackup(gthv)
	if err := b.Apply(initRecord(t, gthv, platform.LinuxX86, 1)); err != nil {
		t.Fatal(err)
	}

	bad := dsd.DefaultOptions()
	bad.Base += 4096 // a linux-x86 page, not a solaris-sparc one
	if _, err := b.Promote(platform.SolarisSPARC, bad); err == nil {
		t.Fatal("promotion with a misaligned base succeeded")
	}
	if err := b.Apply(&wire.Replication{Seq: 2, Event: wire.RepLock, Mutex: 0, Rank: 1}); err != nil {
		t.Fatalf("stream refused after a failed promotion: %v", err)
	}
	h, err := b.Promote(platform.SolarisSPARC, dsd.DefaultOptions())
	if err != nil {
		t.Fatalf("promotion after a failed one: %v", err)
	}
	h.Close()
}
