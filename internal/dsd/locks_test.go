package dsd

import (
	"testing"
	"time"

	"hetdsm/internal/leakcheck"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// dialRaw registers rank with h over a pipe and returns the raw end.
func dialRaw(t *testing.T, h *Home, rank int32) rawPeer {
	t.Helper()
	c, s := transport.Pipe()
	go h.ServeConn(s)
	t.Cleanup(func() { c.Close() })
	raw := rawPeer{t, c}
	if ack := raw.call(&wire.Message{Kind: wire.KindHello, Rank: rank, Platform: platform.LinuxX86.Name, Base: DefaultBase}); ack.Kind != wire.KindHelloAck {
		t.Fatalf("rank %d hello answered with %v", rank, ack.Kind)
	}
	return raw
}

// send sends a request without waiting for its reply.
func (p rawPeer) send(m *wire.Message) {
	p.t.Helper()
	if err := p.c.SendFrame(encodeMsg(p.t, m)); err != nil {
		p.t.Fatal(err)
	}
}

// expect receives the next reply and checks its kind.
func (p rawPeer) expect(kind wire.Kind) *wire.Message {
	p.t.Helper()
	m, err := recvDecoded(p.c)
	if err != nil {
		p.t.Fatal(err)
	}
	if m.Kind != kind {
		p.t.Fatalf("got %v, want %v", m.Kind, kind)
	}
	return m
}

// lockOf reports mutex idx's holder (-1 when free) and its waiter count.
func lockOf(h *Home, idx int32) (holder int32, waiters int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ls := h.locks[idx]
	if ls == nil || !ls.held {
		return -1, 0
	}
	return ls.holder, len(ls.waiters)
}

// waitUntil polls cond until it holds, failing the test after 5 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestReplayedUnlockKeepsForeignHolder: rank 0 unlocks mutex 0, which passes
// to rank 1, queued behind it; then rank 0's unlock is replayed under the
// same Seq, as after a lost ack. The replay must not release rank 1's
// mutex, so rank 0's next lock waits until rank 1 unlocks.
func TestReplayedUnlockKeepsForeignHolder(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := dialRaw(t, h, 0), dialRaw(t, h, 1)
	r0.call(&wire.Message{Kind: wire.KindLockReq, Seq: 5, Mutex: 0})
	r1.send(&wire.Message{Kind: wire.KindLockReq, Seq: 5, Mutex: 0})
	waitUntil(t, "rank 1 waits for mutex 0", func() bool { _, n := lockOf(h, 0); return n == 1 })

	unlock := &wire.Message{Kind: wire.KindUnlockReq, Seq: 6, Mutex: 0}
	if ack := r0.call(unlock); ack.Kind != wire.KindUnlockAck {
		t.Fatalf("unlock answered with %v", ack.Kind)
	}
	r1.expect(wire.KindLockGrant)
	if ack := r0.call(unlock); ack.Kind != wire.KindUnlockAck {
		t.Fatalf("replayed unlock answered with %v", ack.Kind)
	}
	if holder, _ := lockOf(h, 0); holder != 1 {
		t.Fatalf("after rank 0's replayed unlock mutex 0 is held by %d, want rank 1", holder)
	}

	r0.send(&wire.Message{Kind: wire.KindLockReq, Seq: 7, Mutex: 0})
	waitUntil(t, "rank 0 queues or is granted", func() bool { holder, n := lockOf(h, 0); return n == 1 || holder == 0 })
	if holder, _ := lockOf(h, 0); holder != 1 {
		t.Fatalf("rank 0 was granted mutex 0 while rank 1 held it")
	}
	if ack := r1.call(&wire.Message{Kind: wire.KindUnlockReq, Seq: 6, Mutex: 0}); ack.Kind != wire.KindUnlockAck {
		t.Fatalf("rank 1 unlock answered with %v", ack.Kind)
	}
	r0.expect(wire.KindLockGrant)
}

// TestLockHandOffIsFIFO queues three ranks on a held mutex in a known order
// and requires each release to hand the mutex to the oldest waiter.
func TestLockHandOffIsFIFO(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 4, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var raws [4]rawPeer
	for r := range raws {
		raws[r] = dialRaw(t, h, int32(r))
	}
	raws[0].call(&wire.Message{Kind: wire.KindLockReq, Seq: 1, Mutex: 0})
	for r := 1; r < len(raws); r++ {
		raws[r].send(&wire.Message{Kind: wire.KindLockReq, Seq: 1, Mutex: 0})
		waitUntil(t, "the waiter queues", func() bool { _, n := lockOf(h, 0); return n == r })
	}
	for r := 0; r < len(raws)-1; r++ {
		if ack := raws[r].call(&wire.Message{Kind: wire.KindUnlockReq, Seq: 2, Mutex: 0}); ack.Kind != wire.KindUnlockAck {
			t.Fatalf("rank %d unlock answered with %v", r, ack.Kind)
		}
		if holder, _ := lockOf(h, 0); holder != int32(r+1) {
			t.Fatalf("rank %d's release handed mutex 0 to rank %d, want rank %d (the oldest waiter)", r, holder, r+1)
		}
		raws[r+1].expect(wire.KindLockGrant)
	}
}

// TestKillWakesParkedStubs kills a home while two stubs wait for a held
// mutex and a third waits in a barrier: every stub must exit. Under
// StickyLocks the dead holder keeps the mutex, so only Kill can wake the
// waiters.
func TestKillWakesParkedStubs(t *testing.T) {
	defer leakcheck.Check(t)()
	opts := DefaultOptions()
	opts.StickyLocks = true
	h, err := NewHome(testGThV(), platform.LinuxX86, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	var raws [4]rawPeer
	for r := range raws {
		raws[r] = dialRaw(t, h, int32(r))
	}
	raws[0].call(&wire.Message{Kind: wire.KindLockReq, Seq: 1, Mutex: 0})
	raws[1].send(&wire.Message{Kind: wire.KindLockReq, Seq: 1, Mutex: 0})
	raws[2].send(&wire.Message{Kind: wire.KindLockReq, Seq: 1, Mutex: 0})
	raws[3].send(&wire.Message{Kind: wire.KindBarrierReq, Seq: 1, Mutex: 0})
	waitUntil(t, "two lock waiters and one barrier arrival", func() bool {
		_, n := lockOf(h, 0)
		h.mu.Lock()
		defer h.mu.Unlock()
		return n == 2 && h.barriers[0] != nil && len(h.barriers[0].ranks) == 1
	})
	h.Kill()
}
