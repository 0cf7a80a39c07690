package dsd

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// frameMeter counts the frames and bytes crossing the conns it meters.
type frameMeter struct{ frames, bytes atomic.Int64 }

func (m *frameMeter) Observe(v float64) {
	m.frames.Add(1)
	m.bytes.Add(int64(v))
}

// TestFramesPerSyncOp pins the protocol floor, counted at the thread end of
// every conn in both directions: a header field or a round trip added later
// fails here instead of drifting a benchmark.
func TestFramesPerSyncOp(t *testing.T) {
	const ranks = 2
	h, err := NewHome(testGThV(), platform.LinuxX86, ranks, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var meter frameMeter
	ths := make([]*Thread, ranks)
	for r := range ths {
		a, b := transport.Pipe()
		go h.ServeConn(b)
		if ths[r], err = Connect(transport.Meter(a, &meter, &meter), platform.SolarisSPARC, int32(r), testGThV(), DefaultOptions()); err != nil {
			t.Fatal(err)
		}
		defer ths[r].Close()
	}
	cost := func(op func() error) (frames, bytes int64) {
		t.Helper()
		f0, b0 := meter.frames.Load(), meter.bytes.Load()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return meter.frames.Load() - f0, meter.bytes.Load() - b0
	}
	th := ths[0]
	empty := func() error {
		if err := th.Lock(0); err != nil {
			return err
		}
		return th.Unlock(0)
	}
	cost(empty) // the first op after the handshake
	if f, b := cost(empty); f != 4 || b > 48 {
		t.Errorf("empty Lock+Unlock: %d frames, %d B; want 4 frames, at most 48 B", f, b)
	}
	barrier := func() error {
		errs := make(chan error, ranks)
		for _, th := range ths {
			go func() { errs <- th.Barrier(0) }()
		}
		for range ths {
			if err := <-errs; err != nil {
				return err
			}
		}
		return nil
	}
	if f, b := cost(barrier); f != 4 {
		t.Errorf("%d-rank barrier without stores: %d frames (%d B), want 4", ranks, f, b)
	}
	acct := th.Globals().MustVar("A")
	move := func(from, to int, amount int64) error {
		a, err := acct.Int(from)
		if err != nil {
			return err
		}
		b, err := acct.Int(to)
		if err != nil {
			return err
		}
		if err := acct.SetInt(from, a-amount); err != nil {
			return err
		}
		return acct.SetInt(to, b+amount)
	}
	transfer := func() error {
		// Two striped account locks held at once, as in contend.transfer.
		if err := th.Lock(1); err != nil {
			return err
		}
		if err := th.Lock(2); err != nil {
			return err
		}
		if err := move(3, 9, 5); err != nil {
			return err
		}
		if err := th.Unlock(2); err != nil {
			return err
		}
		return th.Unlock(1)
	}
	f, b := cost(transfer)
	if f != 8 {
		t.Errorf("two-lock transfer: %d frames, want 8", f)
	}
	t.Logf("two-lock transfer: %d frames, %d B", f, b)
}

// frameTap keeps a copy of every frame sent through it.
type frameTap struct {
	transport.Conn
	mu   sync.Mutex
	sent [][]byte
}

func (c *frameTap) SendFrame(frame []byte) error {
	c.mu.Lock()
	c.sent = append(c.sent, slices.Clone(frame))
	c.mu.Unlock()
	return c.Conn.SendFrame(frame)
}

// TestReleaseFrameCarriesOnlyItsUpdates pins the lean release frame: a
// one-store release's unlock request is exactly the encoding of a message
// holding Kind, Seq, Rank, Epoch and Updates. A field added to every
// release (page-heat samples, a deadline budget) fails here.
func TestReleaseFrameCarriesOnlyItsUpdates(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	go h.ServeConn(b)
	tap := &frameTap{Conn: a}
	th, err := Connect(tap, platform.SolarisSPARC, 1, testGThV(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer th.Close()
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Globals().MustVar("A").SetInt(3, 7); err != nil {
		t.Fatal(err)
	}
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}
	tap.mu.Lock()
	frame := tap.sent[len(tap.sent)-1]
	tap.mu.Unlock()
	m, err := wire.Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != wire.KindUnlockReq || len(m.Updates) != 1 {
		t.Fatalf("last frame is %v with %d updates, want an unlock-req with 1", m.Kind, len(m.Updates))
	}
	want, err := wire.Encode(&wire.Message{Kind: m.Kind, Seq: m.Seq, Rank: m.Rank, Epoch: m.Epoch, Updates: m.Updates})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, want) {
		t.Errorf("one-store unlock-req is % x (%d B),\nwant % x (%d B): only Kind, Seq, Rank, Epoch and Updates may travel",
			frame, len(frame), want, len(want))
	}
}

// rawPeer speaks the wire protocol to a home directly, one request and one
// reply at a time.
type rawPeer struct {
	t *testing.T
	c transport.Conn
}

func (p rawPeer) call(m *wire.Message) *wire.Message {
	p.t.Helper()
	if err := p.c.SendFrame(encodeMsg(p.t, m)); err != nil {
		p.t.Fatal(err)
	}
	reply, err := recvDecoded(p.c)
	if err != nil {
		p.t.Fatal(err)
	}
	return reply
}

// pendingOf returns what rank is owed now: the spans of the runs its next
// grant would ship, merged.
func pendingOf(h *Home, rank int32) []indextable.Span {
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peers[rank]
	return indextable.MergeInPlace(h.owedLocked(nil, rank, p != nil && p.seed))
}

// TestLazyGrantCommit drives a home with raw frames: a grant commits
// nothing, so a replayed lock request (same Seq) is granted the same spans
// again, and after the holder's next request what remains owed is exactly
// what was written after the grant.
func TestLazyGrantCommit(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, s := transport.Pipe()
	go h.ServeConn(s)
	defer c.Close()
	raw := rawPeer{t, c}
	hello := raw.call(&wire.Message{Kind: wire.KindHello, Rank: 0, Platform: platform.LinuxX86.Name, Base: DefaultBase})
	if hello.Kind != wire.KindHelloAck {
		t.Fatalf("hello answered with %v", hello.Kind)
	}
	writer, err := h.LocalThread(1, platform.SolarisSPARC, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	write := func(name string, i int, v int64) {
		t.Helper()
		if err := writer.Lock(1); err != nil {
			t.Fatal(err)
		}
		if err := writer.Globals().MustVar(name).SetInt(i, v); err != nil {
			t.Fatal(err)
		}
		if err := writer.Unlock(1); err != nil {
			t.Fatal(err)
		}
	}

	write("A", 3, 7)
	granted := pendingOf(h, 0)
	if len(granted) == 0 {
		t.Fatal("the writer's release queued nothing for rank 0")
	}
	grant := raw.call(&wire.Message{Kind: wire.KindLockReq, Seq: 5, Mutex: 0})
	if grant.Kind != wire.KindLockGrant || len(grant.Updates) == 0 {
		t.Fatalf("lock request answered with %v carrying %d updates", grant.Kind, len(grant.Updates))
	}
	if got := pendingOf(h, 0); !reflect.DeepEqual(got, granted) {
		t.Fatalf("the grant committed: %v owed of %v", got, granted)
	}
	replay := raw.call(&wire.Message{Kind: wire.KindLockReq, Seq: 5, Mutex: 0})
	if replay.Kind != wire.KindLockGrant || !reflect.DeepEqual(replay.Updates, grant.Updates) {
		t.Fatalf("replayed request granted %+v, the first grant carried %+v", replay.Updates, grant.Updates)
	}

	write("B", 5, 9) // written after the grant
	if ack := raw.call(&wire.Message{Kind: wire.KindUnlockReq, Seq: 6, Mutex: 0}); ack.Kind != wire.KindUnlockAck {
		t.Fatalf("unlock answered with %v", ack.Kind)
	}
	b, _ := h.table.EntryByName("B")
	left := pendingOf(h, 0)
	if want := []indextable.Span{{Entry: b.Index, First: 5, Count: 1}}; !reflect.DeepEqual(left, want) {
		t.Fatalf("after the holder's next request %v is owed, want what was written after the grant %v", left, want)
	}
	next := raw.call(&wire.Message{Kind: wire.KindLockReq, Seq: 7, Mutex: 0})
	for _, u := range next.Updates {
		if int(u.Entry) != b.Index {
			t.Errorf("next grant re-ships entry %d, already committed", u.Entry)
		}
	}
	if len(next.Updates) == 0 {
		t.Error("next grant lost the spans written after the first")
	}
}

// TestLostGrantsConverge drops lock grants on the wire (transport.Faults
// aimed at KindLockGrant). Each lost grant is answered again when the
// holder replays its request under the same Seq, so a shared counter ends
// at the sequential result.
func TestLostGrantsConverge(t *testing.T) {
	nw := transport.NewFaults(transport.NewInproc(), transport.FaultPlan{
		Seed: 3, P: 0.3, Kinds: []byte{byte(wire.KindLockGrant)},
	})
	opts := DefaultOptions()
	opts.StickyLocks = true
	plats := []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86}
	h, err := NewHome(testGThV(), platform.LinuxX86, len(plats), opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	defer h.Close()
	const rounds = 20
	errs := make(chan error, len(plats))
	for r, p := range plats {
		go func() {
			errs <- func() error {
				bo := transport.Backoff{Base: 100 * time.Microsecond, Max: 2 * time.Millisecond, Factor: 2, Jitter: 0.3, Attempts: 400, Seed: int64(r) + 1}
				th, err := DialHABackoff(nw, []string{"home"}, p, int32(r), testGThV(), DefaultOptions(), bo)
				if err != nil {
					return err
				}
				defer th.Close()
				sum := th.Globals().MustVar("sum")
				for i := 0; i < rounds; i++ {
					if err := th.Lock(0); err != nil {
						return err
					}
					v, err := sum.Int(0)
					if err != nil {
						return err
					}
					if err := sum.SetInt(0, v+1); err != nil {
						return err
					}
					if err := th.Unlock(0); err != nil {
						return err
					}
				}
				return th.Join()
			}()
		}()
	}
	for range plats {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	h.Wait()
	if nw.Counts().Kills == 0 {
		t.Fatal("no grant was dropped; the test exercised nothing")
	}
	if v, err := h.Globals().MustVar("sum").Int(0); err != nil || v != int64(len(plats)*rounds) {
		t.Fatalf("sum = %d (%v), want %d", v, err, len(plats)*rounds)
	}
}
