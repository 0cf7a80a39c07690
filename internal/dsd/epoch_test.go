package dsd

import (
	"testing"
	"time"

	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// fenceBackoff gives up quickly so tests observe rejection, not a hang.
func fenceBackoff() transport.Backoff {
	return transport.Backoff{
		Base:     100 * time.Microsecond,
		Max:      time.Millisecond,
		Factor:   2,
		Attempts: 12,
		Seed:     1,
	}
}

// TestThreadRejectsStaleEpochHome is the split-brain negative test: a
// thread that has served under epoch 2 must never register with a revived
// epoch-1 home, even when that home is the only one answering — the stale
// master state would fork. The stale home, seeing the thread's higher
// epoch, must fence itself.
func TestThreadRejectsStaleEpochHome(t *testing.T) {
	nw := transport.NewInproc()
	gthv := testGThV()

	optsNew := DefaultOptions()
	optsNew.Epoch = 2
	optsNew.StickyLocks = true
	homeNew, err := NewHome(gthv, platform.LinuxX86, 1, optsNew)
	if err != nil {
		t.Fatal(err)
	}
	lNew, err := nw.Listen("new")
	if err != nil {
		t.Fatal(err)
	}
	go homeNew.Serve(lNew)

	optsOld := DefaultOptions()
	optsOld.Epoch = 1
	optsOld.StickyLocks = true
	homeOld, err := NewHome(gthv, platform.LinuxX86, 1, optsOld)
	if err != nil {
		t.Fatal(err)
	}
	lOld, err := nw.Listen("old")
	if err != nil {
		t.Fatal(err)
	}
	go homeOld.Serve(lOld)

	// The old home is genuinely alive: an epoch-naive client can register
	// and run a full critical section against it.
	control, err := Dial(nw, "old", platform.SolarisSPARC, 0, gthv, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := control.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := control.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if got := control.HomeEpoch(); got != 1 {
		t.Fatalf("control thread adopted epoch %d from the old home, want 1", got)
	}

	// The worker registers with the current incarnation and adopts its
	// epoch.
	th, err := DialHABackoff(nw, []string{"new", "old"}, platform.SolarisSPARC, 0, gthv, DefaultOptions(), fenceBackoff())
	if err != nil {
		t.Fatal(err)
	}
	if got := th.HomeEpoch(); got != 2 {
		t.Fatalf("thread adopted epoch %d, want 2", got)
	}

	// The current home dies; only the stale one remains. The thread's
	// reconnect must refuse it and the operation must fail rather than
	// fork state.
	homeNew.Kill()
	if err := th.Lock(0); err == nil {
		t.Fatal("lock succeeded against a stale-epoch home")
	}
	if !homeOld.Fenced() {
		t.Fatal("stale home saw an epoch-2 frame but did not fence itself")
	}
}

// TestHomeFencesOnNewerEpochFrame sends a raw frame stamped with a higher
// epoch: the home must refuse to answer and permanently stop serving —
// proof somewhere a newer incarnation took over.
func TestHomeFencesOnNewerEpochFrame(t *testing.T) {
	opts := DefaultOptions()
	opts.Epoch = 5
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if h.Fenced() {
		t.Fatal("fresh home is fenced")
	}
	a, b := transport.Pipe()
	go h.ServeConn(b)
	frame, err := wire.Encode(&wire.Message{
		Kind: wire.KindHello, Rank: 0, Platform: platform.LinuxX86.Name, Epoch: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendFrame(frame); err != nil {
		t.Fatal(err)
	}
	if _, err := a.RecvFrame(); err == nil {
		t.Fatal("fenced home answered a hello")
	}
	if !h.Fenced() {
		t.Fatal("home did not fence on a newer-epoch frame")
	}
	if h.Epoch() != 5 {
		t.Fatalf("fencing changed the home's own epoch to %d", h.Epoch())
	}
	// Fencing is permanent: fresh handshakes are refused too.
	c, d := transport.Pipe()
	go h.ServeConn(d)
	plain, err := wire.Encode(&wire.Message{
		Kind: wire.KindHello, Rank: 0, Platform: platform.LinuxX86.Name,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendFrame(plain); err == nil {
		if m, err := recvDecoded(c); err == nil && m.Kind == wire.KindHelloAck {
			t.Fatal("fenced home accepted a new registration")
		}
	}
}

// TestKilledHomeRefusesLateConn serves a conn the listener accepted just
// before Kill: the dead home must sever it rather than answer pings, or a
// standby's failure detector keeps hearing pongs and never promotes.
func TestKilledHomeRefusesLateConn(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h.Kill()
	a, b := transport.Pipe()
	go h.ServeConn(b)
	ping, err := wire.Encode(&wire.Message{Kind: wire.KindPing, Seq: 1, Rank: -1, Mutex: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SendFrame(ping); err != nil {
		return // already severed
	}
	if m, err := recvDecoded(a); err == nil && m.Kind == wire.KindPong {
		t.Fatal("killed home answered a ping")
	}
}

// recvDecoded reads and decodes one frame.
func recvDecoded(c transport.Conn) (*wire.Message, error) {
	frame, err := c.RecvFrame()
	if err != nil {
		return nil, err
	}
	return wire.Decode(frame)
}

// TestThreadAdoptsHomeEpoch verifies the happy path: an epoch-naive thread
// learns the home's epoch at handshake and stamps it on every later frame.
func TestThreadAdoptsHomeEpoch(t *testing.T) {
	opts := DefaultOptions()
	opts.Epoch = 7
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.LocalThread(0, platform.SolarisSPARC, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := th.HomeEpoch(); got != 7 {
		t.Fatalf("thread adopted epoch %d, want 7", got)
	}
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if h.Fenced() {
		t.Fatal("echoed epoch fenced the home that issued it")
	}
}
