package dsd

import (
	"strings"
	"testing"

	"hetdsm/internal/flight"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// TestFlightRecordsFenceSequence kills a home the fencing way — a frame
// from a newer incarnation — and requires the black box to have the whole
// story: the fence event with both epochs, and a trip whose dump an
// operator can read after the process is gone.
func TestFlightRecordsFenceSequence(t *testing.T) {
	fr := flight.New(64)
	tripped := make(chan string, 1)
	fr.OnTrip(func(reason string, events []flight.Event) {
		tripped <- reason
	})
	opts := DefaultOptions()
	opts.Epoch = 5
	opts.Events = fr
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, opts)
	if err != nil {
		t.Fatal(err)
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
		t.Fatal("home did not fence")
	}
	reason := <-tripped
	if !strings.Contains(reason, "fenced") {
		t.Fatalf("trip reason %q does not mention fencing", reason)
	}
	var fence *flight.Event
	for _, e := range fr.Snapshot() {
		if e.Kind == flight.KindFence {
			ev := e
			fence = &ev
		}
	}
	if fence == nil {
		t.Fatalf("no fence event in flight ring: %s", fr.String())
	}
	if fence.A != 99 || fence.B != 5 {
		t.Fatalf("fence operands = (%d, %d), want (seen epoch 99, own epoch 5)", fence.A, fence.B)
	}
	dump := fr.String()
	for _, want := range []string{"fence", "a=99", "b=5"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
}

// TestFlightRecordsGrants checks the steady-state event the ring mostly
// holds: every lock grant lands once, with mutex and payload operands, so
// a post-mortem shows who held what right before the trip.
func TestFlightRecordsGrants(t *testing.T) {
	fr := flight.New(64)
	opts := DefaultOptions()
	opts.Events = fr
	nw := transport.NewInproc()
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	th, err := Dial(nw, "home", platform.LinuxX86, 0, testGThV(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Join(); err != nil {
		t.Fatal(err)
	}
	h.Wait()
	h.Close()
	grants := fr.Filter(flight.KindLockGrant)
	if len(grants) != 1 || grants[0].Rank != 0 || grants[0].A != 0 {
		t.Fatalf("grant events = %+v, want one for rank 0 on mutex 0: %s", grants, fr.String())
	}
}
