package transport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"hetdsm/internal/vclock"
)

// echoServer accepts on l and echoes every frame until the listener closes.
func echoServer(l Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func(c Conn) {
			for {
				f, err := c.RecvFrame()
				if err != nil {
					return
				}
				c.SendFrame(f)
			}
		}(c)
	}
}

// dialPair dials addr through nw and returns both ends.
func dialPair(t *testing.T, nw Network, l Listener) (Conn, Conn) {
	t.Helper()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := nw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	return c, <-accepted
}

func TestFlakyKillsDeterministically(t *testing.T) {
	nw := NewFaults(NewInproc(), FaultPlan{Every: 3})
	l, err := nw.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	a, b := dialPair(t, nw, l)
	// Ops 1,2 succeed; op 3 fails.
	if err := a.SendFrame([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RecvFrame(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendFrame([]byte("two")); err == nil {
		t.Fatal("third operation should have failed")
	}
	if got := nw.Counts(); got.Ops != 3 || got.Kills != 1 {
		t.Errorf("counts = %+v, want 3 ops, 1 kill", got)
	}
}

func TestFlakyRandDeterministicSchedule(t *testing.T) {
	run := func(seed int64) (kills int64, failures []bool) {
		nw := NewFaults(NewInproc(), FaultPlan{P: 0.3, Seed: seed})
		l, err := nw.Listen("x")
		if err != nil {
			t.Fatal(err)
		}
		// The server accepts but never reads: frame ops draw from the
		// shared RNG, so the client's sequential sends must be the only
		// draws for the schedule to be reproducible.
		done := make(chan struct{})
		var held []Conn
		go func() {
			defer close(done)
			for {
				c, err := l.Accept()
				if err != nil {
					return
				}
				held = append(held, c)
			}
		}()
		for i := 0; i < 40; i++ {
			c, err := nw.Dial("x")
			if err != nil {
				t.Fatal(err)
			}
			failures = append(failures, c.SendFrame([]byte("f")) != nil)
			c.Close()
		}
		l.Close()
		<-done
		for _, c := range held {
			c.Close()
		}
		return nw.Counts().Kills, failures
	}
	k1, f1 := run(99)
	k2, f2 := run(99)
	if k1 == 0 {
		t.Fatal("p=0.3 over 40 ops produced no kills")
	}
	if k1 != k2 {
		t.Errorf("same seed, different kill counts: %d vs %d", k1, k2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}

	// p=0 never kills.
	nw := NewFaults(NewInproc(), FaultPlan{Seed: 1})
	l, _ := nw.Listen("x")
	defer l.Close()
	go echoServer(l)
	c, err := nw.Dial("x")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if err := c.SendFrame([]byte("f")); err != nil {
			t.Fatalf("p=0 op %d failed: %v", i, err)
		}
	}
	if k := nw.Counts().Kills; k != 0 {
		t.Errorf("p=0 kills = %d", k)
	}
}

// TestDelayedDeliversUnchanged: whatever the timing plan, every frame
// arrives exactly once, in order, with unchanged bytes.
func TestDelayedDeliversUnchanged(t *testing.T) {
	plans := []FaultPlan{
		{},
		{Latency: 200 * time.Microsecond, Seed: 7},
		{Latency: 300 * time.Microsecond, Dribble: 4, Seed: 7},
		{Latency: 100 * time.Microsecond, StallEvery: 3, StallFor: 500 * time.Microsecond, Seed: 9},
	}
	for pi, plan := range plans {
		nw := NewFaults(NewInproc(), plan)
		l, err := nw.Listen("h")
		if err != nil {
			t.Fatal(err)
		}
		c, srv := dialPair(t, nw, l)
		for i := 0; i < 20; i++ {
			want := []byte{byte(pi), byte(i), byte(i * 3)}
			if err := c.SendFrame(append([]byte(nil), want...)); err != nil {
				t.Fatalf("plan %d send %d: %v", pi, i, err)
			}
			got, err := srv.RecvFrame()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("plan %d frame %d: got %v/%v, want %v", pi, i, got, err, want)
			}
		}
		if plan.StallEvery > 0 && nw.Counts().Stalls == 0 {
			t.Errorf("plan %d: no stall windows served", pi)
		}
		c.Close()
		srv.Close()
		l.Close()
	}
}

// TestDelayedStallResume: Freeze stalls existing conns in both directions;
// Resume releases them; conns dialed during the freeze flow.
func TestDelayedStallResume(t *testing.T) {
	nw := NewFaults(NewInproc(), FaultPlan{})
	l, err := nw.Listen("h")
	if err != nil {
		t.Fatal(err)
	}
	go echoServer(l)
	c, err := nw.Dial("h")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendFrame([]byte("a")); err != nil {
		t.Fatal(err)
	}
	if f, err := c.RecvFrame(); err != nil || string(f) != "a" {
		t.Fatalf("echo: %q, %v", f, err)
	}

	nw.Freeze()
	sent := make(chan error, 1)
	go func() { sent <- c.SendFrame([]byte("b")) }()
	select {
	case err := <-sent:
		t.Fatalf("send on frozen conn returned early: %v", err)
	case <-time.After(30 * time.Millisecond):
	}

	// A fresh dial during the freeze is clean: the fault is per-connection.
	c2, err := nw.Dial("h")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.SendFrame([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if f, err := c2.RecvFrame(); err != nil || string(f) != "c" {
		t.Fatalf("fresh conn echo during freeze: %q, %v", f, err)
	}

	nw.Resume()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("send after resume: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frozen send never resumed")
	}
	if f, err := c.RecvFrame(); err != nil || string(f) != "b" {
		t.Fatalf("echo after resume: %q, %v", f, err)
	}
	c.Close()
	c2.Close()
	l.Close()
}

// TestDelayedCloseUnblocksStalledSend: closing a frozen conn frees its
// blocked sender with ErrClosed — teardown must not leak goroutines.
func TestDelayedCloseUnblocksStalledSend(t *testing.T) {
	nw := NewFaults(NewInproc(), FaultPlan{})
	if _, err := nw.Listen("h"); err != nil {
		t.Fatal(err)
	}
	c, err := nw.Dial("h")
	if err != nil {
		t.Fatal(err)
	}
	nw.Freeze()
	sent := make(chan error, 1)
	go func() { sent <- c.SendFrame([]byte("x")) }()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	select {
	case err := <-sent:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("close never unblocked the frozen send")
	}
}

// TestDelayedVirtualClockDeadline proves the fault network's deadlines run
// on its clock: nothing fires until a virtual clock is advanced past the
// budget, then ErrDeadline lands deterministically without real sleeps.
func TestDelayedVirtualClockDeadline(t *testing.T) {
	clock := vclock.NewVirtual(time.Unix(0, 0))
	inner := NewInproc()
	if _, err := inner.Listen("h"); err != nil {
		t.Fatal(err)
	}
	nw := NewFaults(inner, FaultPlan{Clock: clock})
	c, err := nw.Dial("h")
	if err != nil {
		t.Fatal(err)
	}
	nw.Freeze() // the send can only end via the deadline

	errCh := make(chan error, 1)
	go func() {
		errCh <- SendFrameDeadline(c, []byte{1}, clock.Now().Add(100*time.Millisecond))
	}()
	select {
	case err := <-errCh:
		t.Fatalf("send finished before the virtual deadline: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	clock.Advance(200 * time.Millisecond)
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("got %v, want ErrDeadline", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual deadline never fired")
	}
}

// TestFaultsRegistryForgetsClosedConns: a closed conn leaves the registry,
// so a redial-heavy run does not keep every dead conn (and its inner pipe)
// reachable, and Freeze and Cut still find the live ones.
func TestFaultsRegistryForgetsClosedConns(t *testing.T) {
	nw := NewFaults(NewInproc(), FaultPlan{})
	l, err := nw.Listen("h")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 1000; i++ {
		c, s := dialPair(t, nw, l)
		c.Close()
		s.Close()
	}
	if n := nw.Counts().Live; n != 0 {
		t.Fatalf("%d conns registered after 1000 dial/close cycles, want 0", n)
	}

	c, s := dialPair(t, nw, l)
	nw.Freeze()
	sent := make(chan error, 1)
	go func() { sent <- c.SendFrame([]byte("x")) }()
	select {
	case err := <-sent:
		t.Fatalf("Freeze missed the live conn: send returned %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	nw.Resume()
	if err := <-sent; err != nil {
		t.Fatalf("send after resume: %v", err)
	}
	if f, err := s.RecvFrame(); err != nil || string(f) != "x" {
		t.Fatalf("recv after resume: %q, %v", f, err)
	}
	nw.Cut("h", time.Hour)
	if _, err := s.RecvFrame(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Cut missed the live conn: recv returned %v", err)
	}
	if n := nw.Counts().Live; n != 0 {
		t.Fatalf("%d conns registered after Cut, want 0", n)
	}
}

// TestFaultsCutHeal: Cut severs the address's open conns and fails dials
// to it until the heal elapses; other addresses are untouched.
func TestFaultsCutHeal(t *testing.T) {
	nw := NewFaults(NewInproc(), FaultPlan{})
	for _, addr := range []string{"a", "b"} {
		l, err := nw.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go echoServer(l)
	}
	ca, err := nw.Dial("a")
	if err != nil {
		t.Fatal(err)
	}
	cb, err := nw.Dial("b")
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()

	const heal = 30 * time.Millisecond
	nw.Cut("a", heal)
	if err := ca.SendFrame([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("send on a cut conn: got %v, want ErrClosed", err)
	}
	if _, err := nw.Dial("a"); err == nil {
		t.Fatal("dial to a cut address succeeded")
	}
	if err := cb.SendFrame([]byte("y")); err != nil {
		t.Fatalf("uncut address affected: %v", err)
	}
	if f, err := cb.RecvFrame(); err != nil || string(f) != "y" {
		t.Fatalf("uncut echo: %q, %v", f, err)
	}
	if got := nw.Counts().Cuts; got != 1 {
		t.Errorf("cuts = %d, want 1", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		c, err := nw.Dial("a")
		if err == nil {
			if err := c.SendFrame([]byte("z")); err != nil {
				t.Fatalf("send after heal: %v", err)
			}
			if f, err := c.RecvFrame(); err != nil || string(f) != "z" {
				t.Fatalf("echo after heal: %q, %v", f, err)
			}
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("address never healed: %v", err)
		}
		time.Sleep(heal / 3)
	}
}

// TestFaultsMangle: a non-nil Mangle result replaces the frame on the
// wire and is counted; nil leaves the frame alone.
func TestFaultsMangle(t *testing.T) {
	nw := NewFaults(NewInproc(), FaultPlan{Mangle: func(f []byte) []byte {
		if f[0] != 'm' {
			return nil
		}
		return []byte("mangled")
	}})
	l, err := nw.Listen("h")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, s := dialPair(t, nw, l)
	defer c.Close()
	for _, f := range []string{"keep", "mine"} {
		if err := c.SendFrame([]byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{"keep", "mangled"} {
		if got, err := s.RecvFrame(); err != nil || string(got) != want {
			t.Fatalf("got %q/%v, want %q", got, err, want)
		}
	}
	if got := nw.Counts().Mangled; got != 1 {
		t.Errorf("mangled = %d, want 1", got)
	}
}
