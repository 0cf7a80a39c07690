package transport

import (
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"
)

func TestBackoffDelayShape(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond, Factor: 2, Attempts: 10}
	// Without jitter the schedule is exact: 0, 1ms, 2ms, 4ms, 8ms, 8ms...
	want := []time.Duration{0, time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond,
		8 * time.Millisecond, 8 * time.Millisecond, 8 * time.Millisecond}
	for i, w := range want {
		if got := b.Delay(i, nil); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}

	// Jitter only shrinks the delay, never grows or negates it.
	b.Jitter = 0.3
	rng := rand.New(rand.NewSource(1))
	for i := 1; i < 20; i++ {
		d := b.Delay(i, rng)
		full := b.Delay(i, nil)
		if d > full || d < time.Duration(float64(full)*0.7)-time.Nanosecond {
			t.Errorf("jittered Delay(%d) = %v, outside [%v, %v]", i, d, time.Duration(float64(full)*0.7), full)
		}
	}

	// Identical seeds give identical schedules.
	a1, a2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		if d1, d2 := b.Delay(i, a1), b.Delay(i, a2); d1 != d2 {
			t.Fatalf("same-seed Delay(%d) diverged: %v vs %v", i, d1, d2)
		}
	}
}

// echoServe answers every received frame with itself until the listener
// closes; conns counts accepted connections.
func echoServe(l Listener, conns *atomic.Int64) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		conns.Add(1)
		go func() {
			defer c.Close()
			for {
				f, err := c.RecvFrame()
				if err != nil {
					return
				}
				if err := c.SendFrame(f); err != nil {
					return
				}
			}
		}()
	}
}

func fastPolicy() Backoff {
	return Backoff{Base: 100 * time.Microsecond, Max: time.Millisecond, Factor: 2, Attempts: 20, Seed: 1}
}

func TestReconnHealsSendAfterSever(t *testing.T) {
	nw := NewInproc()
	l, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var conns atomic.Int64
	go echoServe(l, &conns)

	var hooks atomic.Int64
	r := NewReconn(nw, []string{"a"}, fastPolicy())
	r.OnConnect = func(c Conn) error { hooks.Add(1); return nil }
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	if r.Reconnects() != 0 {
		t.Errorf("initial dial counted as reconnect: %d", r.Reconnects())
	}

	if err := r.SendFrame([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if f, err := r.RecvFrame(); err != nil || string(f) != "one" {
		t.Fatalf("echo = %q, %v", f, err)
	}

	// Sever the live conn out from under the client; the next send heals.
	r.mu.Lock()
	r.cur.Close()
	r.mu.Unlock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := r.SendFrame([]byte("two")); err == nil {
			if f, err := r.RecvFrame(); err == nil && string(f) == "two" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("send never healed after sever")
		}
	}
	if r.Reconnects() == 0 {
		t.Error("healing did not count as a reconnect")
	}
	if hooks.Load() < 2 {
		t.Errorf("OnConnect ran %d times, want one per dial", hooks.Load())
	}
	if conns.Load() < 2 {
		t.Errorf("server saw %d conns, want at least 2", conns.Load())
	}
}

func TestReconnRecvNeverRedials(t *testing.T) {
	nw := NewInproc()
	l, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var conns atomic.Int64
	go echoServe(l, &conns)

	r := NewReconn(nw, []string{"a"}, fastPolicy())
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	dials := r.Attempts()
	r.mu.Lock()
	r.cur.Close()
	r.mu.Unlock()
	if _, err := r.RecvFrame(); err == nil {
		t.Fatal("recv on a severed conn succeeded")
	}
	// A second recv on the now-broken conn must fail fast, not dial.
	if _, err := r.RecvFrame(); err == nil {
		t.Fatal("recv redialed behind the caller's back")
	}
	if r.Attempts() != dials {
		t.Errorf("recv triggered %d extra dial attempts", r.Attempts()-dials)
	}
}

func TestReconnFailsOverAcrossAddresses(t *testing.T) {
	nw := NewInproc()
	la, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	var connsA, connsB atomic.Int64
	go echoServe(la, &connsA)

	r := NewReconn(nw, []string{"a", "b"}, fastPolicy())
	if err := r.SendFrame([]byte("x")); err != nil { // lazy first dial lands on "a"
		t.Fatal(err)
	}

	// "a" dies for good; "b" comes up. The next sends must migrate.
	la.Close()
	r.mu.Lock()
	r.cur.Close()
	r.mu.Unlock()
	lb, err := nw.Listen("b")
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	go echoServe(lb, &connsB)

	deadline := time.Now().Add(5 * time.Second)
	for connsB.Load() == 0 {
		r.SendFrame([]byte("y")) // errors while cycling are expected
		if time.Now().After(deadline) {
			t.Fatal("reconn never failed over to the second address")
		}
	}
	if err := r.SendFrame([]byte("z")); err != nil {
		t.Fatalf("send after failover: %v", err)
	}
	// Probe "y" frames sent while cycling are echoed first; drain to "z".
	for i := 0; ; i++ {
		f, err := r.RecvFrame()
		if err != nil {
			t.Fatalf("echo after failover: %v", err)
		}
		if string(f) == "z" {
			break
		}
		if i > 1000 {
			t.Fatal("echo of z never arrived")
		}
	}
	if r.Addr() != "b" {
		t.Errorf("live address = %q, want %q", r.Addr(), "b")
	}
}

func TestReconnSetAddrsForcesRedial(t *testing.T) {
	nw := NewInproc()
	la, _ := nw.Listen("a")
	lb, _ := nw.Listen("b")
	defer la.Close()
	defer lb.Close()
	var connsA, connsB atomic.Int64
	go echoServe(la, &connsA)
	go echoServe(lb, &connsB)

	r := NewReconn(nw, []string{"a"}, fastPolicy())
	if err := r.SendFrame([]byte("x")); err != nil {
		t.Fatal(err)
	}
	r.SetAddrs([]string{"b"})
	if err := r.SendFrame([]byte("y")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for connsB.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server b saw %d conns, want 1", connsB.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if got := r.Addrs(); len(got) != 1 || got[0] != "b" {
		t.Errorf("Addrs() = %v, want [b]", got)
	}
}

func TestReconnClosedIsTerminal(t *testing.T) {
	nw := NewInproc()
	l, _ := nw.Listen("a")
	defer l.Close()
	var conns atomic.Int64
	go echoServe(l, &conns)

	r := NewReconn(nw, []string{"a"}, fastPolicy())
	if err := r.Connect(); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if err := r.SendFrame([]byte("x")); err == nil {
		t.Error("send after Close succeeded")
	}
	if _, err := r.RecvFrame(); err == nil {
		t.Error("recv after Close succeeded")
	}
}

// TestReconnRedialStopsAtDeadline: a deadline-bounded send over a conn that
// must redial spends no more than its budget. With every dial failing, the
// default policy's 40-dial backoff cycle takes seconds; the send must give
// up at its 5 ms deadline with an error wrapping ErrDeadline, while an
// unbounded send still runs the policy's whole cycle.
func TestReconnRedialStopsAtDeadline(t *testing.T) {
	r := NewReconn(NewInproc(), []string{"nowhere"}, DefaultBackoff())
	defer r.Close()
	deadline := time.Now().Add(5 * time.Millisecond)
	errc := make(chan error, 1)
	go func() { errc <- r.SendFrameDeadline([]byte("x"), deadline) }()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("redial past its budget returned %v, want ErrDeadline", err)
		}
		if late := time.Since(deadline); late > 20*time.Millisecond {
			t.Errorf("send returned %v after its deadline", late)
		}
	case <-time.After(time.Second):
		t.Fatal("send slept through the redial cycle past its deadline")
	}
	if r.Attempts() == 0 {
		t.Error("no dial ran inside the budget")
	}

	policy := fastPolicy()
	policy.Attempts = 5
	u := NewReconn(NewInproc(), []string{"nowhere"}, policy)
	defer u.Close()
	if err := u.SendFrameDeadline([]byte("x"), time.Time{}); err == nil || errors.Is(err, ErrDeadline) {
		t.Fatalf("unbounded send returned %v, want the exhausted-cycle error", err)
	}
	if got := u.Attempts(); got != 5 {
		t.Errorf("unbounded send dialed %d times, want the policy's 5", got)
	}
}
