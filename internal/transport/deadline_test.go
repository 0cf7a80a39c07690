package transport

import (
	"errors"
	"testing"
	"time"
)

// TestPipeDeadlineExpires: a pipe whose peer never drains fills its buffer;
// a deadline-bounded send must fail with ErrDeadline and sever the conn.
func TestPipeDeadlineExpires(t *testing.T) {
	a, _ := Pipe()
	// Fill the 64-frame buffer without a reader.
	for i := 0; i < 64; i++ {
		if err := a.SendFrame([]byte{1}); err != nil {
			t.Fatalf("buffered send %d: %v", i, err)
		}
	}
	start := time.Now()
	err := SendFrameDeadline(a, []byte{2}, time.Now().Add(20*time.Millisecond))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("send into full pipe: got %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}
	// The conn is severed per the DeadlineConn contract.
	if err := a.SendFrame([]byte{3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after missed deadline: got %v, want ErrClosed", err)
	}
}

// TestPipeRecvDeadline: receive with nothing inbound times out; buffered
// frames are still delivered ahead of the deadline check.
func TestPipeRecvDeadline(t *testing.T) {
	a, b := Pipe()
	if _, err := RecvFrameDeadline(b, time.Now().Add(10*time.Millisecond)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("recv with empty pipe: want ErrDeadline")
	}
	// b is now severed; a fresh pair shows buffered delivery wins.
	a, b = Pipe()
	if err := a.SendFrame([]byte("x")); err != nil {
		t.Fatal(err)
	}
	f, err := RecvFrameDeadline(b, time.Now().Add(10*time.Millisecond))
	if err != nil || string(f) != "x" {
		t.Fatalf("buffered recv: %q, %v", f, err)
	}
}

// TestDeadlineHelpersFallBack: a Conn without deadline support (or a zero
// deadline) gets plain unbounded semantics from the helpers.
type plainConn struct{ Conn }

func TestDeadlineHelpersFallBack(t *testing.T) {
	a, b := Pipe()
	pa := plainConn{a}
	if err := SendFrameDeadline(pa, []byte("y"), time.Now().Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	f, err := RecvFrameDeadline(plainConn{b}, time.Time{})
	if err != nil || string(f) != "y" {
		t.Fatalf("fallback recv: %q, %v", f, err)
	}
}

// TestTCPDeadlines drives real socket deadlines: an unread TCP stream
// eventually exerts backpressure and the write deadline fires; a read with
// no inbound data fires the read deadline; both sever the conn.
func TestTCPDeadlines(t *testing.T) {
	var nw TCP
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
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
	server := <-accepted
	defer server.Close()

	// Read deadline with a silent peer.
	if _, err := RecvFrameDeadline(c, time.Now().Add(30*time.Millisecond)); !errors.Is(err, ErrDeadline) {
		t.Fatalf("tcp recv: got %v, want ErrDeadline", err)
	}
	// The conn was severed; the server side notices.
	if _, err := server.RecvFrame(); err == nil {
		t.Fatal("server read from severed conn succeeded")
	}
}

// TestTCPWriteDeadlineFires fills the socket until the write deadline
// trips, proving a stalled reader cannot block a deadline-bounded sender.
func TestTCPWriteDeadlineFires(t *testing.T) {
	var nw TCP
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
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
	server := <-accepted
	defer server.Close() // never reads: the classic wedged peer

	frame := make([]byte, 1<<20)
	var sawDeadline bool
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < 256 && time.Now().Before(deadline); i++ {
		err := SendFrameDeadline(c, frame, time.Now().Add(50*time.Millisecond))
		if errors.Is(err, ErrDeadline) {
			sawDeadline = true
			break
		}
		if err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if !sawDeadline {
		t.Fatal("write deadline never fired against a non-reading peer")
	}
	if err := c.SendFrame([]byte{1}); err == nil {
		t.Fatal("send on severed conn succeeded")
	}
}
