package transport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// exerciseConnPair runs a generic send/recv battery over any connected pair.
func exerciseConnPair(t *testing.T, a, b Conn) {
	t.Helper()
	// Simple request/response.
	if err := a.SendFrame([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
	// Ordering: many frames arrive in send order.
	const n = 100
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := b.SendFrame([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		f, err := a.RecvFrame()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("frame-%03d", i); string(f) != want {
			t.Fatalf("frame %d = %q, want %q", i, f, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Large frame survives intact.
	big := bytes.Repeat([]byte{0xAB}, 1<<20)
	go func() { _ = a.SendFrame(big) }()
	f, err := b.RecvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f, big) {
		t.Fatal("large frame corrupted")
	}
	// Close: receiver unblocks with ErrClosed.
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	errCh := make(chan error, 1)
	go func() {
		for {
			if _, err := b.RecvFrame(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("recv after close: %v, want ErrClosed", err)
		}
	case <-deadline:
		t.Fatal("RecvFrame did not unblock after close")
	}
}

func TestPipeConnPair(t *testing.T) {
	a, b := Pipe()
	exerciseConnPair(t, a, b)
}

func TestTCPConnPair(t *testing.T) {
	var nw TCP
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	a, err := nw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	exerciseConnPair(t, a, b)
}

func TestInprocListenDial(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() != "home" {
		t.Errorf("Addr = %q", l.Addr())
	}
	accepted := make(chan Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	a, err := n.Dial("home")
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	exerciseConnPair(t, a, b)
}

func TestInprocDuplicateListen(t *testing.T) {
	n := NewInproc()
	if _, err := n.Listen("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("x"); err == nil {
		t.Error("duplicate listen must fail")
	}
}

func TestInprocDialUnknown(t *testing.T) {
	n := NewInproc()
	if _, err := n.Dial("nowhere"); err == nil {
		t.Error("dial to unknown address must fail")
	}
}

func TestInprocListenerClose(t *testing.T) {
	n := NewInproc()
	l, err := n.Listen("x")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		errCh <- err
	}()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Accept after close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Accept did not unblock")
	}
	// The name is free again.
	if _, err := n.Listen("x"); err != nil {
		t.Errorf("re-listen after close: %v", err)
	}
}

func TestPipeDrainAfterClose(t *testing.T) {
	a, b := Pipe()
	if err := a.SendFrame([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// The frame sent before close must still be deliverable.
	f, err := b.RecvFrame()
	if err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if string(f) != "last words" {
		t.Errorf("drained %q", f)
	}
	if _, err := b.RecvFrame(); !errors.Is(err, ErrClosed) {
		t.Errorf("post-drain recv: %v, want ErrClosed", err)
	}
	if err := b.SendFrame([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close: %v, want ErrClosed", err)
	}
}

func TestTCPFrameSizeLimit(t *testing.T) {
	var nw TCP
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err == nil {
			defer c.Close()
			_, _ = c.RecvFrame()
		}
	}()
	c, err := nw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendFrame(make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame accepted")
	}
}

func TestConcurrentSenders(t *testing.T) {
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
	a, err := nw.Dial(l.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b := <-accepted
	defer a.Close()

	// Many goroutines share one conn; frames must never interleave.
	const senders, per = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			payload := bytes.Repeat([]byte{byte(s)}, 1000+s)
			for i := 0; i < per; i++ {
				if err := a.SendFrame(payload); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	go func() { wg.Wait(); a.Close() }()
	count := 0
	for {
		f, err := b.RecvFrame()
		if err != nil {
			break
		}
		if len(f) < 1000 || len(f) >= 1000+senders {
			t.Fatalf("frame of unexpected size %d", len(f))
		}
		want := f[0]
		if len(f) != 1000+int(want) {
			t.Fatalf("frame size %d does not match tag %d", len(f), want)
		}
		for _, bb := range f {
			if bb != want {
				t.Fatal("frame bytes interleaved")
			}
		}
		count++
	}
	if count != senders*per {
		t.Errorf("received %d frames, want %d", count, senders*per)
	}
}
