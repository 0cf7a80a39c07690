package transport

import (
	"errors"
	"testing"
	"time"
)

// TestSendQueueDelivers: frames flow through the queue in order.
func TestSendQueueDelivers(t *testing.T) {
	a, b := Pipe()
	q := NewSendQueue(a, 8, OverflowShed)
	for i := 0; i < 5; i++ {
		if err := q.SendFrame([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		f, err := b.RecvFrame()
		if err != nil || len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("frame %d: %v %v", i, f, err)
		}
	}
	enq, sent := q.Progress()
	if enq != 5 || sent != 5 {
		t.Fatalf("progress: %d/%d, want 5/5", enq, sent)
	}
	if q.Depth() != 0 || q.OldestAge(time.Now()) != 0 {
		t.Fatalf("drained queue reports depth %d age %v", q.Depth(), q.OldestAge(time.Now()))
	}
	q.Close()
}

// TestSendQueueShedsWhenFull: with a stalled peer the shed policy drops
// overflow frames with ErrQueueFull instead of blocking the producer, and
// the watermarks expose the stall (enqueued frozen ahead of sent).
func TestSendQueueShedsWhenFull(t *testing.T) {
	inner := NewInproc()
	d := NewFaults(inner, FaultPlan{})
	if _, err := d.Listen("h"); err != nil {
		t.Fatal(err)
	}
	c, err := d.Dial("h")
	if err != nil {
		t.Fatal(err)
	}
	d.Freeze() // writer will wedge on the first frame
	q := NewSendQueue(c, 2, OverflowShed)

	// First frame occupies the writer; two fill the queue; more must shed.
	deadline := time.Now().Add(5 * time.Second)
	shed := false
	for time.Now().Before(deadline) {
		err := q.SendFrame([]byte{1})
		if errors.Is(err, ErrQueueFull) {
			shed = true
			break
		}
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
	}
	if !shed {
		t.Fatal("full queue never shed")
	}
	if q.Shed() == 0 {
		t.Fatal("shed counter not advanced")
	}
	enq, sent := q.Progress()
	if enq <= sent {
		t.Fatalf("stalled queue shows no backlog: %d/%d", enq, sent)
	}
	if age := q.OldestAge(time.Now().Add(time.Second)); age <= 0 {
		t.Fatalf("oldest-unsent age %v on a stalled queue", age)
	}
	d.Resume()
	q.Close()
}

// TestSendQueueBlockPolicy: the block policy applies backpressure and is
// released when the writer drains, and a dead conn surfaces its error to
// blocked producers rather than hanging them.
func TestSendQueueBlockPolicy(t *testing.T) {
	a, b := Pipe()
	q := NewSendQueue(a, 1, OverflowBlock)
	// The pipe buffers 64 frames, so pump enough to need draining.
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 80; i++ {
			if err := q.SendFrame(make([]byte, 1)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := 0
	for got < 80 {
		if _, err := b.RecvFrame(); err != nil {
			t.Fatal(err)
		}
		got++
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Kill the conn: a producer blocked on a full queue must error out.
	a2, _ := Pipe()
	q2 := NewSendQueue(a2, 1, OverflowBlock)
	a2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := q2.SendFrame([]byte{1}); err != nil {
			q2.Close()
			return // surfaced, no hang
		}
	}
	t.Fatal("producer never saw the dead conn")
}
