package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrQueueFull is returned by a SendQueue with OverflowShed when a frame
// is enqueued against a full queue: the frame is dropped and the caller
// must retry (safe for idempotent traffic) or treat the conn as broken.
var ErrQueueFull = errors.New("transport: outbound queue full")

// OverflowPolicy says what a full SendQueue does with a new frame.
type OverflowPolicy int

const (
	// OverflowBlock applies backpressure: SendFrame blocks until space
	// frees up or the queue closes. Use for traffic that must not be
	// dropped and whose producers may safely slow down (replication, WAL).
	OverflowBlock OverflowPolicy = iota
	// OverflowShed fails fast with ErrQueueFull: the frame is dropped and
	// the producer keeps running. Use for idempotent request/reply traffic
	// (grants, acks) whose peer re-sends under the same sequence number.
	OverflowShed
)

// SendQueue decouples a producer from a slow peer: frames land on a
// bounded queue drained by one writer goroutine, so a stalled connection
// wedges the writer, not the producer. Depth, send-progress watermarks and
// the age of the oldest unsent frame are exported for /stats and the stall
// detector. RecvFrame passes through untouched.
type SendQueue struct {
	conn     Conn
	policy   OverflowPolicy
	frames   chan queuedFrame
	quit     chan struct{}
	done     chan struct{} // writer exited
	quitOnce sync.Once

	failed atomic.Pointer[error] // sticky writer error

	enqueued atomic.Uint64
	sent     atomic.Uint64
	shed     atomic.Uint64

	mu      sync.Mutex
	pending []time.Time // enqueue times of frames not yet written, oldest first
}

type queuedFrame struct {
	frame []byte
	t0    time.Time
}

// NewSendQueue wraps conn with a queue of the given capacity (minimum 1)
// and overflow policy, and starts the writer goroutine. Close the queue —
// not just the conn — to stop the writer.
func NewSendQueue(conn Conn, capacity int, policy OverflowPolicy) *SendQueue {
	if capacity < 1 {
		capacity = 1
	}
	q := &SendQueue{
		conn:   conn,
		policy: policy,
		frames: make(chan queuedFrame, capacity),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go q.writer()
	return q
}

// SendFrame implements Conn by enqueueing: under OverflowBlock a full
// queue blocks, under OverflowShed it returns ErrQueueFull. A writer that
// already failed reports its sticky error immediately.
func (q *SendQueue) SendFrame(frame []byte) error {
	if err := q.Err(); err != nil {
		return err
	}
	item := queuedFrame{frame: frame, t0: time.Now()}
	// Register the timestamp before the channel send so a stalled writer
	// can never observe a frame without its age entry; unwind on failure.
	q.mu.Lock()
	q.pending = append(q.pending, item.t0)
	q.mu.Unlock()
	unwind := func() {
		q.mu.Lock()
		if n := len(q.pending); n > 0 {
			q.pending = q.pending[:n-1]
		}
		q.mu.Unlock()
	}
	if q.policy == OverflowShed {
		select {
		case q.frames <- item:
		default:
			unwind()
			q.shed.Add(1)
			return ErrQueueFull
		}
	} else {
		select {
		case q.frames <- item:
		case <-q.quit:
			unwind()
			return ErrClosed
		case <-q.done:
			unwind()
			// Writer died; report its sticky error rather than blocking
			// on a queue nobody drains.
			if err := q.Err(); err != nil {
				return err
			}
			return ErrClosed
		}
	}
	q.enqueued.Add(1)
	return nil
}

// RecvFrame implements Conn, reading directly from the wrapped conn.
func (q *SendQueue) RecvFrame() ([]byte, error) { return q.conn.RecvFrame() }

// Close implements Conn: it closes the wrapped conn and stops the writer.
func (q *SendQueue) Close() error {
	q.quitOnce.Do(func() { close(q.quit) })
	err := q.conn.Close()
	<-q.done
	return err
}

// Err returns the writer's sticky failure, or nil while healthy.
func (q *SendQueue) Err() error {
	if p := q.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Depth returns how many frames are enqueued but not yet written.
func (q *SendQueue) Depth() int {
	e, s := q.enqueued.Load(), q.sent.Load()
	if s > e {
		return 0
	}
	return int(e - s)
}

// Progress returns the send-progress watermarks: frames accepted into the
// queue and frames actually written to the conn. A growing gap with a
// frozen sent count is the signature of a stalled (not dead) peer.
func (q *SendQueue) Progress() (enqueued, sent uint64) {
	return q.enqueued.Load(), q.sent.Load()
}

// Shed returns how many frames OverflowShed dropped.
func (q *SendQueue) Shed() uint64 { return q.shed.Load() }

// OldestAge returns how long the oldest unwritten frame has been waiting,
// or zero when the queue is drained.
func (q *SendQueue) OldestAge(now time.Time) time.Duration {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return 0
	}
	if age := now.Sub(q.pending[0]); age > 0 {
		return age
	}
	return 0
}

func (q *SendQueue) writer() {
	defer close(q.done)
	for {
		select {
		case item := <-q.frames:
			err := q.conn.SendFrame(item.frame)
			q.mu.Lock()
			if len(q.pending) > 0 {
				q.pending = q.pending[1:]
			}
			q.mu.Unlock()
			if err != nil {
				e := err
				q.failed.Store(&e)
				return
			}
			q.sent.Add(1)
		case <-q.quit:
			return
		}
	}
}
