package ha

import (
	"sort"
	"sync"
	"time"

	"hetdsm/internal/flight"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// Replicator streams home-state mutations to a standby over one connection
// and implements dsd.Replicator. Record only enqueues (it is called with
// the home mutex held); a sender goroutine ships KindReplicate frames and
// an ack reader advances the cumulative acknowledgement. Flush blocks until
// everything recorded so far is acknowledged — the synchronous-replication
// barrier the home's handlers call before releasing a client — or until
// replication has failed, in which case the home degrades to running
// unreplicated rather than stalling the computation.
type Replicator struct {
	conn     transport.Conn
	counters *Counters
	// Events, when non-nil, records one moment per shipped record and a
	// replicate span (enqueue → acked) for every record carrying trace
	// context, parented to the home's apply span; Node labels them
	// (default "replicator").
	Events *flight.Ring
	Node   string

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []*wire.Replication
	next    uint64 // last sequence number stamped by Record
	acked   uint64 // highest cumulative ack from the standby
	pending map[uint64]pendingSpan
	failed  error
	closed  bool
}

// pendingSpan remembers a traced record's enqueue time until its ack.
type pendingSpan struct {
	rec *wire.Replication
	t0  time.Time
}

// NewReplicator starts replicating over an established connection to a
// Backup's replication listener. counters may be nil.
func NewReplicator(conn transport.Conn, counters *Counters) *Replicator {
	r := &Replicator{conn: conn, counters: counters}
	r.cond = sync.NewCond(&r.mu)
	go r.sender()
	go r.ackReader()
	return r
}

// Record implements dsd.Replicator: stamp the record's log position and
// enqueue it. Called with the home mutex held, so it must not block; the
// stamp order under r.mu matches the mutation order because every caller
// already serializes on the home mutex.
func (r *Replicator) Record(rec *wire.Replication) {
	r.mu.Lock()
	r.next++
	rec.Seq = r.next
	r.queue = append(r.queue, rec)
	if r.Events != nil && rec.TraceID != 0 {
		if r.pending == nil {
			r.pending = make(map[uint64]pendingSpan)
		}
		r.pending[rec.Seq] = pendingSpan{rec: rec, t0: time.Now()}
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if r.counters != nil {
		r.counters.RepRecords.Add(1)
	}
}

// Flush implements dsd.Replicator: block until the standby has acknowledged
// every record enqueued so far, or replication has failed or been closed.
func (r *Replicator) Flush() {
	r.mu.Lock()
	target := r.next
	for r.acked < target && r.failed == nil && !r.closed {
		r.cond.Wait()
	}
	r.mu.Unlock()
}

// Err returns the error that stopped replication, or nil while healthy.
func (r *Replicator) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.failed
}

// Progress returns the replication watermarks — records enqueued and
// records acknowledged by the standby — implementing the stall detector's
// SendProgress: an enqueued count advancing ahead of a frozen ack count is
// the signature of a stalled (not dead) standby.
func (r *Replicator) Progress() (enqueued, acked uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next, r.acked
}

// Abort fails replication from the outside — the stall detector's
// escalation: Flush waiters unblock and the home degrades to running
// unreplicated, so a standby that is alive but not consuming cannot wedge
// every grant behind the durability barrier.
func (r *Replicator) Abort(err error) { r.fail(err) }

// Close stops replication and releases any Flush waiter.
func (r *Replicator) Close() error {
	r.mu.Lock()
	r.closed = true
	r.cond.Broadcast()
	r.mu.Unlock()
	return r.conn.Close()
}

func (r *Replicator) fail(err error) {
	r.mu.Lock()
	if r.failed == nil {
		r.failed = err
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	r.conn.Close()
}

func (r *Replicator) sender() {
	for {
		r.mu.Lock()
		for len(r.queue) == 0 && r.failed == nil && !r.closed {
			r.cond.Wait()
		}
		if r.failed != nil || r.closed {
			r.mu.Unlock()
			return
		}
		rec := r.queue[0]
		r.queue = r.queue[1:]
		r.mu.Unlock()
		frame, err := wire.Encode(&wire.Message{
			Kind:  wire.KindReplicate,
			Seq:   rec.Seq,
			Rank:  rec.Rank,
			Mutex: rec.Mutex,
			Rep:   rec,
		})
		if err == nil {
			err = r.conn.SendFrame(frame)
		}
		if err != nil {
			r.fail(err)
			return
		}
		r.Events.Note("replicator", flight.KindReplicate, rec.Rank, int64(rec.Mutex), int64(rec.DataBytes()), "")
	}
}

func (r *Replicator) ackReader() {
	for {
		frame, err := r.conn.RecvFrame()
		if err != nil {
			r.fail(err)
			return
		}
		m, err := wire.Decode(frame)
		if err != nil || m.Kind != wire.KindReplicateAck || m.Rep == nil {
			r.fail(transport.ErrClosed)
			return
		}
		r.mu.Lock()
		if m.Rep.Seq > r.acked {
			r.acked = m.Rep.Seq
		}
		var done []pendingSpan
		for seq, p := range r.pending {
			if seq <= r.acked {
				done = append(done, p)
				delete(r.pending, seq)
			}
		}
		r.cond.Broadcast()
		r.mu.Unlock()
		if len(done) > 0 && r.Events != nil {
			node := r.Node
			if node == "" {
				node = "replicator"
			}
			sort.Slice(done, func(i, j int) bool { return done[i].rec.Seq < done[j].rec.Seq })
			now := time.Now()
			for _, p := range done {
				r.Events.Span(node, telemetry.StageReplicate, p.rec.Rank, 0,
					p.rec.TraceID, p.rec.ParentSpan, p.t0, now.Sub(p.t0), wire.UpdateBytes(p.rec.Updates))
			}
		}
		if r.counters != nil {
			r.counters.RepAcks.Add(1)
		}
	}
}
