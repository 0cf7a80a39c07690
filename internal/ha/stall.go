package ha

import (
	"fmt"
	"sync"
	"time"

	"hetdsm/internal/flight"
	"hetdsm/internal/vclock"
)

// SendProgress exposes send-side watermarks: how much has been handed to a
// peer's connection and how much the peer has demonstrably consumed.
// ha.Replicator (records enqueued / records acked) implements it.
type SendProgress interface {
	Progress() (enqueued, consumed uint64)
}

// StallDetector watches a peer's send-progress watermarks and declares the
// peer stalled when a backlog stops draining for the stall timeout. It is
// the complement of Detector: a Detector catches dead peers (no pongs), a
// StallDetector catches slow ones — the peer still answers heartbeats on a
// fresh connection while its established one has stopped consuming (a full
// socket buffer, a dead NAT entry, a wedged reader). Both verdicts need
// escalation, because a sender blocked on a stalled peer is as wedged as
// one blocked on a dead peer; the stall verdict is merely reversible.
type StallDetector struct {
	src      SendProgress
	addr     string
	interval time.Duration
	timeout  time.Duration

	// OnStall, when set, runs once per stall episode (re-armed when
	// progress resumes). Escalation hooks go here: aborting a wedged
	// replicator, or kicking a client connection onto the failover path.
	OnStall func(addr string, reason error)
	// View, when set, receives stalled/alive transitions.
	View *View
	// Counters, when set, receives stall counts.
	Counters *Counters
	// Events, when non-nil, records stall events.
	Events *flight.Ring
	// Clock provides sample timing; nil means the system clock. Tests
	// drive stalls deterministically with a vclock.Virtual.
	Clock vclock.Clock

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewStallDetector builds a detector sampling src every interval and
// declaring addr stalled after timeout without consumption progress while
// a backlog exists. Start it with Start.
func NewStallDetector(src SendProgress, addr string, interval, timeout time.Duration) *StallDetector {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	if timeout <= interval {
		timeout = 4 * interval
	}
	return &StallDetector{
		src:      src,
		addr:     addr,
		interval: interval,
		timeout:  timeout,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the sampling loop; unlike Detector it keeps running after
// a verdict (stalls are reversible) until Stop.
func (d *StallDetector) Start() { go d.run() }

// Stop terminates the sampling loop and waits for it.
func (d *StallDetector) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

// Done is closed when the sampling loop has exited.
func (d *StallDetector) Done() <-chan struct{} { return d.done }

func (d *StallDetector) run() {
	defer close(d.done)
	clock := d.Clock
	if clock == nil {
		clock = vclock.System()
	}
	// lastMove is the last time the peer demonstrated consumption — the
	// consumed watermark advanced, or there was nothing owed to it.
	lastMove := clock.Now()
	var lastConsumed uint64
	stalled := false
	ticker := clock.Ticker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.Chan():
			enq, consumed := d.src.Progress()
			now := clock.Now()
			if consumed != lastConsumed || enq <= consumed {
				// Draining, or nothing outstanding: healthy.
				lastConsumed = consumed
				lastMove = now
				if stalled {
					stalled = false
					if d.View != nil {
						d.View.set(d.addr, StateAlive)
					}
				}
				continue
			}
			if !stalled && now.Sub(lastMove) > d.timeout {
				stalled = true
				d.declare(enq, consumed, now.Sub(lastMove))
			}
		}
	}
}

func (d *StallDetector) declare(enq, consumed uint64, idle time.Duration) {
	reason := fmt.Errorf("ha: %s stalled: %d sent, %d consumed, no progress in %v",
		d.addr, enq, consumed, idle)
	if d.Counters != nil {
		d.Counters.Stalls.Add(1)
	}
	d.Events.Note("stall-detector", flight.KindSuspect, -1, -1, int64(enq-consumed), d.addr)
	if d.View != nil {
		d.View.set(d.addr, StateStalled)
	}
	if d.OnStall != nil {
		d.OnStall(d.addr, reason)
	}
}
