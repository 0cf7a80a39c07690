package ha

import (
	"fmt"
	"sync"
	"time"

	"hetdsm/internal/flight"
	"hetdsm/internal/transport"
	"hetdsm/internal/vclock"
	"hetdsm/internal/wire"
)

// NodeState is a monitored node's health as the failure detector sees it.
type NodeState int

const (
	// StateUnknown means the node has never answered a probe.
	StateUnknown NodeState = iota
	// StateAlive means the node answered a probe recently.
	StateAlive
	// StateSuspect means the node missed the suspicion timeout. The
	// detector cannot distinguish a crashed node from a slow or
	// partitioned one; suspicion is a local verdict, not ground truth.
	StateSuspect
	// StateStalled means the node still answers probes (it is not dead)
	// but has stopped consuming what we send it: the send-progress
	// watermarks show a backlog with no drain for the stall timeout. A
	// stalled peer needs the same escalation as a dead one — waiting on it
	// wedges the sender — but the verdict is reversible: progress resuming
	// returns it to alive.
	StateStalled
)

// String returns "unknown", "alive", "suspect" or "stalled".
func (s NodeState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateStalled:
		return "stalled"
	}
	return "unknown"
}

// View is a membership view: the health of every monitored address, with
// change callbacks. Detectors feed it; failover logic watches it.
type View struct {
	mu       sync.Mutex
	nodes    map[string]NodeState
	watchers []func(addr string, s NodeState)
}

// NewView returns an empty membership view.
func NewView() *View {
	return &View{nodes: make(map[string]NodeState)}
}

// Watch registers a callback invoked on every state transition. Callbacks
// run synchronously on the detector goroutine and must not block.
func (v *View) Watch(fn func(addr string, s NodeState)) {
	v.mu.Lock()
	v.watchers = append(v.watchers, fn)
	v.mu.Unlock()
}

// State returns the recorded state of addr.
func (v *View) State(addr string) NodeState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.nodes[addr]
}

// set records a transition and notifies watchers; no-op if unchanged.
func (v *View) set(addr string, s NodeState) {
	v.mu.Lock()
	if v.nodes[addr] == s {
		v.mu.Unlock()
		return
	}
	v.nodes[addr] = s
	var watchers []func(string, NodeState)
	watchers = append(watchers, v.watchers...)
	v.mu.Unlock()
	for _, fn := range watchers {
		fn(addr, s)
	}
}

// Detector probes one address with KindPing heartbeats and declares it
// suspect when no pong arrives within the suspicion timeout. It probes the
// node's real serving path — a home answers pings from the same accept loop
// that serves DSD traffic — so a wedged listener is as suspect as a dead
// process.
type Detector struct {
	nw       transport.Network
	addr     string
	interval time.Duration
	timeout  time.Duration

	// OnSuspect, when set, runs once when the address is declared
	// suspect; the detector stops afterwards.
	OnSuspect func(addr string, reason error)
	// View, when set, receives alive/suspect transitions.
	View *View
	// Counters, when set, receives heartbeat/suspicion counts.
	Counters *Counters
	// Events, when non-nil, records suspect events.
	Events *flight.Ring
	// Clock provides probe timing; nil means the system clock. Tests
	// drive suspicion deterministically with a vclock.Virtual instead of
	// sleeping past real timeouts.
	Clock vclock.Clock

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// NewDetector builds a detector probing addr every interval, suspecting
// after timeout without a pong. Start it with Start.
func NewDetector(nw transport.Network, addr string, interval, timeout time.Duration) *Detector {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	if timeout <= interval {
		timeout = 4 * interval
	}
	return &Detector{
		nw:       nw,
		addr:     addr,
		interval: interval,
		timeout:  timeout,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the probe loop; it runs until Stop or until the address is
// declared suspect.
func (d *Detector) Start() { go d.run() }

// Stop terminates the probe loop without a verdict and waits for it.
func (d *Detector) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
}

// Done is closed when the probe loop has exited (suspicion or Stop).
func (d *Detector) Done() <-chan struct{} { return d.done }

func (d *Detector) run() {
	defer close(d.done)
	clock := d.Clock
	if clock == nil {
		clock = vclock.System()
	}
	lastOK := clock.Now()
	var conn transport.Conn
	var pongs chan uint64
	var seq uint64
	ticker := clock.Ticker(d.interval)
	defer ticker.Stop()
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	for {
		select {
		case <-d.stop:
			return
		case _, ok := <-pongs:
			if !ok {
				// Reader died with its connection; redial on next tick.
				conn.Close()
				conn, pongs = nil, nil
				continue
			}
			lastOK = clock.Now()
			if d.Counters != nil {
				d.Counters.Pongs.Add(1)
			}
			if d.View != nil {
				d.View.set(d.addr, StateAlive)
			}
		case <-ticker.Chan():
			if clock.Now().Sub(lastOK) > d.timeout {
				d.suspect(fmt.Errorf("ha: no pong from %s in %v", d.addr, d.timeout))
				return
			}
			if conn == nil {
				c, err := d.nw.Dial(d.addr)
				if err != nil {
					continue // counts toward the timeout via lastOK
				}
				conn = c
				pongs = make(chan uint64, 16)
				go readPongs(c, pongs)
			}
			seq++
			frame, err := wire.Encode(&wire.Message{Kind: wire.KindPing, Seq: seq, Rank: -1, Mutex: -1})
			if err != nil {
				continue
			}
			if err := conn.SendFrame(frame); err != nil {
				conn.Close()
				conn, pongs = nil, nil
			} else if d.Counters != nil {
				d.Counters.HeartbeatsSent.Add(1)
			}
		}
	}
}

func (d *Detector) suspect(reason error) {
	if d.Counters != nil {
		d.Counters.Suspicions.Add(1)
	}
	d.Events.Note("detector", flight.KindSuspect, -1, -1, 0, d.addr)
	if d.View != nil {
		d.View.set(d.addr, StateSuspect)
	}
	if d.OnSuspect != nil {
		d.OnSuspect(d.addr, reason)
	}
}

// readPongs forwards pong sequence numbers until the connection dies, then
// closes the channel.
func readPongs(c transport.Conn, out chan<- uint64) {
	defer close(out)
	for {
		frame, err := c.RecvFrame()
		if err != nil {
			return
		}
		m, err := wire.Decode(frame)
		if err != nil || m.Kind != wire.KindPong {
			return
		}
		select {
		case out <- m.Seq:
		default: // probe loop is behind; dropping a pong is fine
		}
	}
}
