package transport

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"hetdsm/internal/vclock"
)

// FaultPlan configures a Faults network; the zero plan injects nothing. One
// generator seeded with Seed draws P per targeted op and Latency per send.
type FaultPlan struct {
	Seed  int64
	Every int     // > 0: kill every Every-th frame operation network-wide
	P     float64 // kill each frame operation with probability P
	Kinds []byte  // restrict P to sends led by these (wire kind) bytes
	// Latency bounds a seeded per-send delay, paid in Dribble sleeps.
	Latency time.Duration
	Dribble int
	// StallEvery > 0 holds every StallEvery-th send for StallFor.
	StallEvery int
	StallFor   time.Duration
	Mangle     func(frame []byte) []byte // non-nil result replaces the sent frame
	Clock      vclock.Clock              // delays and deadlines; nil: system clock
}

// FaultCounts is what a Faults network has injected so far.
type FaultCounts struct {
	Ops     int64 // frame operations, sends and receives
	Kills   int64 // operations killed by Every or P
	Delayed int64 // sends through the Latency/StallEvery schedule
	Stalls  int64 // full-stall windows served
	Mangled int64 // frames replaced by Mangle
	Cuts    int64 // partitions injected by Cut
	Live    int   // conns open now
}

func (c FaultCounts) String() string {
	return fmt.Sprintf("%d ops, %d killed, %d delayed, %d stalled, %d mangled, %d cuts",
		c.Ops, c.Kills, c.Delayed, c.Stalls, c.Mangled, c.Cuts)
}

// Faults wraps a Network with the faults a DSM must survive: dying links
// (Every, P, Kinds: the op fails with ErrClosed, severing its conn), slow
// links (Latency, Dribble, StallEvery, Freeze), partitions (Cut) and
// corruption (Mangle). Conns are registered until they close, so Freeze
// and Cut reach exactly the live ones. A deadline expiring while a frame
// is held severs the conn with ErrDeadline.
type Faults struct {
	inner Network
	plan  FaultPlan

	mu    sync.Mutex
	rng   *rand.Rand
	n     FaultCounts
	conns map[*faultConn]struct{}
	cut   map[string]bool
}

// NewFaults wraps inner with plan.
func NewFaults(inner Network, plan FaultPlan) *Faults {
	if plan.Clock == nil {
		plan.Clock = vclock.System()
	}
	return &Faults{inner: inner, plan: plan, rng: rand.New(rand.NewSource(plan.Seed)),
		conns: make(map[*faultConn]struct{}), cut: make(map[string]bool)}
}

// Counts snapshots the fault counters.
func (f *Faults) Counts() FaultCounts {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.n
	n.Live = len(f.conns)
	return n
}

// Freeze blocks the conns open now until Resume, a deadline or Close.
// Later conns flow: a wedged socket is not a dead host, so redial-and-
// replay recovers where waiting does not.
func (f *Faults) Freeze() { f.setFrozen(true) }

// Resume releases every frozen conn.
func (f *Faults) Resume() { f.setFrozen(false) }

func (f *Faults) setFrozen(on bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.conns {
		if on && c.frozen == nil {
			c.frozen = make(chan struct{})
		} else if !on && c.frozen != nil {
			close(c.frozen)
			c.frozen = nil
		}
	}
}

// Cut severs addr's open conns and fails dials to it until heal has
// elapsed in real time, whatever the plan's clock.
func (f *Faults) Cut(addr string, heal time.Duration) {
	f.mu.Lock()
	f.n.Cuts++
	f.cut[addr] = true
	var doomed []*faultConn
	for c := range f.conns {
		if c.addr == addr {
			doomed = append(doomed, c)
		}
	}
	f.mu.Unlock()
	for _, c := range doomed {
		c.Close()
	}
	time.AfterFunc(heal, func() {
		f.mu.Lock()
		delete(f.cut, addr)
		f.mu.Unlock()
	})
}

// Listen implements Network.
func (f *Faults) Listen(addr string) (Listener, error) {
	l, err := f.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &faultListener{Listener: l, f: f}, nil
}

// Dial implements Network; it fails while addr is cut.
func (f *Faults) Dial(addr string) (Conn, error) {
	if err := f.partitioned(addr); err != nil {
		return nil, err
	}
	c, err := f.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	fc := f.wrap(c, addr)
	if err := f.partitioned(addr); err != nil { // a Cut raced the dial
		fc.Close()
		return nil, err
	}
	return fc, nil
}

func (f *Faults) partitioned(addr string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cut[addr] {
		return fmt.Errorf("transport: %q partitioned", addr)
	}
	return nil
}

func (f *Faults) wrap(c Conn, addr string) *faultConn {
	fc := &faultConn{inner: c, f: f, addr: addr, down: make(chan struct{})}
	f.mu.Lock()
	f.conns[fc] = struct{}{}
	f.mu.Unlock()
	return fc
}

// decide counts one frame operation and draws its fate: killed, or the
// waits a send pays first (a stall window, then its latency).
func (f *Faults) decide(frame []byte, send bool) (kill bool, waits []time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.plan
	f.n.Ops++
	targeted := len(p.Kinds) == 0 || send && len(frame) > 0 && slices.Contains(p.Kinds, frame[0])
	if p.Every > 0 && f.n.Ops%int64(p.Every) == 0 || p.P > 0 && targeted && f.rng.Float64() < p.P {
		f.n.Kills++
		return true, nil
	}
	if !send || p.Latency <= 0 && p.StallEvery <= 0 {
		return false, nil
	}
	f.n.Delayed++
	if p.StallEvery > 0 && f.n.Delayed%int64(p.StallEvery) == 0 {
		f.n.Stalls++
		waits = append(waits, p.StallFor)
	}
	if p.Latency > 0 {
		d, chunks := time.Duration(f.rng.Int63n(int64(p.Latency))), max(p.Dribble, 1)
		for i := 0; i < chunks && d >= time.Duration(chunks); i++ {
			waits = append(waits, d/time.Duration(chunks))
		}
	}
	return false, waits
}

type faultListener struct {
	Listener
	f *Faults
}

func (l *faultListener) Accept() (Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.f.wrap(c, l.Addr()), nil
}

type faultConn struct {
	inner  Conn
	f      *Faults
	addr   string
	down   chan struct{} // closed by Close
	once   sync.Once
	frozen chan struct{} // under f.mu: non-nil while frozen, closed by Resume
}

// hold waits for ready (nil: no wait), failing with ErrClosed if the conn
// closes first, or severing it with ErrDeadline if expire fires first.
func hold[T any](c *faultConn, ready <-chan T, expire <-chan time.Time) error {
	if ready == nil {
		return nil
	}
	select {
	case <-ready:
		return nil
	case <-c.down:
		return ErrClosed
	case <-expire:
		c.Close()
		return ErrDeadline
	}
}

// enter runs a frame operation's faults up to the wire, returning the
// frame a send puts there: the kill, a freeze, a send's waits, Mangle.
func (c *faultConn) enter(frame []byte, send bool, deadline time.Time) ([]byte, error) {
	var expire <-chan time.Time
	if !deadline.IsZero() {
		expire = c.f.plan.Clock.After(deadline.Sub(c.f.plan.Clock.Now()))
	}
	kill, waits := c.f.decide(frame, send)
	if kill {
		c.Close()
		return nil, ErrClosed
	}
	c.f.mu.Lock()
	frozen := c.frozen
	c.f.mu.Unlock()
	if err := hold(c, frozen, expire); err != nil {
		return nil, err
	}
	for _, d := range waits {
		if err := hold(c, c.f.plan.Clock.After(d), expire); err != nil {
			return nil, err
		}
	}
	if m := c.f.plan.Mangle; send && m != nil {
		if out := m(frame); out != nil {
			c.f.mu.Lock()
			c.f.n.Mangled++
			c.f.mu.Unlock()
			return out, nil
		}
	}
	return frame, nil
}

// SendFrameDeadline implements DeadlineConn; a zero deadline is SendFrame.
func (c *faultConn) SendFrameDeadline(frame []byte, deadline time.Time) error {
	frame, err := c.enter(frame, true, deadline)
	if err != nil {
		return err
	}
	return SendFrameDeadline(c.inner, frame, deadline)
}

// RecvFrameDeadline implements DeadlineConn. Receives pay no delay (the
// sender did) but honor a freeze.
func (c *faultConn) RecvFrameDeadline(deadline time.Time) ([]byte, error) {
	if _, err := c.enter(nil, false, deadline); err != nil {
		return nil, err
	}
	return RecvFrameDeadline(c.inner, deadline)
}

func (c *faultConn) SendFrame(frame []byte) error { return c.SendFrameDeadline(frame, time.Time{}) }
func (c *faultConn) RecvFrame() ([]byte, error)   { return c.RecvFrameDeadline(time.Time{}) }

// Close severs the conn and drops it from the registry.
func (c *faultConn) Close() error {
	c.once.Do(func() { close(c.down) })
	c.f.mu.Lock()
	delete(c.f.conns, c)
	c.f.mu.Unlock()
	return c.inner.Close()
}
