package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Backoff is a capped exponential backoff policy with jitter. The zero
// value is not useful; start from DefaultBackoff.
type Backoff struct {
	// Base is the delay before the second attempt (the first retries
	// immediately).
	Base time.Duration
	// Max caps the delay between attempts.
	Max time.Duration
	// Factor multiplies the delay after each failed attempt.
	Factor float64
	// Jitter is the fraction of the delay randomized away (0..1): the
	// actual sleep is uniform in [d*(1-Jitter), d], decorrelating
	// reconnect storms after a home failure.
	Jitter float64
	// Attempts bounds the number of connection attempts per Redial.
	Attempts int
	// Seed makes the jitter deterministic for tests; 0 seeds from the
	// policy values themselves (still deterministic).
	Seed int64
}

// DefaultBackoff returns the reconnect policy used by HA clients: start at
// 1ms, double up to 100ms, 30% jitter, up to 40 attempts (several seconds
// of patience, enough to ride out a backup promotion).
func DefaultBackoff() Backoff {
	return Backoff{Base: time.Millisecond, Max: 100 * time.Millisecond, Factor: 2, Jitter: 0.3, Attempts: 40}
}

// Delay returns the sleep before attempt number attempt (0-based); the
// rng supplies jitter.
func (b Backoff) Delay(attempt int, rng *rand.Rand) time.Duration {
	if attempt <= 0 {
		return 0
	}
	d := float64(b.Base)
	for i := 1; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	if b.Jitter > 0 && rng != nil {
		d -= rng.Float64() * b.Jitter * d
	}
	return time.Duration(d)
}

// Reconn is a Conn that survives its underlying connection dying: a failed
// SendFrame marks the conn broken, and the next SendFrame transparently
// redials — cycling through the candidate addresses with capped exponential
// backoff and jitter — then runs the OnConnect hook (a protocol layer's
// re-handshake) before transmitting. RecvFrame never redials: a request
// that died with its connection cannot receive its reply, so the error
// surfaces to the caller, whose retry loop re-sends the request (which
// heals the conn).
type Reconn struct {
	nw     Network
	policy Backoff

	mu     sync.Mutex
	addrs  []string
	gen    uint64 // bumped by SetAddrs; ensure() discards dials from older lists
	cur    Conn
	broken bool
	closed bool
	rng    *rand.Rand

	// OnConnect, when set, runs over every freshly dialed connection
	// before Reconn exposes it; a failure discards the connection and
	// counts as a failed attempt. It must use the raw Conn it is given,
	// not the Reconn.
	OnConnect func(Conn) error

	reconnects atomic.Uint64
	attempts   atomic.Uint64
}

// NewReconn returns a reconnecting conn that dials the addresses in order
// (wrapping around) until one accepts. No connection is made until the
// first SendFrame.
func NewReconn(nw Network, addrs []string, policy Backoff) *Reconn {
	seed := policy.Seed
	if seed == 0 {
		seed = int64(policy.Attempts+1)*1000003 + int64(policy.Base)
	}
	if policy.Attempts <= 0 {
		policy.Attempts = 1
	}
	return &Reconn{
		nw:     nw,
		policy: policy,
		addrs:  append([]string(nil), addrs...),
		broken: true, // no conn yet; first use dials
		rng:    rand.New(rand.NewSource(seed)),
	}
}

// Reconnects returns how many times a fresh connection replaced a dead one
// (the initial dial is not counted).
func (r *Reconn) Reconnects() uint64 {
	n := r.reconnects.Load()
	if n == 0 {
		return 0
	}
	return n - 1
}

// Attempts returns the total number of dial attempts, successful or not.
func (r *Reconn) Attempts() uint64 { return r.attempts.Load() }

// SetAddrs replaces the candidate address list (e.g. after a redirect
// names a new home) and forces a redial on next use. The generation bump
// invalidates any ensure() in flight: a dial that raced this call and
// connected to an address from the old list is discarded rather than
// installed, so the redirect cannot be silently undone.
func (r *Reconn) SetAddrs(addrs []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addrs = append([]string(nil), addrs...)
	r.gen++
	if r.cur != nil {
		r.cur.Close()
	}
	r.broken = true
}

// Addrs returns a copy of the current candidate address list.
func (r *Reconn) Addrs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.addrs...)
}

// Addr returns the address of the live connection's target, or "".
func (r *Reconn) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.broken || len(r.addrs) == 0 {
		return ""
	}
	return r.addrs[0]
}

// ensure returns a live Conn, redialing with backoff if the previous one
// broke. A nonzero deadline is the caller's attempt budget: no backoff
// sleep runs past it and no dial starts after it, and a redial it cuts
// short fails with an error wrapping ErrDeadline. Callers must not hold
// r.mu.
func (r *Reconn) ensure(deadline time.Time) (Conn, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if !r.broken && r.cur != nil {
		c := r.cur
		r.mu.Unlock()
		return c, nil
	}
	if r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	addrs := append([]string(nil), r.addrs...)
	gen := r.gen
	r.mu.Unlock()
	if len(addrs) == 0 {
		return nil, fmt.Errorf("transport: reconn has no addresses")
	}

	var lastErr error
	for attempt := 0; attempt < r.policy.Attempts; attempt++ {
		r.mu.Lock()
		closed := r.closed
		if r.gen != gen {
			// SetAddrs replaced the candidate list mid-loop (a redirect);
			// retarget the remaining attempts at the fresh list.
			addrs = append([]string(nil), r.addrs...)
			gen = r.gen
		}
		d := r.policy.Delay(attempt, r.rng)
		r.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		if !deadline.IsZero() {
			d = min(d, time.Until(deadline))
		}
		if d > 0 {
			time.Sleep(d)
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			return nil, fmt.Errorf("transport: redial stopped at its deadline after %d dials (last: %v): %w", attempt, lastErr, ErrDeadline)
		}
		if len(addrs) == 0 {
			lastErr = fmt.Errorf("transport: reconn has no addresses")
			continue
		}
		addr := addrs[attempt%len(addrs)]
		r.attempts.Add(1)
		c, err := r.nw.Dial(addr)
		if err != nil {
			lastErr = err
			continue
		}
		if r.OnConnect != nil {
			if err := r.OnConnect(c); err != nil {
				c.Close()
				lastErr = err
				continue
			}
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			c.Close()
			return nil, ErrClosed
		}
		if r.gen != gen {
			// The list changed while this dial was in flight: the conn may
			// target a stale address, and installing it would clobber the
			// broken flag SetAddrs just raised. Discard it and retry
			// against the new list.
			addrs = append([]string(nil), r.addrs...)
			gen = r.gen
			r.mu.Unlock()
			c.Close()
			lastErr = fmt.Errorf("transport: address list changed during dial")
			continue
		}
		// Rotate the successful address to the front so steady-state
		// traffic keeps using it.
		for i, a := range r.addrs {
			if a == addr {
				r.addrs = append([]string{a}, append(append([]string(nil), r.addrs[:i]...), r.addrs[i+1:]...)...)
				break
			}
		}
		r.cur = c
		r.broken = false
		r.mu.Unlock()
		r.reconnects.Add(1)
		return c, nil
	}
	return nil, fmt.Errorf("transport: reconnect exhausted %d attempts: %w", r.policy.Attempts, lastErr)
}

// Connect forces the first dial (and the OnConnect hook) to happen now
// rather than lazily on the first SendFrame, so constructors can fail fast.
func (r *Reconn) Connect() error {
	_, err := r.ensure(time.Time{})
	return err
}

// SendFrame implements Conn, transparently healing a broken connection.
func (r *Reconn) SendFrame(frame []byte) error {
	c, err := r.ensure(time.Time{})
	if err != nil {
		return err
	}
	if err := c.SendFrame(frame); err != nil {
		r.markBroken(c)
		return err
	}
	return nil
}

// RecvFrame implements Conn. It does not redial — see the type comment.
func (r *Reconn) RecvFrame() ([]byte, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if r.broken || r.cur == nil {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	c := r.cur
	r.mu.Unlock()
	f, err := c.RecvFrame()
	if err != nil {
		r.markBroken(c)
		return nil, err
	}
	return f, nil
}

// SendFrameDeadline implements DeadlineConn: the deadline bounds the whole
// attempt, first the redial of a broken conn (no backoff sleep past it, no
// dial after it) and then the transmission on the live conn (unbounded when
// the underlying transport has no deadline support). A missed deadline
// marks the conn broken so the caller's retry redials.
func (r *Reconn) SendFrameDeadline(frame []byte, deadline time.Time) error {
	c, err := r.ensure(deadline)
	if err != nil {
		return err
	}
	if err := SendFrameDeadline(c, frame, deadline); err != nil {
		r.markBroken(c)
		return err
	}
	return nil
}

// RecvFrameDeadline implements DeadlineConn. Like RecvFrame it never
// redials; a missed deadline surfaces so the caller's retry loop re-sends
// the request (which heals the conn).
func (r *Reconn) RecvFrameDeadline(deadline time.Time) ([]byte, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if r.broken || r.cur == nil {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	c := r.cur
	r.mu.Unlock()
	f, err := RecvFrameDeadline(c, deadline)
	if err != nil {
		r.markBroken(c)
		return nil, err
	}
	return f, nil
}

func (r *Reconn) markBroken(c Conn) {
	r.mu.Lock()
	if r.cur == c {
		r.broken = true
		c.Close()
	}
	r.mu.Unlock()
}

// Close implements Conn; no further redials happen.
func (r *Reconn) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.cur != nil {
		return r.cur.Close()
	}
	return nil
}
