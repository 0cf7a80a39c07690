package dsd

import (
	"fmt"
	"maps"
	"time"

	"hetdsm/internal/flight"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// Home-node handoff (paper Section 3.1): "If the master thread moves to a
// default thread at a remote node, the latter will become the new home
// node. Previous local threads become remote threads."
//
// The protocol has three phases, driven by the operator (or the migration
// layer) rather than by the old home alone:
//
//  1. Detach: the old home freezes — new acquisitions, flushes, barriers
//     and joins are answered with redirects once the redirect address is
//     known — waits until no lock is held and no barrier generation is in
//     flight (a release-consistent quiescent cut), and captures its state.
//  2. NewHomeFromImage builds the successor anywhere, on any platform:
//     the master image converts receiver-makes-right; each rank's owed
//     spans and the joined set carry over because spans and ranks are
//     architecture independent.
//  3. RedirectTo publishes the successor's address; every thread's next
//     request bounces with KindRedirect and the thread re-registers with
//     the new home transparently (see Thread.call).
//
// The state that moves is a wire.HomeImage (DESIGN.md, "Home state image"):
// the same struct, captured and rebuilt by the same two functions, whether
// the home leaves through a handoff, a replication stream, a WAL snapshot
// or a cluster checkpoint.

// Detach freezes the home, waits for quiescence, and returns its state.
// After Detach, call RedirectTo to release waiting threads toward the
// successor. Detach fails after timeout if the system never quiesces (e.g.
// a thread holds a lock indefinitely); the home then thaws and serves on,
// lock requesters parked by the freeze included.
func (h *Home) Detach(timeout time.Duration) (*wire.HomeImage, error) {
	h.mu.Lock()
	if h.frozen {
		h.mu.Unlock()
		return nil, fmt.Errorf("dsd: home already detached")
	}
	h.frozen = true
	h.thawed = make(chan struct{})
	h.mu.Unlock()
	h.opts.Events.Note(h.node, flight.KindDetach, -1, -1, 0, "")

	deadline := time.Now().Add(timeout)
	for {
		h.mu.Lock()
		if h.quiescentLocked() {
			break // keep h.mu held for the capture
		}
		if time.Now().After(deadline) {
			h.frozen = false
			close(h.thawed)
			h.mu.Unlock()
			return nil, fmt.Errorf("dsd: home did not quiesce within %v", timeout)
		}
		h.mu.Unlock()
		time.Sleep(100 * time.Microsecond)
	}
	defer h.mu.Unlock()
	img, err := h.imageLocked()
	if err != nil {
		return nil, err
	}
	h.snapshotted = true
	return img, nil
}

// imageLocked is the one capture of home state. Caller holds h.mu, so the
// image is a release-consistent cut (taken between update applications).
func (h *Home) imageLocked() (*wire.HomeImage, error) {
	buf := make([]byte, h.layout.Size)
	if _, err := h.master.Read(0, h.layout.Size, buf); err != nil {
		return nil, err
	}
	img := &wire.HomeImage{
		Platform: h.plat.Name,
		Base:     h.table.Base(),
		Image:    buf,
		Tag:      tag.FromLayout(h.layout).String(),
		Dirty:    h.stamp > 0,
		Proto:    uint8(h.opts.Protocol),
		Nthreads: int32(h.nthreads),
		Epoch:    h.epoch,
		Held:     make(map[int32]int32),
		Joined:   maps.Clone(h.joined),
		Applied:  maps.Clone(h.applied),
		Released: maps.Clone(h.released),
		Pending:  make(map[int32][]indextable.Span),
		Known:    make(map[int32]bool, len(h.seen)),
	}
	for idx, ls := range h.locks {
		if ls.held {
			img.Held[idx] = ls.holder
		}
	}
	// Known is every tracked rank, and Pending what a grant would ship it.
	for rank := range h.seen {
		img.Known[rank] = true
		p := h.peers[rank]
		if owed := indextable.MergeInPlace(h.owedLocked(nil, rank, p != nil && p.seed)); len(owed) > 0 {
			img.Pending[rank] = owed
		}
	}
	return img, nil
}

// Image captures the home's state. Safe to call while threads run: the
// capture happens under the home mutex, i.e. between update applications.
func (h *Home) Image() (*wire.HomeImage, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.imageLocked()
}

// quiescentLocked reports whether no lock is held and no barrier
// generation is in flight. Caller holds h.mu.
func (h *Home) quiescentLocked() bool {
	for _, ls := range h.locks {
		if ls.held {
			return false
		}
	}
	for _, bs := range h.barriers {
		if len(bs.ranks) != 0 {
			return false
		}
	}
	return true
}

// RedirectTo publishes the successor's address; frozen handlers reply with
// redirects from now on.
func (h *Home) RedirectTo(addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.redirectAddr == "" {
		h.redirectAddr = addr
		close(h.redirectReady)
	}
}

// redirect answers one request with the successor's address, blocking
// until RedirectTo has been called.
func (h *Home) redirect(c transport.Conn, rank int32) error {
	select {
	case <-h.redirectReady:
	case <-h.killed:
		return errKilled
	}
	h.mu.Lock()
	addr := h.redirectAddr
	h.mu.Unlock()
	h.opts.Events.Note(h.node, flight.KindRedirect, rank, -1, 0, addr)
	return h.send(c, &wire.Message{Kind: wire.KindRedirect, Rank: rank, Addr: addr})
}

// NewHomeFromImage is the one constructor of a home from captured state: it
// builds a successor on platform p — any platform, the master converts
// receiver-makes-right — serving the image's thread count under the image's
// protocol. Handoff, standby promotion and WAL recovery all end here. An
// image without Pending and Known (every crash cut) makes each rank's first
// reply reseed its replica in full.
func NewHomeFromImage(gthv tag.Struct, p *platform.Platform, opts Options, img *wire.HomeImage) (*Home, error) {
	srcTable, err := img.Validate(gthv)
	if err != nil {
		return nil, err
	}
	opts.Protocol = Protocol(img.Proto)
	h, err := NewHome(gthv, p, int(img.Nthreads), opts)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.importLocked(srcTable, img.Image); err != nil {
		return nil, err
	}
	// The import recorded nothing, as no rank is tracked yet: a Known rank
	// is owed its Pending spans, and any other is seeded in full.
	h.adoptLocked(img.Known, img.Pending)
	maps.Copy(h.joined, img.Joined)
	for idx, rank := range img.Held {
		// A crash cut that dropped held locks would let a second thread
		// into a critical section the dead-connection holder is still
		// (stickily) inside.
		h.locks[idx] = &lockState{held: true, holder: rank}
	}
	maps.Copy(h.applied, img.Applied)
	maps.Copy(h.released, img.Released)
	if len(h.joined) == h.nthreads {
		close(h.done)
	}
	return h, nil
}
