package dsd

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"hetdsm/internal/convert"
	"hetdsm/internal/flight"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/transport"
	"hetdsm/internal/vmem"
	"hetdsm/internal/wire"
)

// Home is the base node of the DSD: it owns the master GThV copy, stamped
// so that each thread is shipped what changed since it last synced
// (catchup.go), the distributed mutexes and the barriers. One goroutine per
// connected thread acts as that thread's stub (paper Figure 5), so Home
// methods are internally synchronized.
type Home struct {
	opts     Options
	gthv     tag.Struct
	plat     *platform.Platform
	layout   *tag.Layout
	table    *indextable.Table
	nthreads int

	mu       sync.Mutex
	master   *vmem.Segment
	locks    map[int32]*lockState
	barriers map[int32]*barrierState
	peers    map[int32]*peer
	joined   map[int32]bool
	done     chan struct{}
	// killed is closed by Kill: every stub parked on a mutex, a barrier or
	// a detach wakes and exits.
	killed chan struct{}
	// stamp numbers the applied update-bearing requests and imports; runs
	// holds each entry's stamped runs (spare the buffer recordLocked builds
	// its next runs in) and seen each tracked rank's seen stamp. A rank is
	// tracked from its hello, or from a handoff image that knew it.
	stamp uint64
	runs  [][]run
	spare [][]run
	seen  map[int32]uint64
	// applied holds per-rank idempotency watermarks: the highest request
	// id whose updates were applied. A reconnecting thread re-sends its
	// in-flight request; the watermark keeps the replay from applying the
	// same updates twice.
	applied map[int32]uint64
	// released holds per-rank barrier-release watermarks: the request id
	// of the rank's last barrier arrival whose generation opened. A
	// replayed arrival at or below the watermark is answered with a
	// release immediately instead of re-entering (and deadlocking) the
	// barrier.
	released map[int32]uint64
	// reps mirror every state mutation to attached replicators (hot
	// standby streams, the write-ahead log); each stamps its own Seq, so
	// records are fanned out as copies.
	reps []Replicator
	// epoch is this home incarnation's fencing epoch, stamped on every
	// frame and replication record. It is immutable after construction.
	epoch uint64
	// fenced marks a home that saw a frame from a higher epoch (a newer
	// incarnation exists); it stops serving to prevent split-brain.
	fenced bool
	// gens counts opened barrier generations across all barrier indices;
	// every Options.CheckpointEvery-th generation triggers CheckpointSink.
	gens uint64
	// frozen marks a home detached for handoff: new acquisitions bounce
	// with redirects once redirectAddr is published. thawed is closed if
	// that freeze is abandoned (Detach timed out), sending the requesters
	// it parked back into acquire. snapshotted marks the handoff state
	// captured: from then on NO state mutation may be accepted (it would
	// be lost), so update-bearing requests redirect.
	frozen        bool
	thawed        chan struct{}
	snapshotted   bool
	redirectAddr  string
	redirectReady chan struct{}

	bd stats.Breakdown
	hm homeMetrics
	// node labels this home's trace events and spans.
	node string
	// tags memoizes grant span tags; guarded by mu.
	tags tagCache

	lmu       sync.Mutex
	listeners []transport.Listener
	conns     map[transport.Conn]bool
}

// Replicator mirrors home-state mutations to a hot standby. Record is
// called with the home mutex held, so it must only enqueue; Flush blocks
// until everything recorded so far is acknowledged by the standby (or
// replication has failed, in which case it returns without error and the
// home continues unreplicated).
type Replicator interface {
	Record(rec *wire.Replication)
	Flush()
}

type peer struct {
	rank int32
	plat *platform.Platform
	// seed marks a replica registered blank after updates were applied:
	// its next reply ships every entry whole. Guarded by h.mu.
	seed bool
	// replied, covered and replySeq track the last grant or barrier
	// release: the stamp it covered and the request it answered. Neither
	// reply has an ack, so the rank's next request with a higher Seq is its
	// delivery receipt, and sets the rank's seen stamp to covered.
	replied  bool
	covered  uint64
	replySeq uint64

	// Scratch the peer's stub goroutine owns and reuses, so a steady-state
	// release or grant allocates only its encoded frame: convs and conv hold
	// a release's converted updates, spans the runs it records or a grant's
	// spans, and grantUps and grantData a materialized grant. plans convert
	// each entry from the peer's representation to ours, pointers translated.
	convs     []converted
	conv      []byte
	spans     []indextable.Span
	grantUps  []wire.Update
	grantData []byte
	plans     []convert.Plan
}

// converted is one received update ready for the master: its span and its
// bytes in the home's representation, either a view into the received
// frame (same ABI) or into the peer's conversion scratch.
type converted struct {
	span indextable.Span
	data []byte
}

type lockState struct {
	held    bool
	holder  int32
	waiters []lockWaiter
}

type lockWaiter struct {
	ch   chan struct{}
	rank int32
}

// barrierState keys arrivals by rank so a reconnecting thread's replayed
// arrival cannot double-count, and remembers each arrival's request id so
// the release watermark can be published when the generation opens.
type barrierState struct {
	ranks map[int32]uint64
	gen   chan struct{}
}

// NewHome builds the home node for a GThV type on the given platform.
// nthreads is the total number of worker threads (local and remote) that
// will participate in barriers and joins.
func NewHome(gthv tag.Struct, p *platform.Platform, nthreads int, opts Options) (*Home, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if nthreads <= 0 {
		return nil, fmt.Errorf("dsd: nthreads %d must be positive", nthreads)
	}
	layout, err := tag.NewLayout(gthv, p)
	if err != nil {
		return nil, err
	}
	if opts.Base%uint64(p.PageSize) != 0 {
		return nil, fmt.Errorf("dsd: base %#x not aligned to %s page size %d", opts.Base, p, p.PageSize)
	}
	table, err := indextable.Build(layout, opts.Base)
	if err != nil {
		return nil, err
	}
	master, err := vmem.NewSegment(opts.Base, layout.Size, p.PageSize)
	if err != nil {
		return nil, err
	}
	epoch := opts.Epoch
	if epoch == 0 {
		epoch = 1
	}
	h := &Home{
		opts:          opts,
		gthv:          gthv,
		plat:          p,
		layout:        layout,
		table:         table,
		nthreads:      nthreads,
		master:        master,
		epoch:         epoch,
		hm:            newHomeMetrics(opts.Metrics),
		node:          "home@" + p.Name,
		locks:         make(map[int32]*lockState),
		barriers:      make(map[int32]*barrierState),
		peers:         make(map[int32]*peer),
		joined:        make(map[int32]bool),
		done:          make(chan struct{}),
		killed:        make(chan struct{}),
		runs:          make([][]run, table.Len()),
		spare:         make([][]run, table.Len()),
		seen:          make(map[int32]uint64),
		applied:       make(map[int32]uint64),
		released:      make(map[int32]uint64),
		redirectReady: make(chan struct{}),
		conns:         make(map[transport.Conn]bool),
	}
	return h, nil
}

// Platform returns the home platform.
func (h *Home) Platform() *platform.Platform { return h.plat }

// Epoch returns the home's fencing epoch.
func (h *Home) Epoch() uint64 { return h.epoch }

// Fenced reports whether the home stopped serving because it saw a frame
// from a higher epoch (a newer incarnation of itself exists).
func (h *Home) Fenced() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fenced
}

// Watermarks returns copies of the per-rank idempotency watermarks: the
// highest applied update-bearing request id and the last barrier-release
// request id for each rank. Diagnostics endpoints expose them so a
// recovered home's replayed state can be inspected.
func (h *Home) Watermarks() (applied, released map[int32]uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return maps.Clone(h.applied), maps.Clone(h.released)
}

// Table returns the home's index table.
func (h *Home) Table() *indextable.Table { return h.table }

// Stats returns the home-side Cshare breakdown (stub-thread work: tag and
// pack on grants, unpack and conversion on releases).
func (h *Home) Stats() *stats.Breakdown { return &h.bd }

// Globals returns a typed view of the master copy. It is only safe to use
// when no thread is active — before threads start or after Wait returns.
func (h *Home) Globals() *Globals {
	return newGlobals(h.plat, h.table, h.master)
}

// Restore loads the master copy of a captured image into this home,
// converting receiver-makes-right; every thread, registered or not yet,
// receives the restored state in full at its first acquire after it. Only
// the master is adopted: the image's lock, join and watermark state
// describes the threads of the captured run, and threads resuming from a
// checkpoint number their requests afresh. NewHomeFromImage is the
// constructor that adopts all of it.
func (h *Home) Restore(img *wire.HomeImage) error {
	srcTable, err := img.Validate(h.gthv)
	if err != nil {
		return err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.importLocked(srcTable, img.Image)
}

// importLocked is the one receiver-makes-right master import, shared by
// Restore and NewHomeFromImage. src is a whole master image in srcTable's
// layout. Every entry is converted to this home's representation with
// pointer members translated into its address space, written to the
// master under a new stamp as whole-entry runs every tracked rank is owed,
// and mirrored to the replicators. A rank that registers later is seeded in
// full, as after any apply. Caller holds h.mu.
func (h *Home) importLocked(srcTable *indextable.Table, src []byte) error {
	plans, err := entryPlans(h.table, srcTable.Platform(), h.table.Translator(srcTable))
	if err != nil {
		return err
	}
	ups := make([]wire.Update, 0, srcTable.Len())
	for i := 0; i < srcTable.Len(); i++ {
		se := srcTable.Entry(i)
		data, err := plans[i].Append(nil, src[se.Offset:][:se.Bytes()], se.Count)
		if err != nil {
			return err
		}
		ups = append(ups, wire.Update{Entry: int32(i), First: 0, Count: int32(se.Count), Data: data})
	}
	spans := make([]indextable.Span, len(ups))
	for i := range ups {
		if err := h.master.RawWrite(h.table.Entry(i).Offset, ups[i].Data); err != nil {
			return err
		}
		spans[i] = indextable.Span{Entry: i, Count: int(ups[i].Count)}
	}
	h.stamp++
	h.recordLocked(spans, -1, h.floorsLocked())
	// Rank -1 marks the record as an import, not any thread's release — no
	// watermark advances.
	h.repRecord(wire.Replication{Event: wire.RepUpdate, Rank: -1, Mutex: -1, Updates: ups})
	return nil
}

// Serve accepts connections on l and runs a stub goroutine per thread until
// the listener is closed.
func (h *Home) Serve(l transport.Listener) {
	h.lmu.Lock()
	h.listeners = append(h.listeners, l)
	h.lmu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go h.ServeConn(c)
	}
}

// ServeConn runs the stub protocol for one thread connection until the
// connection closes. Exported so in-process clusters can wire Pipe ends
// directly. A connection whose first message is a ping enters heartbeat
// mode instead: every KindPing is answered with a KindPong, so failure
// detectors probe the same serving path DSD traffic uses.
func (h *Home) ServeConn(c transport.Conn) {
	h.lmu.Lock()
	if h.conns == nil {
		// Killed: a conn accepted just before Kill closed the listener must
		// not be served, or it would answer pings past the crash and keep
		// a standby from ever promoting.
		h.lmu.Unlock()
		c.Close()
		return
	}
	h.conns[c] = true
	h.lmu.Unlock()
	defer func() {
		h.lmu.Lock()
		delete(h.conns, c)
		h.lmu.Unlock()
		c.Close()
	}()
	// One receive buffer serves the whole connection: every handler is
	// done with a request before the next is decoded into it.
	var in wire.Message
	first, err := h.recv(c, &in)
	if err != nil {
		return
	}
	if first.Epoch > h.epoch {
		h.fence(first.Epoch)
		return
	}
	if first.Kind == wire.KindPing {
		h.servePings(c, first)
		return
	}
	p, err := h.handshake(c, first)
	if err != nil {
		return
	}
	// When the connection drops, the rank becomes free again so a
	// migrated incarnation of the thread can re-register from another
	// platform; it is untracked (the new replica is blank and will be
	// seeded with the full state).
	defer h.removePeer(p)
	for {
		msg, err := h.recv(c, &in)
		if err != nil {
			return
		}
		if msg.Epoch > h.epoch {
			h.fence(msg.Epoch)
			return
		}
		h.ack(p, msg.Seq)
		switch msg.Kind {
		case wire.KindLockReq:
			// The freeze check is inside acquire, atomic with the
			// grant: checking here first would race Detach's snapshot.
			err = h.handleLock(c, p, msg)
		case wire.KindUnlockReq, wire.KindFlushReq, wire.KindJoinReq:
			// Releases are always processed: a holder must be able to
			// drain so a detaching home can reach quiescence. (A held
			// lock blocks the snapshot, so an unlock can never arrive
			// after it.)
			err = h.handleRelease(c, p, msg)
		case wire.KindBarrierReq:
			err = h.handleBarrier(c, p, msg)
		case wire.KindFetchReq:
			// Fetches are answered even while frozen: the data is
			// consistent until the handoff snapshot, and a redirect
			// would race the thread's critical section. (The successor
			// serves later fetches after the thread's next acquire.)
			err = h.handleFetch(c, p, msg)
		case wire.KindPing:
			err = h.send(c, &wire.Message{Kind: wire.KindPong, Seq: msg.Seq, Rank: msg.Rank})
		default:
			err = fmt.Errorf("dsd: unexpected %v from rank %d", msg.Kind, p.rank)
		}
		if err != nil {
			return
		}
	}
}

// servePings answers heartbeat probes until the connection closes.
func (h *Home) servePings(c transport.Conn, first *wire.Message) {
	msg := first
	for {
		if err := h.send(c, &wire.Message{Kind: wire.KindPong, Seq: msg.Seq, Rank: msg.Rank}); err != nil {
			return
		}
		var err error
		msg, err = h.recv(c, msg)
		if err != nil || msg.Kind != wire.KindPing {
			return
		}
	}
}

func (h *Home) removePeer(p *peer) {
	h.mu.Lock()
	if h.peers[p.rank] == p {
		delete(h.peers, p.rank)
		delete(h.seen, p.rank)
		// Recover any mutex the dead thread still held: leaving it
		// orphaned would deadlock every other thread. Its uncommitted
		// writes are lost — the crashing-holder semantics every lock
		// service chooses. Under StickyLocks (HA mode) a disconnect is
		// presumed transient: the holder keeps its mutex and releases it
		// after reconnecting, preserving mutual exclusion across the
		// partition.
		if !h.opts.StickyLocks {
			for idx, ls := range h.locks {
				if ls.held && ls.holder == p.rank {
					h.releaseLocked(idx)
				}
			}
		}
	}
	h.mu.Unlock()
}

// LocalThread creates a worker thread served by this home over an
// in-process pipe; used for the home node's own (non-migrated) thread and
// by single-process clusters.
func (h *Home) LocalThread(rank int32, p *platform.Platform, opts Options) (*Thread, error) {
	a, b := transport.Pipe()
	go h.ServeConn(b)
	return Connect(a, p, rank, h.gthv, opts)
}

// Wait blocks until every thread has joined (MTh_join semantics for the
// base thread: "this informs the base thread that it too should
// terminate").
func (h *Home) Wait() { <-h.done }

// Close shuts down all listeners.
func (h *Home) Close() {
	h.lmu.Lock()
	defer h.lmu.Unlock()
	for _, l := range h.listeners {
		l.Close()
	}
	h.listeners = nil
}

// Kill simulates a crash: every listener and every live connection is
// severed at once, with no quiescence, no redirects and no goodbyes. The
// HA layer's failover tests use it to drop the home mid-workload.
func (h *Home) Kill() {
	h.Close()
	h.lmu.Lock()
	conns := h.conns
	h.conns = nil
	h.lmu.Unlock()
	if conns == nil {
		return // killed before
	}
	// Stubs parked on a mutex, a barrier or a detach wake and exit instead
	// of waiting for threads that can never reach this home again.
	close(h.killed)
	for c := range conns {
		c.Close()
	}
}

// fence stops a stale home: a frame stamped with a higher epoch proves a
// newer incarnation (promoted standby or WAL-restart) owns the state now,
// so continuing to serve would split-brain. The home severs everything,
// exactly as if it had crashed.
func (h *Home) fence(newer uint64) {
	h.mu.Lock()
	already := h.fenced
	h.fenced = true
	h.mu.Unlock()
	if already {
		return
	}
	// Fencing is a black-box moment: note it and dump the event ring so
	// the post-mortem shows the protocol events that led here.
	h.opts.Events.Note(h.node, flight.KindFence, -1, int64(newer), int64(h.epoch), "")
	h.opts.Events.Trip(fmt.Sprintf("%s fenced: saw epoch %d, own epoch %d", h.node, newer, h.epoch))
	h.Kill()
}

func (h *Home) handshake(c transport.Conn, msg *wire.Message) (*peer, error) {
	if msg.Kind != wire.KindHello {
		return nil, fmt.Errorf("dsd: expected hello, got %v", msg.Kind)
	}
	plat := platform.ByName(msg.Platform)
	if plat == nil {
		return nil, fmt.Errorf("dsd: unknown platform %q", msg.Platform)
	}
	layout, err := tag.NewLayout(h.gthv, plat)
	if err != nil {
		return nil, err
	}
	ptable, err := indextable.Build(layout, msg.Base)
	if err != nil {
		return nil, err
	}
	if err := indextable.Compatible(h.table, ptable); err != nil {
		return nil, err
	}
	plans, err := entryPlans(h.table, plat, h.table.Translator(ptable))
	if err != nil {
		return nil, err
	}
	h.opts.Events.Note(h.node, flight.KindHello, msg.Rank, -1, 0, plat.Name)
	p := &peer{rank: msg.Rank, plat: plat, plans: plans}
	if err := h.register(p, msg.Flags&wire.FlagWarmReplica != 0); err != nil {
		return nil, err
	}
	if err := h.send(c, &wire.Message{
		Kind:     wire.KindHelloAck,
		Rank:     p.rank,
		Platform: h.plat.Name,
		Base:     h.table.Base(),
		Proto:    uint8(h.opts.Protocol),
	}); err != nil {
		// The caller only installs its removePeer cleanup after a
		// successful handshake; unregister here or the rank's slot leaks
		// and every reconnect is rejected as a duplicate forever.
		h.removePeer(p)
		return nil, err
	}
	return p, nil
}

// register adds p to the registered peers and tracks its rank. Only a warm
// replica of a rank the home already tracks (one a handoff image knew)
// keeps its seen stamp; any other replica is blank, and is seeded with
// every entry once anything was applied.
func (h *Home) register(p *peer, warm bool) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fenced {
		return fmt.Errorf("dsd: home fenced by a newer epoch")
	}
	if _, dup := h.peers[p.rank]; dup {
		return fmt.Errorf("dsd: rank %d already registered", p.rank)
	}
	h.peers[p.rank] = p
	if _, tracked := h.seen[p.rank]; !tracked || !warm {
		h.seen[p.rank] = 0
		p.seed = h.stamp > 0
	}
	return nil
}

func (h *Home) handleLock(c transport.Conn, p *peer, msg *wire.Message) error {
	var acqStart time.Time
	if h.hm.enabled {
		acqStart = time.Now()
	}
	if err := h.acquire(msg.Mutex, p.rank); err == errMoved {
		return h.redirect(c, p.rank)
	} else if err != nil {
		return err
	}
	if h.hm.enabled {
		h.hm.lockWait.Observe(time.Since(acqStart).Seconds())
	}
	// The grant must be durable at the standby before the client enters
	// its critical section, or a failover could hand the mutex to a
	// second thread.
	h.repFlush()
	if err := h.sendPending(c, p, wire.KindLockGrant, msg.Mutex, msg.Seq); err != nil {
		// The grantee vanished; put the lock back so others proceed.
		// Under StickyLocks the disconnect is presumed transient: the
		// grantee keeps the mutex and its replayed request is re-granted
		// (from the same seen stamp, since nothing was committed).
		if !h.opts.StickyLocks {
			h.releaseIfHolder(msg.Mutex, p.rank)
		}
		return err
	}
	return nil
}

func (h *Home) handleBarrier(c transport.Conn, p *peer, msg *wire.Message) error {
	h.mu.Lock()
	released := h.released[p.rank]
	h.mu.Unlock()
	if msg.Seq != 0 && released >= msg.Seq {
		// Replay of an arrival whose generation already opened (the
		// release was lost with the connection): re-entering the barrier
		// would wait for peers that have long moved on, so answer with a
		// release straight away, shipping everything above the stamp the
		// rank last acknowledged seeing.
		return h.sendPending(c, p, wire.KindBarrierRelease, msg.Mutex, msg.Seq)
	}
	if err := h.applyUpdates(p, msg); err != nil {
		if err == errMoved {
			return h.redirect(c, p.rank)
		}
		return err
	}
	h.opts.Events.Note(h.node, flight.KindBarrierArrive, p.rank, int64(msg.Mutex), int64(wire.UpdateBytes(msg.Updates)), "")
	var waitStart time.Time
	if h.hm.enabled {
		waitStart = time.Now()
	}
	proceed, err := h.arrive(msg.Mutex, p.rank, msg.Seq)
	if err != nil {
		return err
	}
	if h.hm.enabled {
		h.hm.barrierWait.Observe(time.Since(waitStart).Seconds())
	}
	if !proceed {
		// The home handed off after this thread's updates were applied
		// (idempotent value updates: re-applying at the successor is
		// harmless); the whole barrier must re-run there.
		return h.redirect(c, p.rank)
	}
	h.repFlush()
	return h.sendPending(c, p, wire.KindBarrierRelease, msg.Mutex, msg.Seq)
}

// sendPending answers a lock or barrier request (kind is the grant or the
// release) with the updates the rank is owed. Neither reply has an ack, so
// the rank's seen stamp does not move here: ack moves it when the rank's
// next request (Seq > reqSeq) proves the reply was processed, and until
// then a replayed request, which carries the same Seq, is answered from
// the old seen stamp again.
func (h *Home) sendPending(c transport.Conn, p *peer, kind wire.Kind, mutex int32, reqSeq uint64) error {
	updates := h.peekPending(p, reqSeq)
	if kind == wire.KindLockGrant {
		h.opts.Events.Note(h.node, flight.KindLockGrant, p.rank, int64(mutex), int64(wire.UpdateBytes(updates)), "")
	}
	return h.send(c, &wire.Message{Kind: kind, Mutex: mutex, Rank: p.rank, Updates: updates})
}

// handleFetch materializes current master data for explicitly requested
// spans (invalidate protocol) exactly like a grant, but demand-driven.
func (h *Home) handleFetch(c transport.Conn, p *peer, msg *wire.Message) error {
	spans := make([]indextable.Span, 0, len(msg.Updates))
	for i := range msg.Updates {
		u := &msg.Updates[i]
		if int(u.Entry) >= h.table.Len() || u.First < 0 || u.Count <= 0 {
			return fmt.Errorf("dsd: fetch span %d/%d/%d invalid", u.Entry, u.First, u.Count)
		}
		e := h.table.Entry(int(u.Entry))
		if int(u.First)+int(u.Count) > e.Count {
			return fmt.Errorf("dsd: fetch of %s[%d..%d) exceeds %d elements",
				e.Name, u.First, int(u.First)+int(u.Count), e.Count)
		}
		spans = append(spans, indextable.Span{Entry: int(u.Entry), First: int(u.First), Count: int(u.Count)})
	}
	h.mu.Lock()
	updates := h.packLocked(p, indextable.MergeInPlace(spans))
	h.mu.Unlock()
	return h.send(c, &wire.Message{Kind: wire.KindFetchReply, Rank: p.rank, Updates: updates})
}

// handleRelease applies the updates of an unlock, flush or join, then
// releases the mutex or records the join, and acknowledges the request
// once the replicators hold it.
func (h *Home) handleRelease(c transport.Conn, p *peer, msg *wire.Message) error {
	if err := h.applyUpdates(p, msg); err == errMoved {
		// For an unlock this is unreachable while the quiescence protocol
		// holds (a held lock blocks the snapshot), but redirect defensively.
		return h.redirect(c, p.rank)
	} else if err != nil {
		return err
	}
	ack := &wire.Message{Rank: p.rank}
	switch msg.Kind {
	case wire.KindUnlockReq:
		h.opts.Events.Note(h.node, flight.KindUnlock, p.rank, int64(msg.Mutex), int64(wire.UpdateBytes(msg.Updates)), "")
		// Guarding on the holder makes a replayed unlock (re-sent after a
		// reconnect, already applied via the watermark) a no-op instead of
		// releasing a mutex some other thread now holds.
		h.releaseIfHolder(msg.Mutex, p.rank)
		ack.Kind, ack.Mutex = wire.KindUnlockAck, msg.Mutex
	case wire.KindFlushReq:
		h.opts.Events.Note(h.node, flight.KindFlush, p.rank, -1, int64(wire.UpdateBytes(msg.Updates)), "")
		ack.Kind = wire.KindFlushAck
	default:
		h.mu.Lock()
		if h.snapshotted {
			// The successor owns the joined set now.
			h.mu.Unlock()
			return h.redirect(c, p.rank)
		}
		if !h.joined[p.rank] {
			h.joined[p.rank] = true
			h.repRecord(wire.Replication{Event: wire.RepJoin, Rank: p.rank, Mutex: -1})
			// Close only on the transition: a thread whose JoinAck was lost
			// in flight replays its join after reconnecting, and a second
			// close would panic while h.mu is held — hanging every peer.
			if len(h.joined) == h.nthreads {
				close(h.done)
			}
		}
		h.mu.Unlock()
		h.opts.Events.Note(h.node, flight.KindJoin, p.rank, -1, 0, "")
		ack.Kind = wire.KindJoinAck
	}
	h.repFlush()
	return h.send(c, ack)
}

// errMoved reports an update-bearing request arriving after the handoff
// snapshot; the caller answers with a redirect.
var errMoved = fmt.Errorf("dsd: home state already handed off")

// errKilled ends a stub that Kill woke.
var errKilled = fmt.Errorf("dsd: home killed")

// acquire blocks until mutex idx is held by rank's thread, or returns
// errMoved when the home is frozen for handoff (the freeze check is atomic
// with the grant — a check-then-acquire would race the detach snapshot,
// which runs under h.mu), or errKilled. A waiter enqueued before the freeze
// may still be granted afterwards via release handoff; the unbroken held
// chain keeps the snapshot waiting until that thread releases.
func (h *Home) acquire(idx, rank int32) error {
	h.mu.Lock()
	for h.frozen {
		// Park until the detach resolves either way: a published successor
		// means redirect; an abandoned freeze means serve after all.
		thawed := h.thawed
		h.mu.Unlock()
		select {
		case <-h.redirectReady:
			return errMoved
		case <-thawed:
		case <-h.killed:
			return errKilled
		}
		h.mu.Lock()
	}
	ls := h.locks[idx]
	if ls == nil {
		ls = &lockState{}
		h.locks[idx] = ls
	}
	if !ls.held {
		ls.held = true
		ls.holder = rank
		h.repRecord(wire.Replication{Event: wire.RepLock, Rank: rank, Mutex: idx})
		h.mu.Unlock()
		return nil
	}
	if ls.holder == rank {
		// Replayed request from a reconnected holder whose grant was
		// lost in flight: re-grant rather than deadlocking behind
		// ourselves. Well-synchronized programs never double-lock, so
		// this branch only fires on replay.
		h.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	ls.waiters = append(ls.waiters, lockWaiter{ch: ch, rank: rank})
	h.mu.Unlock()
	select {
	case <-ch: // ownership handed off by release
		return nil
	case <-h.killed:
		return errKilled
	}
}

// releaseIfHolder hands mutex idx to the oldest waiter (FIFO) or marks it
// free, but only when rank actually holds it — a replayed unlock from a
// reconnected thread must not release someone else's mutex.
func (h *Home) releaseIfHolder(idx, rank int32) {
	h.mu.Lock()
	ls := h.locks[idx]
	if ls != nil && ls.held && ls.holder == rank {
		h.releaseLocked(idx)
	}
	h.mu.Unlock()
}

// releaseLocked is the unconditional release with h.mu held.
func (h *Home) releaseLocked(idx int32) {
	ls := h.locks[idx]
	if ls == nil || !ls.held {
		return
	}
	if len(ls.waiters) > 0 {
		w := ls.waiters[0]
		ls.waiters = ls.waiters[1:]
		ls.holder = w.rank
		h.repRecord(wire.Replication{Event: wire.RepLock, Rank: w.rank, Mutex: idx})
		close(w.ch)
		return
	}
	ls.held = false
	h.repRecord(wire.Replication{Event: wire.RepUnlock, Rank: -1, Mutex: idx})
}

// arrive blocks in barrier idx until all nthreads threads have arrived.
// Arrivals are keyed by rank so a replayed arrival (reconnected thread
// re-sending its in-flight request) cannot double-count. reqID is the
// arriving request's idempotency id; when the generation opens it becomes
// the rank's release watermark. proceed is false when the home has handed
// off: quiescence guarantees no generation is in flight at the snapshot,
// so every post-snapshot arrival belongs to the successor.
func (h *Home) arrive(idx, rank int32, reqID uint64) (proceed bool, err error) {
	h.mu.Lock()
	if h.snapshotted {
		h.mu.Unlock()
		return false, nil
	}
	bs := h.barriers[idx]
	if bs == nil {
		bs = &barrierState{ranks: make(map[int32]uint64), gen: make(chan struct{})}
		h.barriers[idx] = bs
	}
	bs.ranks[rank] = reqID
	gen := bs.gen
	if len(bs.ranks) > h.nthreads {
		h.mu.Unlock()
		return false, fmt.Errorf("dsd: barrier %d over-subscribed", idx)
	}
	if len(bs.ranks) == h.nthreads {
		var pairs []wire.RepPair
		for r, id := range bs.ranks {
			if id > h.released[r] {
				h.released[r] = id
			}
			if len(h.reps) > 0 {
				pairs = append(pairs, wire.RepPair{Rank: r, Seq: id})
			}
		}
		h.repRecord(wire.Replication{Event: wire.RepBarrier, Rank: -1, Mutex: idx, Marks: pairs})
		h.gens++
		if h.opts.CheckpointEvery > 0 && h.opts.CheckpointSink != nil &&
			h.gens%uint64(h.opts.CheckpointEvery) == 0 {
			// A barrier open is a consistent cut: every rank's updates for
			// the closing generation are applied and no release has been
			// sent yet, so the image plus "resume at generation gens"
			// describes the whole cluster.
			if img, err := h.imageLocked(); err == nil {
				h.opts.CheckpointSink(img, h.gens)
			}
		}
		clear(bs.ranks)
		bs.gen = make(chan struct{})
		h.mu.Unlock()
		h.opts.Events.Note(h.node, flight.KindBarrierOpen, -1, int64(idx), 0, "")
		close(gen)
		return true, nil
	}
	h.mu.Unlock()
	select {
	case <-gen:
		return true, nil
	case <-h.killed:
		return false, errKilled
	}
}

// applyUpdates converts incoming updates to the home representation
// (receiver makes right, t_conv), applies them to the master copy under a
// new stamp, and records their runs for the other tracked ranks. An update
// whose representation
// is already the home's (a copy plan) is written to the master
// straight from the received frame; the rest convert into the peer's
// scratch buffer. Neither outlives the request — the sender reuses its
// frame once answered — so a replicator gets copies.
func (h *Home) applyUpdates(p *peer, msg *wire.Message) error {
	if len(msg.Updates) == 0 {
		return nil
	}
	if err := msg.Validate(); err != nil {
		return err
	}
	p.convs, p.conv = p.convs[:0], p.conv[:0]

	start := time.Now()
	var convBytes int
	for i := range msg.Updates {
		u := &msg.Updates[i]
		if int(u.Entry) >= h.table.Len() {
			return fmt.Errorf("dsd: update entry %d out of range", u.Entry)
		}
		e := h.table.Entry(int(u.Entry))
		if int(u.First)+int(u.Count) > e.Count {
			return fmt.Errorf("dsd: update %s[%d..%d) exceeds %d elements",
				e.Name, u.First, int(u.First)+int(u.Count), e.Count)
		}
		pl := &p.plans[u.Entry]
		if srcSize := len(u.Data) / int(u.Count); srcSize != pl.SrcSize() {
			return fmt.Errorf("dsd: update %s element size %d, want %d on %s",
				e.Name, srcSize, pl.SrcSize(), p.plat)
		}
		cv := converted{
			span: indextable.Span{Entry: int(u.Entry), First: int(u.First), Count: int(u.Count)},
			data: u.Data,
		}
		if !pl.Copy() {
			// Earlier views stay valid if the append moves p.conv: the old
			// array keeps the bytes already converted into it.
			at := len(p.conv)
			var err error
			if p.conv, err = pl.Append(p.conv, u.Data, int(u.Count)); err != nil {
				return err
			}
			cv.data = p.conv[at:]
		}
		convBytes += len(u.Data)
		p.convs = append(p.convs, cv)
	}
	convDur := time.Since(start)
	h.bd.AddBytes(stats.Conv, convDur, convBytes)
	if h.opts.Events != nil && msg.Seq != 0 {
		h.opts.Events.Span(h.node, telemetry.StageConv, p.rank, msg.Seq, msg.TraceID,
			telemetry.SpanID(msg.TraceID, h.node, telemetry.StageUnpack, p.rank), start, convDur, convBytes)
	}

	var applyStart time.Time
	if h.hm.enabled || h.opts.Events != nil {
		applyStart = time.Now()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.snapshotted {
		// The handoff state is already captured; accepting this update
		// would lose it. The successor must take it instead.
		return errMoved
	}
	if msg.Seq != 0 && h.applied[p.rank] >= msg.Seq {
		// Replayed request: a reconnected thread re-sent an unlock,
		// barrier, flush or join whose updates already landed. Applying
		// them twice would be harmless for the master (idempotent value
		// writes) but would take a stamp; skip cleanly.
		return nil
	}
	replicating := len(h.reps) > 0
	h.stamp++
	f := h.floorsLocked()
	// A home where no other rank is tracked records nothing.
	record := f.needs(p.rank, h.stamp)
	spans := p.spans[:0]
	var rep []wire.Update
	for _, cv := range p.convs {
		if err := h.master.RawWrite(h.table.SpanOffset(cv.span), cv.data); err != nil {
			return err
		}
		if replicating {
			rep = append(rep, wire.Update{
				Entry: int32(cv.span.Entry), First: int32(cv.span.First), Count: int32(cv.span.Count),
				Data: slices.Clone(cv.data),
			})
		}
		if record {
			spans = append(spans, cv.span)
		}
	}
	if record {
		// Sorted first: a peer frame is outside input.
		p.spans = indextable.MergeInPlace(spans)
		h.recordLocked(p.spans, p.rank, f)
	}
	if msg.Seq > h.applied[p.rank] {
		h.applied[p.rank] = msg.Seq
	}
	if replicating {
		h.repRecord(wire.Replication{
			Event: wire.RepUpdate, Rank: p.rank, Mutex: -1,
			Updates: rep,
			Marks:   []wire.RepPair{{Rank: p.rank, Seq: msg.Seq}},
			// Carry the release's trace context onto the durability tail:
			// the WAL fsync and standby-replication spans parent to our
			// apply span.
			TraceID:    msg.TraceID,
			ParentSpan: telemetry.SpanID(msg.TraceID, h.node, telemetry.StageApply, p.rank),
		})
	}
	if h.hm.enabled {
		h.hm.applies.Inc()
		h.hm.applyBytes.Observe(float64(convBytes))
	}
	if h.opts.Events != nil && msg.Seq != 0 {
		h.opts.Events.Span(h.node, telemetry.StageApply, p.rank, msg.Seq, msg.TraceID,
			telemetry.SpanID(msg.TraceID, h.node, telemetry.StageConv, p.rank), applyStart, time.Since(applyStart), convBytes)
	}
	return nil
}

// peekPending materializes the updates one thread is owed for its reply
// to request reqSeq: its runs, coalesced, widened and packed (the encode
// half of t_pack is charged in send). Under the invalidate protocol only
// the spans travel, as data-less records. The stamp the reply covers is
// kept for ack; runs written meanwhile stay owed, and a lost grant or
// release is re-materialized from the old seen stamp for the replayed
// request.
func (h *Home) peekPending(p *peer, reqSeq uint64) []wire.Update {
	h.mu.Lock()
	defer h.mu.Unlock()
	p.replied, p.covered, p.replySeq = true, h.stamp, reqSeq
	spans := indextable.MergeInPlace(h.owedLocked(p.spans[:0], p.rank, p.seed))
	p.spans = spans
	if len(spans) == 0 {
		return nil
	}
	updates := p.grantUps[:0]
	if h.opts.Protocol == ProtocolInvalidate {
		for _, s := range spans {
			updates = append(updates, wire.Update{Entry: int32(s.Entry), First: int32(s.First), Count: int32(s.Count)})
		}
		p.grantUps = updates
		return updates
	}
	return h.packLocked(p, h.table.Widen(spans, h.opts.WholeArrayThreshold))
}

// packLocked materializes the master's current data for spans as the
// peer's scratch updates: tags (t_tag) and data (t_pack's gather half),
// valid until its next pack. Caller holds h.mu.
func (h *Home) packLocked(p *peer, spans []indextable.Span) []wire.Update {
	updates := p.grantUps[:0]
	tagStart := time.Now()
	var packBytes int
	for _, s := range spans {
		updates = append(updates, wire.Update{
			Entry: int32(s.Entry),
			First: int32(s.First),
			Count: int32(s.Count),
			Tag:   h.tags.tag(h.table, s),
		})
		packBytes += h.table.SpanBytes(s)
	}
	h.bd.Add(stats.Tag, time.Since(tagStart))

	packStart := time.Now()
	data := slices.Grow(p.grantData[:0], packBytes)[:packBytes]
	at := 0
	for i, s := range spans {
		n := h.table.SpanBytes(s)
		if _, err := h.master.Read(h.table.SpanOffset(s), n, data[at:]); err != nil {
			// Spans come from our own table; a read failure is a bug.
			panic(fmt.Sprintf("dsd: master read of own span failed: %v", err))
		}
		updates[i].Data = data[at : at+n : at+n]
		at += n
	}
	h.bd.AddBytes(stats.Pack, time.Since(packStart), packBytes)
	p.grantUps, p.grantData = updates, data
	return updates
}

// ack commits the last reply once a request with a higher Seq proves it
// arrived: the rank's replica now holds every run the reply covered.
func (h *Home) ack(p *peer, seq uint64) {
	if !p.replied || seq <= p.replySeq {
		return
	}
	p.replied = false
	h.mu.Lock()
	h.seen[p.rank], p.seed = p.covered, false
	h.mu.Unlock()
}

// repRecord mirrors one mutation to every attached replicator; caller
// holds h.mu. Each replicator stamps its own Seq on the record, so each
// receives a private copy — and a home without replicators builds none.
func (h *Home) repRecord(rec wire.Replication) {
	rec.Epoch = h.epoch
	for _, r := range h.reps {
		cp := rec
		r.Record(&cp)
	}
}

// repFlush blocks until every mutation recorded so far is durable at each
// attached replicator (no-op without one). Callers must not hold h.mu.
func (h *Home) repFlush() {
	h.mu.Lock()
	reps := append([]Replicator(nil), h.reps...)
	h.mu.Unlock()
	for _, r := range reps {
		r.Flush()
	}
}

// StartReplication attaches a replicator and hands it a RepInit bootstrap
// record — the home's whole state as a HomeImage — under the home mutex, so
// no mutation can slip between the capture and the stream start. Multiple
// replicators may attach (a standby stream and a write-ahead log, say);
// each sees the full record sequence from its own RepInit on.
func (h *Home) StartReplication(r Replicator) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	img, err := h.imageLocked()
	if err != nil {
		return err
	}
	h.reps = append(h.reps, r)
	r.Record(&wire.Replication{Event: wire.RepInit, Rank: -1, Mutex: -1, Epoch: h.epoch, Home: img})
	return nil
}

// send encodes (t_pack) and transmits a message, stamping the home's
// fencing epoch so peers can detect a stale incarnation.
func (h *Home) send(c transport.Conn, m *wire.Message) error {
	m.Epoch = h.epoch
	start := time.Now()
	frame, err := wire.Encode(m)
	if err != nil {
		return err
	}
	h.bd.Add(stats.Pack, time.Since(start))
	h.hm.frameSent.Observe(float64(len(frame)))
	return c.SendFrame(frame)
}

// recv receives and decodes (t_unpack) a message into m, the caller's
// receive buffer, and returns m. Update-bearing requests get an unpack
// span against their (rank, seq) release id — the home-side continuation
// of the sender's index/tag/pack/ship spans.
func (h *Home) recv(c transport.Conn, m *wire.Message) (*wire.Message, error) {
	frame, err := c.RecvFrame()
	if err != nil {
		return nil, err
	}
	h.hm.frameRecv.Observe(float64(len(frame)))
	start := time.Now()
	if err := wire.DecodeInto(m, frame); err != nil {
		return nil, err
	}
	unpackDur := time.Since(start)
	h.bd.AddBytes(stats.Unpack, unpackDur, wire.UpdateBytes(m.Updates))
	if h.opts.Events != nil && m.Seq != 0 && len(m.Updates) > 0 {
		// Parent to the sender's ship span, carried on the frame; the rest
		// of the home-side chain (conv, apply) hangs off this span.
		h.opts.Events.Span(h.node, telemetry.StageUnpack, m.Rank, m.Seq, m.TraceID, m.ParentSpan, start, unpackDur, wire.UpdateBytes(m.Updates))
	}
	return m, nil
}
