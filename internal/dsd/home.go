package dsd

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hetdsm/internal/convert"
	"hetdsm/internal/flight"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/trace"
	"hetdsm/internal/transport"
	"hetdsm/internal/vmem"
	"hetdsm/internal/wire"
)

// Home is the base node of the DSD: it owns the master GThV copy, the
// distributed mutexes, the barriers, and the per-thread pending-update
// queues. One goroutine per connected thread acts as that thread's stub
// (paper Figure 5), so Home methods are internally synchronized.
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
	pending  map[int32][]indextable.Span
	peers    map[int32]*peer
	joined   map[int32]bool
	done     chan struct{}
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
	// dirty records that updates have ever been applied; a thread that
	// registers after that point is queued the full GThV so its first
	// acquire brings it up to date (late joiners, migration targets).
	dirty bool
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
	// carried marks ranks whose pending queues came from a handoff; they
	// re-register without the late-joiner full-state seed.
	carried map[int32]bool

	bd stats.Breakdown
	hm homeMetrics
	// node labels this home's trace events and spans.
	node string
	// tags memoizes grant span tags; guarded by mu.
	tags tagCache

	lmu       sync.Mutex
	listeners []transport.Listener
	conns     map[transport.Conn]bool
	// queues tracks the bounded per-peer outbound queues (OpTimeout > 0
	// only) by rank, for /stats and the dsm_transport_queue_depth gauge.
	queues map[int32]*transport.SendQueue
	// deadlineHits counts budget-bounded home-side waits (grant acks, sync
	// acks) that expired on the requester's own stamped budget.
	deadlineHits atomic.Uint64
}

// homeQueueCap bounds each peer's outbound queue when the deadline plane
// is on. Grants and acks are small and the consumer acks promptly in
// steady state, so a backlog this deep already means the peer is stalled;
// overflow sheds (the peer's replay re-materializes the grant).
const homeQueueCap = 64

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
	rank  int32
	plat  *platform.Platform
	table *indextable.Table
	// pendOpen/pendMark/pendSeq track a barrier release in flight: the
	// drain of the pending queue (first pendMark raw spans) commits only
	// once a later request (Seq > pendSeq) proves the release arrived.
	// Barrier releases carry no ack, so this is their delivery receipt.
	pendOpen bool
	pendMark int
	pendSeq  uint64

	// Scratch the peer's stub goroutine owns and reuses, so a steady-state
	// release or grant allocates only its encoded frame: ack receives the
	// grant and sync acks, convs and conv hold a release's converted
	// updates, others the ranks its spans are queued for, and grant,
	// grantUps and grantData a materialized grant. translator maps the
	// peer's pointers to ours.
	ack        wire.Message
	convs      []converted
	conv       []byte
	others     []int32
	grant      []indextable.Span
	grantUps   []wire.Update
	grantData  []byte
	translator convert.Translator
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
	node := "home@" + p.Name
	if opts.Directory != nil {
		node = fmt.Sprintf("shard%d@%s", opts.Shard, p.Name)
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
		node:          node,
		locks:         make(map[int32]*lockState),
		barriers:      make(map[int32]*barrierState),
		pending:       make(map[int32][]indextable.Span),
		peers:         make(map[int32]*peer),
		joined:        make(map[int32]bool),
		done:          make(chan struct{}),
		applied:       make(map[int32]uint64),
		released:      make(map[int32]uint64),
		carried:       make(map[int32]bool),
		redirectReady: make(chan struct{}),
		conns:         make(map[transport.Conn]bool),
		queues:        make(map[int32]*transport.SendQueue),
	}
	if opts.OpTimeout > 0 {
		opts.Metrics.GaugeFunc("dsm_transport_queue_depth",
			"frames parked in per-peer bounded outbound queues at the home",
			func() float64 {
				var total int
				h.lmu.Lock()
				for _, q := range h.queues {
					total += q.Depth()
				}
				h.lmu.Unlock()
				return float64(total)
			})
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
	applied = make(map[int32]uint64, len(h.applied))
	for r, s := range h.applied {
		applied[r] = s
	}
	released = make(map[int32]uint64, len(h.released))
	for r, s := range h.released {
		released[r] = s
	}
	return applied, released
}

// Table returns the home's index table.
func (h *Home) Table() *indextable.Table { return h.table }

// ownsEntry reports whether this home is authoritative for an index-table
// entry: always, in single-home deployments, or when the directory maps
// the entry to this shard.
func (h *Home) ownsEntry(entry int) bool {
	if h.opts.Directory == nil {
		return true
	}
	shard, _ := h.opts.Directory.EntryOwner(entry)
	return shard == h.opts.Shard
}

// ownsLock reports whether this home is authoritative for a mutex.
func (h *Home) ownsLock(idx int32) bool {
	if h.opts.Directory == nil {
		return true
	}
	shard, _ := h.opts.Directory.LockOwner(idx)
	return shard == h.opts.Shard
}

// seedFullLocked queues a full-state catch-up for a rank: every entry this
// home is authoritative for, as whole-entry spans. Non-owned entries are a
// sibling shard's to seed — serving them here would ship data that may be
// stale the moment the owner applies a newer release. Caller holds h.mu.
func (h *Home) seedFullLocked(rank int32) {
	for i := 0; i < h.table.Len(); i++ {
		if !h.ownsEntry(i) {
			continue
		}
		h.pending[rank] = append(h.pending[rank],
			indextable.Span{Entry: i, First: 0, Count: h.table.Entry(i).Count})
	}
}

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
	return h.importLocked(srcTable, img.Image, 0, srcTable.Len())
}

// importLocked is the one receiver-makes-right master import, shared by
// image restore (every entry) and entry migration (one entry). src holds
// index-table entries [lo,hi) in srcTable's layout, starting at entry lo's
// first byte. They are converted to this home's representation with pointer
// members translated into its address space, written to the master, queued
// as whole-entry catch-up spans for every rank whose replica the home
// tracks (the fan-out applyUpdates uses: registered peers, and carried
// ranks yet to re-register) and mirrored to the replicators. The home is
// dirty afterwards, so any other rank is seeded in full when it registers.
// Caller holds h.mu.
func (h *Home) importLocked(srcTable *indextable.Table, src []byte, lo, hi int) error {
	copt := convert.Options{Ptr: convert.PtrTranslate, Translator: h.table.Translator(srcTable)}
	origin := srcTable.Entry(lo).Offset
	ups := make([]wire.Update, 0, hi-lo)
	for i := lo; i < hi; i++ {
		se := srcTable.Entry(i)
		data, _, err := convert.ScalarRun(nil, h.plat, src[se.Offset-origin:][:se.Bytes()],
			srcTable.Platform(), se.CType, se.Count, copt)
		if err != nil {
			return err
		}
		ups = append(ups, wire.Update{Entry: int32(i), First: 0, Count: int32(se.Count), Data: data})
	}
	for i := range ups {
		if err := h.master.RawWrite(h.table.Entry(lo+i).Offset, ups[i].Data); err != nil {
			return err
		}
		span := indextable.Span{Entry: lo + i, First: 0, Count: int(ups[i].Count)}
		for rank := range h.peers {
			h.pending[rank] = append(h.pending[rank], span)
		}
		for rank := range h.carried {
			if _, registered := h.peers[rank]; !registered {
				h.pending[rank] = append(h.pending[rank], span)
			}
		}
	}
	h.dirty = true
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
	var q *transport.SendQueue
	if h.opts.OpTimeout > 0 {
		// Deadline plane on: decouple this stub from a slow consumer. A
		// peer that stops draining wedges the queue's writer, not the stub;
		// overflow sheds the frame and the stub treats the conn as broken,
		// exactly as if the send had failed — the peer's deadline-expired
		// replay re-materializes whatever was dropped.
		q = transport.NewSendQueue(c, homeQueueCap, transport.OverflowShed)
		c = q
	}
	h.lmu.Lock()
	if h.conns != nil {
		h.conns[c] = true
	}
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
	// platform; its pending queue is discarded (the new replica is blank
	// and will be seeded with the full state).
	defer h.removePeer(p)
	if q != nil {
		h.lmu.Lock()
		h.queues[p.rank] = q
		h.lmu.Unlock()
		defer func() {
			h.lmu.Lock()
			if h.queues[p.rank] == q {
				delete(h.queues, p.rank)
			}
			h.lmu.Unlock()
		}()
	}
	for {
		msg, err := h.recv(c, &in)
		if err != nil {
			return
		}
		if msg.Epoch > h.epoch {
			h.fence(msg.Epoch)
			return
		}
		if p.pendOpen && msg.Seq > p.pendSeq {
			// A later request proves the in-flight barrier release was
			// processed; its pending-queue drain is now safe to commit.
			h.commitPending(p, p.pendMark)
			p.pendOpen = false
		}
		if len(msg.Heat) > 0 && h.opts.HeatSink != nil {
			// Piggybacked page-heat samples feed the migration planner
			// before the request is served, so a release that crosses the
			// threshold can be acted on at the very boundary it created.
			h.opts.HeatSink(p.rank, msg.Heat)
		}
		switch msg.Kind {
		case wire.KindLockReq:
			// The freeze check is inside acquire, atomic with the
			// grant: checking here first would race Detach's snapshot.
			err = h.handleLock(c, p, msg)
		case wire.KindUnlockReq:
			// Releases are always processed: a holder must be able to
			// drain so a detaching home can reach quiescence. (A held
			// lock blocks the snapshot, so an unlock can never arrive
			// after it.)
			err = h.handleUnlock(c, p, msg)
		case wire.KindBarrierReq:
			err = h.handleBarrier(c, p, msg)
		case wire.KindFlushReq:
			err = h.handleFlush(c, p, msg)
		case wire.KindFetchReq:
			// Fetches are answered even while frozen: the data is
			// consistent until the handoff snapshot, and a redirect
			// would race the thread's critical section. (The successor
			// serves later fetches after the thread's next acquire.)
			err = h.handleFetch(c, p, msg)
		case wire.KindJoinReq:
			err = h.handleJoin(c, p, msg)
		case wire.KindSyncReq:
			err = h.handleSync(c, p, msg)
		case wire.KindLockAck:
			// A grant ack that lost its race with a reconnect lands on
			// the fresh stub; the grant was delivered, so ignore it.
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
		delete(h.pending, p.rank)
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

// Done exposes the join-completion channel so multi-home clusters can wait
// on a shard that may be replaced (crash-restarted) while they wait.
func (h *Home) Done() <-chan struct{} { return h.done }

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
	conns := make([]transport.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.conns = nil
	h.lmu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	// Wake handler goroutines parked in a barrier generation; their
	// release sends fail on the severed connections and they exit instead
	// of waiting on a barrier that can never fill again.
	h.mu.Lock()
	for _, bs := range h.barriers {
		bs.ranks = make(map[int32]uint64)
		gen := bs.gen
		bs.gen = make(chan struct{})
		close(gen)
	}
	h.mu.Unlock()
}

// Sever cuts every live connection while keeping the listeners open — a
// transient network loss around one home shard, as opposed to Kill's
// crash. Threads reconnect through their HA conns and re-register; barrier
// state is deliberately NOT reset: a replayed arrival re-keys its rank in
// the open generation (count unchanged), and the handler goroutines parked
// in arrive() drain once the generation fills — their release send fails
// on the severed conn, and the replayed arrival is answered through the
// release watermark.
func (h *Home) Sever() {
	h.lmu.Lock()
	conns := make([]transport.Conn, 0, len(h.conns))
	for c := range h.conns {
		conns = append(conns, c)
	}
	h.lmu.Unlock()
	for _, c := range conns {
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
	h.opts.Trace.Record(h.node, trace.KindDetach, -1, -1, 0,
		fmt.Sprintf("fenced: saw epoch %d, own epoch %d", newer, h.epoch))
	// Fencing is a black-box moment: note it and dump the flight ring so
	// the post-mortem shows the protocol events that led here.
	h.opts.Flight.Note(h.node, flight.KindFence, -1, newer, h.epoch)
	h.opts.Flight.Trip(fmt.Sprintf("%s fenced: saw epoch %d, own epoch %d", h.node, newer, h.epoch))
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
	h.opts.Trace.Record(h.node, trace.KindHello, msg.Rank, -1, 0, msg.Platform)
	p := &peer{rank: msg.Rank, plat: plat, table: ptable}
	h.mu.Lock()
	if h.fenced {
		h.mu.Unlock()
		return nil, fmt.Errorf("dsd: home fenced by a newer epoch")
	}
	if _, dup := h.peers[p.rank]; dup {
		h.mu.Unlock()
		return nil, fmt.Errorf("dsd: rank %d already registered", p.rank)
	}
	h.peers[p.rank] = p
	if h.carried[p.rank] && msg.Flags&wire.FlagWarmReplica != 0 {
		// Handoff-carried rank re-registering with its original
		// replica: the carried pending queue is its exact catch-up.
		delete(h.carried, p.rank)
	} else if h.carried[p.rank] {
		// Carried rank arriving with a FRESH replica (it migrated
		// after the handoff): the carried queue is useless; seed the
		// full state instead.
		delete(h.carried, p.rank)
		h.pending[p.rank] = nil
		h.seedFullLocked(p.rank)
	} else if h.dirty {
		h.seedFullLocked(p.rank)
	}
	h.mu.Unlock()
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

func (h *Home) handleLock(c transport.Conn, p *peer, msg *wire.Message) error {
	var acqStart time.Time
	if h.hm.enabled {
		acqStart = time.Now()
	}
	switch h.acquire(msg.Mutex, p.rank) {
	case acqFrozen:
		return h.redirect(c, p.rank)
	case acqNotOwned:
		return h.sendForward(c, p, msg)
	}
	if h.hm.enabled {
		h.hm.lockWait.Observe(time.Since(acqStart).Seconds())
	}
	// The grant must be durable at the standby before the client enters
	// its critical section, or a failover could hand the mutex to a
	// second thread.
	h.repFlush()
	updates, mark := h.peekPending(p)
	h.opts.Trace.Record(h.node, trace.KindLockGrant, p.rank, msg.Mutex, wire.UpdateBytes(updates), "")
	h.opts.Flight.Note(h.node, flight.KindGrant, p.rank, uint64(uint32(msg.Mutex)), h.epoch)
	if err := h.send(c, &wire.Message{
		Kind:     wire.KindLockGrant,
		Mutex:    msg.Mutex,
		Rank:     p.rank,
		Platform: h.plat.Name,
		Base:     h.table.Base(),
		Updates:  updates,
	}); err != nil {
		// The grantee vanished; put the lock back so others proceed.
		// Under StickyLocks the disconnect is presumed transient: the
		// grantee keeps the mutex and its replayed request is re-granted
		// (with the pending queue intact, since nothing was committed).
		if !h.opts.StickyLocks {
			h.releaseIfHolder(msg.Mutex, p.rank)
		}
		return err
	}
	// The ack wait is bounded by the requester's own budget: if its
	// deadline passes, it has already severed the conn and will replay the
	// lock request — waiting longer only pins the grant state.
	ack, err := h.recvBudget(c, msg.DeadlineMS, &p.ack)
	if err != nil {
		if !h.opts.StickyLocks {
			h.releaseIfHolder(msg.Mutex, p.rank)
		}
		return err
	}
	if ack.Kind != wire.KindLockAck {
		if !h.opts.StickyLocks {
			h.releaseIfHolder(msg.Mutex, p.rank)
		}
		return fmt.Errorf("dsd: expected lock-ack, got %v", ack.Kind)
	}
	h.commitPending(p, mark)
	return nil
}

func (h *Home) handleUnlock(c transport.Conn, p *peer, msg *wire.Message) error {
	if !h.ownsLock(msg.Mutex) {
		// A held mutex never migrates (MigrateLockIf refuses), so this is
		// a stale-cache delivery or a replay after the (free) mutex moved;
		// nothing here to release. Correct the sender's cache.
		return h.sendForward(c, p, msg)
	}
	if err := h.applyUpdates(p, msg); err != nil {
		if err == errMoved {
			// Unreachable while the quiescence protocol holds (a held
			// lock blocks the snapshot), but redirect defensively.
			return h.redirect(c, p.rank)
		}
		if err == errNotOwned {
			return h.sendForward(c, p, msg)
		}
		return err
	}
	h.opts.Trace.Record(h.node, trace.KindUnlock, p.rank, msg.Mutex, wire.UpdateBytes(msg.Updates), "")
	// Guarding on the holder makes a replayed unlock (re-sent after a
	// reconnect, already applied via the watermark) a no-op instead of
	// releasing a mutex some other thread now holds.
	h.releaseIfHolder(msg.Mutex, p.rank)
	h.repFlush()
	return h.send(c, &wire.Message{Kind: wire.KindUnlockAck, Mutex: msg.Mutex, Rank: p.rank})
}

func (h *Home) handleBarrier(c transport.Conn, p *peer, msg *wire.Message) error {
	if msg.Seq != 0 && h.releasedMark(p.rank) >= msg.Seq {
		// Replay of an arrival whose generation already opened (the
		// release was lost with the connection): re-entering the barrier
		// would wait for peers that have long moved on, so answer with a
		// release straight away. The pending queue holds everything the
		// rank has not yet acknowledged seeing.
		return h.sendBarrierRelease(c, p, msg.Mutex, msg.Seq)
	}
	if err := h.applyUpdates(p, msg); err != nil {
		if err == errMoved {
			return h.redirect(c, p.rank)
		}
		if err == errNotOwned {
			return h.sendForward(c, p, msg)
		}
		return err
	}
	h.opts.Trace.Record(h.node, trace.KindBarrierArrive, p.rank, msg.Mutex, wire.UpdateBytes(msg.Updates), "")
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
	return h.sendBarrierRelease(c, p, msg.Mutex, msg.Seq)
}

// sendBarrierRelease ships a barrier release carrying the rank's pending
// updates. The queue drain is not committed here: releases carry no ack,
// so the drain commits when the rank's next request (Seq > reqSeq) proves
// this release was processed; until then a replayed arrival re-delivers.
func (h *Home) sendBarrierRelease(c transport.Conn, p *peer, mutex int32, reqSeq uint64) error {
	updates, mark := h.peekPending(p)
	if err := h.send(c, &wire.Message{
		Kind:     wire.KindBarrierRelease,
		Mutex:    mutex,
		Rank:     p.rank,
		Platform: h.plat.Name,
		Base:     h.table.Base(),
		Updates:  updates,
	}); err != nil {
		return err
	}
	p.pendOpen = true
	p.pendMark = mark
	p.pendSeq = reqSeq
	return nil
}

func (h *Home) handleFlush(c transport.Conn, p *peer, msg *wire.Message) error {
	if err := h.applyUpdates(p, msg); err != nil {
		if err == errMoved {
			return h.redirect(c, p.rank)
		}
		if err == errNotOwned {
			return h.sendForward(c, p, msg)
		}
		return err
	}
	h.opts.Trace.Record(h.node, trace.KindFlush, p.rank, -1, wire.UpdateBytes(msg.Updates), "")
	h.repFlush()
	return h.send(c, &wire.Message{Kind: wire.KindFlushAck, Rank: p.rank})
}

// handleFetch materializes current master data for explicitly requested
// spans (invalidate protocol): tags (t_tag) plus data (t_pack), exactly
// like a grant, but demand-driven.
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
	for _, s := range spans {
		if !h.ownsEntry(s.Entry) {
			// The requested element lives at a sibling shard now; serving
			// our copy could return pre-migration data.
			return h.sendForward(c, p, msg)
		}
	}
	spans = indextable.MergeSpans(spans)

	tagStart := time.Now()
	tags := make([]string, len(spans))
	for i, s := range spans {
		tags[i] = h.table.SpanTag(s).String()
	}
	h.bd.Add(stats.Tag, time.Since(tagStart))

	packStart := time.Now()
	updates := make([]wire.Update, len(spans))
	var packBytes int
	h.mu.Lock()
	for i, s := range spans {
		n := h.table.SpanBytes(s)
		buf := make([]byte, n)
		if _, err := h.master.Read(h.table.SpanOffset(s), n, buf); err != nil {
			h.mu.Unlock()
			return err
		}
		packBytes += n
		updates[i] = wire.Update{
			Entry: int32(s.Entry), First: int32(s.First), Count: int32(s.Count),
			Tag: tags[i], Data: buf,
		}
	}
	h.mu.Unlock()
	h.bd.AddBytes(stats.Pack, time.Since(packStart), packBytes)
	return h.send(c, &wire.Message{
		Kind:     wire.KindFetchReply,
		Rank:     p.rank,
		Platform: h.plat.Name,
		Base:     h.table.Base(),
		Updates:  updates,
	})
}

func (h *Home) handleJoin(c transport.Conn, p *peer, msg *wire.Message) error {
	if err := h.applyUpdates(p, msg); err != nil {
		if err == errMoved {
			return h.redirect(c, p.rank)
		}
		if err == errNotOwned {
			return h.sendForward(c, p, msg)
		}
		return err
	}
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
	h.opts.Trace.Record(h.node, trace.KindJoin, p.rank, -1, 0, "")
	h.repFlush()
	return h.send(c, &wire.Message{Kind: wire.KindJoinAck, Rank: p.rank})
}

// handleSync serves a KindSyncReq: the sharded acquire path's gather leg.
// After the lock-owner shard grants, the thread's proxy pulls outstanding
// pending updates from every OTHER shard with a sync round. Unlike barrier
// releases, the reply carries an explicit three-way ack: the drain commits
// only on KindSyncAck, so a reply lost to a severed shard connection is
// re-materialized for the replayed request.
func (h *Home) handleSync(c transport.Conn, p *peer, msg *wire.Message) error {
	updates, mark := h.peekPending(p)
	h.opts.Trace.Record(h.node, trace.KindLockGrant, p.rank, -1, wire.UpdateBytes(updates), "sync")
	if err := h.send(c, &wire.Message{
		Kind:     wire.KindSyncReply,
		Seq:      msg.Seq,
		Rank:     p.rank,
		Platform: h.plat.Name,
		Base:     h.table.Base(),
		Updates:  updates,
	}); err != nil {
		return err
	}
	ack, err := h.recvBudget(c, msg.DeadlineMS, &p.ack)
	if err != nil {
		return err
	}
	if ack.Kind != wire.KindSyncAck {
		return fmt.Errorf("dsd: expected sync-ack, got %v", ack.Kind)
	}
	h.commitPending(p, mark)
	return nil
}

// errMoved reports an update-bearing request arriving after the handoff
// snapshot; the caller answers with a redirect.
var errMoved = fmt.Errorf("dsd: home state already handed off")

// errNotOwned reports a request touching an entry (or lock) the directory
// maps to a sibling shard — the sender's cache is stale. The caller answers
// with a KindDirForward correction; nothing was applied.
var errNotOwned = fmt.Errorf("dsd: entry owned by another shard")

// sendForward answers a misdelivered request with directory corrections:
// the current owner (and mapping version) of every entry the request
// touched, plus the lock mapping for lock-addressed kinds. The sender
// updates its cache and re-routes — at most one extra hop per stale
// mapping, since the correction carries the authoritative owner.
func (h *Home) sendForward(c transport.Conn, p *peer, msg *wire.Message) error {
	if h.opts.Directory == nil {
		return fmt.Errorf("dsd: forward without a directory")
	}
	var dir []wire.DirEntry
	seen := make(map[int32]bool, len(msg.Updates))
	for i := range msg.Updates {
		e := msg.Updates[i].Entry
		if seen[e] {
			continue
		}
		seen[e] = true
		shard, ver := h.opts.Directory.EntryOwner(int(e))
		dir = append(dir, wire.DirEntry{Object: e, Shard: shard, Ver: ver})
	}
	switch msg.Kind {
	case wire.KindLockReq, wire.KindUnlockReq:
		shard, ver := h.opts.Directory.LockOwner(msg.Mutex)
		dir = append(dir, wire.DirEntry{Object: msg.Mutex, Lock: true, Shard: shard, Ver: ver})
	}
	h.opts.Trace.Record(h.node, trace.KindRedirect, p.rank, msg.Mutex, 0,
		fmt.Sprintf("dir-forward %v", msg.Kind))
	return h.send(c, &wire.Message{
		Kind:  wire.KindDirForward,
		Seq:   msg.Seq,
		Rank:  p.rank,
		Mutex: msg.Mutex,
		Dir:   dir,
	})
}

// acqResult is acquire's outcome: granted, refused because the home is
// frozen for handoff, or refused because the directory moved the mutex to
// a sibling shard.
type acqResult int

const (
	acqGranted acqResult = iota
	acqFrozen
	acqNotOwned
)

// acquire blocks until mutex idx is held by rank's thread, or reports
// why it cannot be (the freeze and ownership checks are atomic with the
// grant — a check-then-acquire would race the detach snapshot or a
// MigrateLockIf publish, both of which run under h.mu). A waiter enqueued
// before the freeze may still be granted afterwards via release handoff;
// the unbroken held chain keeps the snapshot waiting until that thread
// releases. A waiter can never be orphaned by lock migration: MigrateLockIf
// refuses to move a mutex with holders or waiters.
func (h *Home) acquire(idx, rank int32) acqResult {
	h.mu.Lock()
	for h.frozen {
		// Park until the detach resolves either way: a published successor
		// means redirect; an abandoned freeze means serve after all.
		thawed := h.thawed
		h.mu.Unlock()
		select {
		case <-h.redirectReady:
			return acqFrozen
		case <-thawed:
		}
		h.mu.Lock()
	}
	if !h.ownsLock(idx) {
		h.mu.Unlock()
		return acqNotOwned
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
		return acqGranted
	}
	if ls.holder == rank {
		// Replayed request from a reconnected holder whose grant was
		// lost in flight: re-grant rather than deadlocking behind
		// ourselves. Well-synchronized programs never double-lock, so
		// this branch only fires on replay.
		h.mu.Unlock()
		return acqGranted
	}
	ch := make(chan struct{})
	ls.waiters = append(ls.waiters, lockWaiter{ch: ch, rank: rank})
	h.mu.Unlock()
	<-ch // ownership handed off by release
	return acqGranted
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
		h.opts.Trace.Record(h.node, trace.KindBarrierOpen, -1, idx, 0, "")
		close(gen)
		return true, nil
	}
	h.mu.Unlock()
	<-gen
	return true, nil
}

// releasedMark returns rank's barrier-release watermark.
func (h *Home) releasedMark(rank int32) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.released[rank]
}

// applyUpdates converts incoming updates to the home representation
// (receiver makes right, t_conv), applies them to the master copy, and
// queues the spans for every other thread. An update whose representation
// is already the home's (convert.FastPath) is written to the master
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
	if p.translator == nil {
		p.translator = h.table.Translator(p.table)
	}
	copt := convert.Options{Ptr: convert.PtrTranslate, Translator: p.translator}

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
		srcSize := len(u.Data) / int(u.Count)
		if want := p.plat.CSizeOf(e.CType); srcSize != want {
			return fmt.Errorf("dsd: update %s element size %d, want %d on %s",
				e.Name, srcSize, want, p.plat)
		}
		cv := converted{
			span: indextable.Span{Entry: int(u.Entry), First: int(u.First), Count: int(u.Count)},
			data: u.Data,
		}
		if !convert.FastPath(h.plat, p.plat, e.CType, copt) {
			// Earlier views stay valid if the append moves p.conv: the old
			// array keeps the bytes already converted into it.
			at := len(p.conv)
			var err error
			if p.conv, _, err = convert.ScalarRun(p.conv, h.plat, u.Data, p.plat, e.CType, int(u.Count), copt); err != nil {
				return err
			}
			cv.data = p.conv[at:]
		}
		convBytes += len(u.Data)
		p.convs = append(p.convs, cv)
	}
	convDur := time.Since(start)
	h.bd.AddBytes(stats.Conv, convDur, convBytes)
	if h.opts.Spans != nil && msg.Seq != 0 {
		h.opts.Spans.RecordCtx(h.node, telemetry.StageConv, p.rank, msg.Seq, msg.TraceID,
			telemetry.SpanID(msg.TraceID, h.node, telemetry.StageUnpack, p.rank), start, convDur, convBytes)
	}

	var applyStart time.Time
	if h.hm.enabled || h.opts.Spans != nil {
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
		// writes) but would re-queue spans; skip cleanly.
		return nil
	}
	// Ownership gate, atomic with migration (TransferEntry publishes under
	// both home mutexes): refuse the WHOLE request before any write lands,
	// so a partial application can never slip through a stale cache. The
	// check sits after the replay gate — entries this shard applied while
	// it owned them stay deduplicated even after they migrate away.
	for _, cv := range p.convs {
		if !h.ownsEntry(cv.span.Entry) {
			return errNotOwned
		}
	}
	h.dirty = true
	replicating := len(h.reps) > 0
	// Every other registered rank gets the spans queued, and so do
	// handoff-carried ranks that have not re-registered yet: their carried
	// queue is their exact catch-up, and missing this window would lose
	// updates.
	others := p.others[:0]
	for rank := range h.peers {
		if rank != p.rank {
			others = append(others, rank)
		}
	}
	for rank := range h.carried {
		if _, registered := h.peers[rank]; rank != p.rank && !registered {
			others = append(others, rank)
		}
	}
	p.others = others
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
		for _, rank := range others {
			h.pending[rank] = append(h.pending[rank], cv.span)
		}
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
	if h.opts.Spans != nil && msg.Seq != 0 {
		h.opts.Spans.RecordCtx(h.node, telemetry.StageApply, p.rank, msg.Seq, msg.TraceID,
			telemetry.SpanID(msg.TraceID, h.node, telemetry.StageConv, p.rank), applyStart, time.Since(applyStart), convBytes)
	}
	return nil
}

// peekPending materializes the pending updates for one thread without
// draining the queue: coalesce spans, form tags (t_tag), copy master data
// (t_pack's gather half). The encode half of t_pack is charged in send.
// Under the invalidate protocol only the spans travel, as data-less
// records. The updates and their data are the peer's scratch, valid until
// its next peek — the send that encodes them is their only reader. The
// returned mark is the raw queue length covered by the peek;
// commitPending(mark) drains exactly that prefix once delivery is
// confirmed, so spans appended meanwhile survive and a lost grant or
// release can be re-materialized for the replayed request.
func (h *Home) peekPending(p *peer) ([]wire.Update, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	mark := len(h.pending[p.rank])
	// Entries that migrated away since their spans were queued must not be
	// materialized from our master copy — the new owner may have applied
	// newer releases, making ours stale. The new owner queued conservative
	// full-entry spans for every rank at transfer time, so dropping the
	// stale ones here loses nothing. The mark still covers the raw prefix:
	// the drop happens at materialization, never by editing the queue.
	spans := p.grant[:0]
	for _, s := range h.pending[p.rank] {
		if h.ownsEntry(s.Entry) {
			spans = append(spans, s)
		}
	}
	spans = indextable.MergeInPlace(spans)
	p.grant = spans
	if len(spans) == 0 {
		return nil, mark
	}
	updates := p.grantUps[:0]
	if h.opts.Protocol == ProtocolInvalidate {
		for _, s := range spans {
			updates = append(updates, wire.Update{Entry: int32(s.Entry), First: int32(s.First), Count: int32(s.Count)})
		}
		p.grantUps = updates
		return updates, mark
	}
	spans = h.table.Widen(spans, h.opts.WholeArrayThreshold)

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
	return updates, mark
}

// commitPending drains the first mark raw entries of a rank's pending
// queue — the prefix a prior peekPending materialized — now that their
// delivery is confirmed (lock-ack received, or a later request arrived).
func (h *Home) commitPending(p *peer, mark int) {
	h.mu.Lock()
	// In place: every reader of a queue copies it under h.mu, so the
	// backing array can be kept for the spans queued next.
	q := h.pending[p.rank]
	h.pending[p.rank] = q[:copy(q, q[min(mark, len(q)):])]
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
	m.Shard = h.opts.Shard
	start := time.Now()
	frame, err := wire.Encode(m)
	if err != nil {
		return err
	}
	h.bd.Add(stats.Pack, time.Since(start))
	h.hm.frameSent.Observe(float64(len(frame)))
	if err := c.SendFrame(frame); err != nil {
		if errors.Is(err, transport.ErrQueueFull) {
			h.hm.shed.Inc()
		}
		return err
	}
	return nil
}

// QueueStat is one peer's bounded-outbound-queue snapshot for /stats.
type QueueStat struct {
	Rank      int32
	Depth     int
	OldestAge time.Duration
	Enqueued  uint64
	Sent      uint64
	Shed      uint64
}

// QueueStats snapshots every connected peer's outbound queue, rank order.
// Empty when the deadline plane is off (no queues exist).
func (h *Home) QueueStats() []QueueStat {
	now := time.Now()
	h.lmu.Lock()
	out := make([]QueueStat, 0, len(h.queues))
	for rank, q := range h.queues {
		enq, sent := q.Progress()
		out = append(out, QueueStat{
			Rank: rank, Depth: q.Depth(), OldestAge: q.OldestAge(now),
			Enqueued: enq, Sent: sent, Shed: q.Shed(),
		})
	}
	h.lmu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// DeadlineExceeded returns how many budget-bounded home-side waits expired
// on a requester's stamped deadline budget (0 with the plane unused).
func (h *Home) DeadlineExceeded() uint64 { return h.deadlineHits.Load() }

// recv receives and decodes (t_unpack) a message into m, the caller's
// receive buffer, and returns m. Update-bearing requests get an unpack
// span against their (rank, seq) release id — the home-side continuation
// of the sender's index/tag/pack/ship spans.
func (h *Home) recv(c transport.Conn, m *wire.Message) (*wire.Message, error) {
	frame, err := c.RecvFrame()
	if err != nil {
		return nil, err
	}
	return h.decode(frame, m)
}

// recvBudget receives like recv but bounds the wait by the peer-supplied
// relative budget (the request's DeadlineMS): the home must not block its
// stub longer than the peer is willing to wait, or a vanished peer pins
// home-side state (a granted lock, an undrained pending queue) for the
// whole TCP timeout. Zero budget means the peer runs undeadlined — wait
// indefinitely, the seed behavior.
func (h *Home) recvBudget(c transport.Conn, budgetMS uint32, m *wire.Message) (*wire.Message, error) {
	if budgetMS == 0 {
		return h.recv(c, m)
	}
	frame, err := transport.RecvFrameDeadline(c, time.Now().Add(time.Duration(budgetMS)*time.Millisecond))
	if err != nil {
		if errors.Is(err, transport.ErrDeadline) {
			h.deadlineHits.Add(1)
			h.hm.deadlines.Inc()
		}
		return nil, err
	}
	return h.decode(frame, m)
}

// decode is recv's second half: unpack a received frame into m and record
// its telemetry.
func (h *Home) decode(frame []byte, m *wire.Message) (*wire.Message, error) {
	h.hm.frameRecv.Observe(float64(len(frame)))
	start := time.Now()
	if err := wire.DecodeInto(m, frame); err != nil {
		return nil, err
	}
	unpackDur := time.Since(start)
	h.bd.AddBytes(stats.Unpack, unpackDur, wire.UpdateBytes(m.Updates))
	if h.opts.Spans != nil && m.Seq != 0 && len(m.Updates) > 0 {
		// Parent to the sender's ship span, carried on the frame; the rest
		// of the home-side chain (conv, apply) hangs off this span.
		h.opts.Spans.RecordCtx(h.node, telemetry.StageUnpack, m.Rank, m.Seq, m.TraceID, m.ParentSpan, start, unpackDur, wire.UpdateBytes(m.Updates))
	}
	return m, nil
}
