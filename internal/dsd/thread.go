package dsd

import (
	"errors"
	"fmt"
	"math/rand"
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

// Thread is one DSD worker: a rank, a platform, a GThV replica in that
// platform's layout, and a connection to its stub at the home node. All
// methods must be called from the single goroutine that owns the thread
// (the paper's one-thread-one-address-space model).
type Thread struct {
	rank int32
	plat *platform.Platform
	opts Options
	gthv tag.Struct
	conn transport.Conn

	layout     *tag.Layout
	table      *indextable.Table
	seg        *vmem.Segment
	globals    *Globals
	homePlat   *platform.Platform
	homeTable  *indextable.Table
	translator convert.Translator

	bd  stats.Breakdown
	seq atomic.Uint64
	tm  threadMetrics

	// proto is the home's propagation protocol, adopted at registration.
	proto Protocol
	// homeEpoch is the highest fencing epoch this thread has seen from a
	// home. A handshake or frame from a lower epoch is a stale incarnation
	// (a revived pre-failover primary, say) and is rejected.
	homeEpoch uint64
	// warm marks that the replica already holds state synchronized with a
	// previous home; set before redirect re-registrations.
	warm bool
	// invalid tracks element spans whose local copies are stale under the
	// invalidate protocol; reads overlapping them fetch from the home.
	invalid []indextable.Span
	// pending tracks element spans written locally since the last release
	// point, sorted and merged (each store is one InsertSpan). A local
	// write is authoritative until its release ships it, so incoming
	// updates (lock grants, barrier releases, fetch replies — in particular
	// a home's conservative catch-up after a reconnect or an entry
	// re-homing) must never overwrite these spans: doing so would silently
	// lose the write, because applying remote data also rewrites the twin
	// and erases the diff.
	pending []indextable.Span

	// Buffers the thread owns and reuses across releases, so the steady
	// state allocates no scratch: the release scan's spans, the updates
	// built over them (views into the replica, valid until rearm), the
	// heat samples, the receive message, conversion output, and the gaps
	// an incoming update is applied through.
	spans   []indextable.Span
	updates []wire.Update
	heat    []wire.HeatSample
	in      wire.Message
	conv    []byte
	frags   []indextable.Span
	tags    tagCache

	// nw and addr are set by Dial-created threads and enable transparent
	// home-handoff redirect following; Connect-created threads (raw
	// conns, in-process pipes) cannot follow redirects.
	nw   transport.Network
	addr string

	// rc is set by DialHA-created threads: conn is then a reconnecting
	// wrapper whose OnConnect re-registers with whichever home answers,
	// and call retries requests across connection failures.
	rc *transport.Reconn
	// frames recycles the encode buffers of sent frames; nil on HA
	// threads, which encode every frame afresh (see frameBufs).
	frames *frameBufs

	// deadline is the current attempt's expiry, armed at the top of each
	// call attempt when Options.OpTimeout is set; zero means unbounded.
	// Single-goroutine like the rest of the thread, so unguarded.
	deadline time.Time
	// retryRng jitters the backoff between deadline-expired replays so a
	// cluster of expired ranks does not hammer a recovering home in
	// lockstep; seeded per rank for reproducibility.
	retryRng *rand.Rand
	// deadlineHits counts attempts that expired (mirrors the
	// dsm_op_deadline_exceeded counter for metric-less threads).
	deadlineHits atomic.Uint64
}

// Connect performs the hello handshake over an established connection and
// returns a ready thread with an armed (write-protected) replica.
func Connect(conn transport.Conn, p *platform.Platform, rank int32, gthv tag.Struct, opts Options) (*Thread, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Base%uint64(p.PageSize) != 0 {
		return nil, fmt.Errorf("dsd: base %#x not aligned to %s page size %d", opts.Base, p, p.PageSize)
	}
	layout, err := tag.NewLayout(gthv, p)
	if err != nil {
		return nil, err
	}
	table, err := indextable.Build(layout, opts.Base)
	if err != nil {
		return nil, err
	}
	seg, err := vmem.NewSegment(opts.Base, layout.Size, p.PageSize)
	if err != nil {
		return nil, err
	}
	t := &Thread{
		rank:   rank,
		plat:   p,
		opts:   opts,
		gthv:   gthv,
		conn:   conn,
		layout: layout,
		table:  table,
		seg:    seg,
		tm:     newThreadMetrics(opts.Metrics),
		frames: new(frameBufs),
	}
	t.initDeadlinePlane()
	t.globals = newGlobals(p, table, seg)
	t.globals.ensure = t.ensureValid
	t.globals.wrote = t.noteLocalWrite
	t.globals.rec = opts.Recorder
	t.globals.rank = rank
	if err := t.handshake(); err != nil {
		return nil, err
	}
	t.seg.ProtectAll()
	return t, nil
}

// handshake registers the thread with its (possibly new, after a redirect)
// home and learns the home's platform and base for conversions.
func (t *Thread) handshake() error { return t.handshakeOn(t.conn) }

// handshakeOn runs the hello exchange over an explicit connection. HA
// threads install it as the Reconn's OnConnect hook, which hands them the
// raw, freshly dialed conn — sending through t.conn there would re-enter
// the redial path and deadlock.
func (t *Thread) handshakeOn(c transport.Conn) error {
	var flags uint8
	if t.warm {
		flags |= wire.FlagWarmReplica
	}
	if err := t.sendOn(c, &wire.Message{
		Kind:     wire.KindHello,
		Rank:     t.rank,
		Platform: t.plat.Name,
		Base:     t.opts.Base,
		Flags:    flags,
	}); err != nil {
		return err
	}
	ack, err := t.recvOn(c)
	if err != nil {
		return err
	}
	if ack.Kind != wire.KindHelloAck {
		return fmt.Errorf("dsd: expected %v, got %v", wire.KindHelloAck, ack.Kind)
	}
	if ack.Epoch != 0 && ack.Epoch < t.homeEpoch {
		// A home from an older epoch answered (the revived original after
		// a failover or WAL restart). Registering with it would fork the
		// master state; refuse, and let the reconnect policy find the
		// current incarnation.
		return fmt.Errorf("dsd: home at stale epoch %d, already saw %d", ack.Epoch, t.homeEpoch)
	}
	if ack.Epoch > t.homeEpoch {
		t.homeEpoch = ack.Epoch
	}
	t.homePlat = platform.ByName(ack.Platform)
	if t.homePlat == nil {
		return fmt.Errorf("dsd: home reported unknown platform %q", ack.Platform)
	}
	homeLayout, err := tag.NewLayout(t.gthv, t.homePlat)
	if err != nil {
		return err
	}
	t.homeTable, err = indextable.Build(homeLayout, ack.Base)
	if err != nil {
		return err
	}
	t.translator = t.table.Translator(t.homeTable)
	t.proto = Protocol(ack.Proto)
	// From now on the replica tracks this home: any later registration
	// (redirect, reconnect) is a warm one, and the home's pending queue
	// for this rank is its exact catch-up.
	t.warm = true
	return nil
}

// Protocol returns the propagation protocol in force (the home's choice).
func (t *Thread) Protocol() Protocol { return t.proto }

// noteLocalWrite records the span in the pending set and drops any stale
// marking: the local write is authoritative until the next release point.
func (t *Thread) noteLocalWrite(entry, first, count int) {
	sp := indextable.Span{Entry: entry, First: first, Count: count}
	t.pending = indextable.InsertSpan(t.pending, sp)
	if len(t.invalid) == 0 {
		return
	}
	t.invalid = indextable.SubtractSpan(t.invalid, sp)
}

// ensureValid makes [first, first+count) of entry current before a read:
// under the invalidate protocol, any overlap with the invalid set is
// fetched from the home on demand.
func (t *Thread) ensureValid(entry, first, count int) error {
	if len(t.invalid) == 0 {
		return nil
	}
	want := indextable.Span{Entry: entry, First: first, Count: count}
	need := indextable.IntersectSpans(t.invalid, want)
	if len(need) == 0 {
		return nil
	}
	req := make([]wire.Update, len(need))
	for i, s := range need {
		req[i] = wire.Update{Entry: int32(s.Entry), First: int32(s.First), Count: int32(s.Count)}
	}
	reply, err := t.call(&wire.Message{
		Kind:    wire.KindFetchReq,
		Rank:    t.rank,
		Updates: req,
	}, wire.KindFetchReply)
	if err != nil {
		return err
	}
	if err := t.applyIncoming(reply); err != nil {
		return err
	}
	for _, s := range need {
		t.invalid = indextable.SubtractSpan(t.invalid, s)
	}
	return nil
}

// Dial connects to a home node over a network and returns a ready thread.
func Dial(nw transport.Network, addr string, p *platform.Platform, rank int32, gthv tag.Struct, opts Options) (*Thread, error) {
	conn, err := nw.Dial(addr)
	if err != nil {
		return nil, err
	}
	t, err := Connect(conn, p, rank, gthv, opts)
	if err != nil {
		conn.Close()
		return nil, err
	}
	t.nw = nw
	t.addr = addr
	return t, nil
}

// DialHA connects to a home that may fail over: addrs lists the candidate
// homes (primary first, then standbys). The connection is a reconnecting
// wrapper — when it breaks, the next request redials through the candidate
// list with capped exponential backoff and jitter, re-registers via the
// hello handshake, and re-sends the in-flight request under its original
// sequence number so the home (original or promoted standby) applies it at
// most once.
func DialHA(nw transport.Network, addrs []string, p *platform.Platform, rank int32, gthv tag.Struct, opts Options) (*Thread, error) {
	return DialHABackoff(nw, addrs, p, rank, gthv, opts, transport.DefaultBackoff())
}

// DialHABackoff is DialHA with an explicit reconnect policy.
func DialHABackoff(nw transport.Network, addrs []string, p *platform.Platform, rank int32, gthv tag.Struct, opts Options, policy transport.Backoff) (*Thread, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Base%uint64(p.PageSize) != 0 {
		return nil, fmt.Errorf("dsd: base %#x not aligned to %s page size %d", opts.Base, p, p.PageSize)
	}
	layout, err := tag.NewLayout(gthv, p)
	if err != nil {
		return nil, err
	}
	table, err := indextable.Build(layout, opts.Base)
	if err != nil {
		return nil, err
	}
	seg, err := vmem.NewSegment(opts.Base, layout.Size, p.PageSize)
	if err != nil {
		return nil, err
	}
	rc := transport.NewReconn(nw, addrs, policy)
	t := &Thread{
		rank:   rank,
		plat:   p,
		opts:   opts,
		gthv:   gthv,
		conn:   rc,
		layout: layout,
		table:  table,
		seg:    seg,
		nw:     nw,
		rc:     rc,
		tm:     newThreadMetrics(opts.Metrics),
	}
	t.initDeadlinePlane()
	t.globals = newGlobals(p, table, seg)
	t.globals.ensure = t.ensureValid
	t.globals.wrote = t.noteLocalWrite
	t.globals.rec = opts.Recorder
	t.globals.rank = rank
	rc.OnConnect = func(c transport.Conn) error {
		if err := t.handshakeOn(c); err != nil {
			return err
		}
		t.opts.Trace.Record(t.traceName(), trace.KindReconnect, t.rank, -1, 0, "")
		return nil
	}
	if err := rc.Connect(); err != nil {
		rc.Close()
		return nil, err
	}
	t.seg.ProtectAll()
	return t, nil
}

// Reconnects returns how many times this thread's connection was redialed
// after a failure (0 for non-HA threads and unbroken HA threads).
func (t *Thread) Reconnects() uint64 {
	if t.rc == nil {
		return 0
	}
	return t.rc.Reconnects()
}

// Rank returns the thread's iso-computing rank.
func (t *Thread) Rank() int32 { return t.rank }

// HomeEpoch returns the highest fencing epoch this thread has adopted
// from a home (1 for a never-failed cluster).
func (t *Thread) HomeEpoch() uint64 { return t.homeEpoch }

// Platform returns the thread's virtual platform.
func (t *Thread) Platform() *platform.Platform { return t.plat }

// Globals returns the typed view of the replica.
func (t *Thread) Globals() *Globals { return t.globals }

// Stats returns this thread's Cshare breakdown (index/tag/pack on release,
// unpack/conversion on acquire).
func (t *Thread) Stats() *stats.Breakdown { return &t.bd }

// Segment exposes the underlying replica segment for inspection (fault
// counts, twin bytes); tests and the migration layer use it.
func (t *Thread) Segment() *vmem.Segment { return t.seg }

// Heat returns the replica's page-heat report: per-page fault/diff
// counters with false-sharing suspects, hottest pages first.
func (t *Thread) Heat() vmem.HeatReport { return t.seg.Heat() }

// Close tears down the connection.
func (t *Thread) Close() error { return t.conn.Close() }

// call sends a request and receives the expected reply, transparently
// following home-handoff redirects (KindRedirect) when the thread was
// created with Dial: it reconnects to the new home, re-registers, and
// re-sends the request.
//
// HA threads (DialHA) additionally retry the request across connection
// failures: the re-send goes through the reconnecting conn, whose redial
// re-registers with whichever home answers — the original after a transient
// partition, or a promoted standby after a failover. The request keeps its
// sequence number (send stamps it once), so the home recognizes a replay of
// something it already processed and answers idempotently.
func (t *Thread) call(m *wire.Message, want wire.Kind) (*wire.Message, error) {
	attempts := 4
	if t.rc != nil {
		// Each failed attempt already rode out a full redial cycle, so
		// this bounds total patience, not dial count.
		attempts = 16
	}
	// Deadline expiries retry on a separate, larger budget: a lock or
	// barrier wait legitimately outlives OpTimeout under contention, and
	// every expiry severed the connection, so the replay is exactly the
	// reconnect replay the idempotency watermarks already dedup. The cap
	// only bounds a permanently wedged cluster.
	deadlineRetries := 0
	const maxDeadlineRetries = 64
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		t.armDeadline()
		if err := t.send(m); err != nil {
			if t.rc != nil {
				lastErr = err
				if t.deadlineExpired(err) && deadlineRetries < maxDeadlineRetries {
					deadlineRetries++
					attempt--
				}
				continue
			}
			return nil, err
		}
		reply, err := t.recvAny()
		if err != nil {
			if t.rc != nil {
				lastErr = err
				if t.deadlineExpired(err) && deadlineRetries < maxDeadlineRetries {
					deadlineRetries++
					attempt--
				}
				continue
			}
			return nil, err
		}
		if reply.Kind == wire.KindRedirect {
			if err := t.followRedirect(reply.Addr); err != nil {
				return nil, err
			}
			continue
		}
		if reply.Kind != want {
			return nil, fmt.Errorf("dsd: expected %v, got %v", want, reply.Kind)
		}
		return reply, nil
	}
	if lastErr != nil {
		return nil, fmt.Errorf("dsd: %v gave up after %d attempts: %w", m.Kind, attempts, lastErr)
	}
	return nil, fmt.Errorf("dsd: too many home redirects")
}

// initDeadlinePlane arms the per-attempt deadline machinery when
// Options.OpTimeout is set; with it unset every field stays zero and the
// send/recv paths take the exact pre-deadline code path.
func (t *Thread) initDeadlinePlane() {
	if t.opts.OpTimeout > 0 {
		t.retryRng = rand.New(rand.NewSource(0x6ea511 + int64(t.rank)))
	}
}

// armDeadline starts a fresh attempt budget (no-op with OpTimeout unset).
func (t *Thread) armDeadline() {
	if t.opts.OpTimeout > 0 {
		t.deadline = time.Now().Add(t.opts.OpTimeout)
	}
}

// deadlineExpired reports whether err is an attempt-deadline expiry,
// counting it and sleeping a short jittered backoff so expired ranks do
// not replay against a recovering home in lockstep.
func (t *Thread) deadlineExpired(err error) bool {
	if !errors.Is(err, transport.ErrDeadline) {
		return false
	}
	t.deadlineHits.Add(1)
	t.tm.deadlines.Inc()
	if t.retryRng != nil {
		time.Sleep(time.Duration(t.retryRng.Int63n(int64(4*time.Millisecond))) + time.Millisecond)
	}
	return true
}

// DeadlineExceeded returns how many operation attempts hit their OpTimeout
// and were retried over a fresh connection (0 with the plane disabled).
func (t *Thread) DeadlineExceeded() uint64 { return t.deadlineHits.Load() }

// followRedirect reconnects to a moved home and re-registers.
func (t *Thread) followRedirect(addr string) error {
	if addr == "" {
		return fmt.Errorf("dsd: redirect without an address")
	}
	if t.rc != nil {
		// Point the reconnecting conn at the new home (keeping the old
		// candidates as fallbacks) and let the next send's redial run the
		// re-handshake through OnConnect.
		old := t.rc.Addrs()
		addrs := []string{addr}
		for _, a := range old {
			if a != addr {
				addrs = append(addrs, a)
			}
		}
		t.rc.SetAddrs(addrs)
		t.opts.Trace.Record(t.traceName(), trace.KindRedirect, t.rank, -1, 0, "to "+addr)
		return nil
	}
	if t.nw == nil {
		return fmt.Errorf("dsd: home moved to %q but this thread cannot redial (created with Connect, not Dial)", addr)
	}
	conn, err := t.nw.Dial(addr)
	if err != nil {
		return fmt.Errorf("dsd: following redirect to %q: %w", addr, err)
	}
	t.conn.Close()
	t.conn = conn
	t.addr = addr
	// The replica carries its state to the new home. (A crashed-and-
	// reincarnated rank that reaches the successor through the old
	// address would wrongly claim warmth; distinguishing that would need
	// replica generation numbers. Migration, the supported path, closes
	// the connection instead and re-registers cold.)
	t.warm = true
	t.opts.Trace.Record(t.traceName(), trace.KindRedirect, t.rank, -1, 0, "to "+addr)
	return t.handshake()
}

// Lock acquires distributed mutex idx (MTh_lock): the grant carries all
// outstanding updates, which are converted receiver-makes-right and applied
// before Lock returns.
func (t *Thread) Lock(idx int) error {
	var acqStart time.Time
	if t.tm.enabled {
		acqStart = time.Now()
	}
	grant, err := t.call(&wire.Message{Kind: wire.KindLockReq, Mutex: int32(idx), Rank: t.rank}, wire.KindLockGrant)
	if err != nil {
		return err
	}
	if t.tm.enabled {
		t.tm.lockAcquire.Observe(time.Since(acqStart).Seconds())
		t.tm.locks.Inc()
	}
	if err := t.applyIncoming(grant); err != nil {
		return err
	}
	if t.opts.Recorder != nil {
		t.opts.Recorder.Acquire(t.rank, idx)
	}
	// The ack is the one request without a reply; for HA threads a re-send
	// rides the reconnecting conn onto a fresh connection, whose home-side
	// stub tolerates a stray ack.
	ack := &wire.Message{Kind: wire.KindLockAck, Mutex: int32(idx), Rank: t.rank}
	attempts := 1
	if t.rc != nil {
		attempts = 16
	}
	var sendErr error
	for i := 0; i < attempts; i++ {
		t.armDeadline()
		if sendErr = t.send(ack); sendErr == nil {
			return nil
		}
	}
	return sendErr
}

// Unlock releases mutex idx (MTh_unlock): dirty pages are diffed, the
// diffs abstracted to index spans (t_index), tagged (t_tag), packed and
// shipped home with the release.
func (t *Thread) Unlock(idx int) error {
	updates, st := t.collectUpdates()
	m := &wire.Message{
		Kind:     wire.KindUnlockReq,
		Mutex:    int32(idx),
		Rank:     t.rank,
		Platform: t.plat.Name,
		Base:     t.opts.Base,
		Updates:  updates,
		Heat:     t.heatDelta(),
	}
	var shipStart time.Time
	if t.observesReleases() {
		shipStart = time.Now()
	}
	if _, err := t.call(m, wire.KindUnlockAck); err != nil {
		return err
	}
	if t.opts.Recorder != nil {
		t.opts.Recorder.Release(t.rank, idx)
	}
	if t.observesReleases() {
		t.finishRelease(m, st, shipStart)
	}
	t.rearm()
	return nil
}

// Barrier enters barrier idx (MTh_barrier): local updates are flushed like
// an unlock, the thread waits for all participants, and the merged updates
// of the phase are applied before Barrier returns.
func (t *Thread) Barrier(idx int) error {
	if t.opts.Recorder != nil {
		t.opts.Recorder.BarrierEnter(t.rank, idx)
	}
	updates, st := t.collectUpdates()
	m := &wire.Message{
		Kind:     wire.KindBarrierReq,
		Mutex:    int32(idx),
		Rank:     t.rank,
		Platform: t.plat.Name,
		Base:     t.opts.Base,
		Updates:  updates,
		Heat:     t.heatDelta(),
	}
	var shipStart time.Time
	if t.observesReleases() {
		shipStart = time.Now()
	}
	release, err := t.call(m, wire.KindBarrierRelease)
	if err != nil {
		return err
	}
	if t.observesReleases() {
		d := time.Since(shipStart)
		t.tm.barriers.Inc()
		t.tm.barrierWait.Observe(d.Seconds())
		t.tm.diffBytes.Observe(float64(st.bytes))
		t.emitReleaseSpans(m, st, shipStart, d)
	}
	if err := t.applyIncoming(release); err != nil {
		return err
	}
	if t.opts.Recorder != nil {
		t.opts.Recorder.BarrierExit(t.rank, idx)
	}
	t.rearm()
	return nil
}

// Flush pushes the current detection window's dirty updates home without
// touching any lock. The migration protocol calls it at the capture safe
// point so writes made since the last release survive the replica being
// abandoned; well-synchronized programs never need it directly.
func (t *Thread) Flush() error {
	updates, st := t.collectUpdates()
	m := &wire.Message{
		Kind:     wire.KindFlushReq,
		Rank:     t.rank,
		Platform: t.plat.Name,
		Base:     t.opts.Base,
		Updates:  updates,
		Heat:     t.heatDelta(),
	}
	var shipStart time.Time
	if t.observesReleases() {
		shipStart = time.Now()
	}
	if _, err := t.call(m, wire.KindFlushAck); err != nil {
		return err
	}
	if t.observesReleases() {
		t.finishRelease(m, st, shipStart)
	}
	t.rearm()
	return nil
}

// Join announces termination (MTh_join), flushing any remaining updates so
// the final state reaches the base thread.
func (t *Thread) Join() error {
	updates, st := t.collectUpdates()
	m := &wire.Message{
		Kind:     wire.KindJoinReq,
		Rank:     t.rank,
		Platform: t.plat.Name,
		Base:     t.opts.Base,
		Updates:  updates,
		Heat:     t.heatDelta(),
	}
	var shipStart time.Time
	if t.observesReleases() {
		shipStart = time.Now()
	}
	if _, err := t.call(m, wire.KindJoinAck); err != nil {
		return err
	}
	if t.opts.Recorder != nil {
		t.opts.Recorder.Join(t.rank)
	}
	if t.observesReleases() {
		t.finishRelease(m, st, shipStart)
	}
	return nil
}

// rearm restarts the write-detection window after a release point. The
// pending set clears with it: the release shipped every outstanding local
// write, so remote updates may touch those spans again.
func (t *Thread) rearm() {
	t.seg.ProtectAll()
	t.pending = t.pending[:0]
}

// heatDelta returns the page-fault counts accrued since the last release
// message — the pages that trapped since then — as piggyback samples for
// the home's heat sink. Shipping deltas (not cumulative totals) lets the
// sink accumulate across releases without per-thread bookkeeping; a
// replayed release re-delivers its samples, a harmless overcount for an
// advisory signal. Returns nil when nothing new trapped, costing the
// message no bytes. The slice is the thread's own, valid until the next
// release.
func (t *Thread) heatDelta() []wire.HeatSample {
	t.heat = t.heat[:0]
	t.seg.TakeFaults(func(page int, faults uint64) {
		t.heat = append(t.heat, wire.HeatSample{Page: int32(page), Faults: uint32(faults)})
	})
	if len(t.heat) == 0 {
		return nil
	}
	return t.heat
}

// collectUpdates runs the release-side pipeline: the fused twin scan and
// index mapping (t_index), tag formation (t_tag), and the updates over the
// replica (t_pack; their bytes are copied once, by the encode in send).
// The updates and their Data are the thread's own buffers and views into
// the replica, valid until rearm. The returned relStages reuses the stage
// clocks the Eq. 1 stats already require, so span recording costs nothing
// extra here.
func (t *Thread) collectUpdates() ([]wire.Update, relStages) {
	var st relStages
	st.indexStart = time.Now()
	t.spans = t.table.ReleaseSpans(t.spans, t.seg, t.opts.Coalesce, t.opts.WholeArrayThreshold)
	st.indexDur = time.Since(st.indexStart)
	t.bd.Add(stats.Index, st.indexDur)
	if len(t.spans) == 0 {
		return nil, st
	}

	st.tagStart = time.Now()
	t.updates = t.updates[:0]
	for _, s := range t.spans {
		t.updates = append(t.updates, wire.Update{
			Entry: int32(s.Entry),
			First: int32(s.First),
			Count: int32(s.Count),
			Tag:   t.tags.tag(t.table, s),
		})
	}
	st.tagDur = time.Since(st.tagStart)
	t.bd.Add(stats.Tag, st.tagDur)

	st.packStart = time.Now()
	var packBytes int
	for i, s := range t.spans {
		data, err := t.seg.View(t.table.SpanOffset(s), t.table.SpanBytes(s))
		if err != nil {
			panic(fmt.Sprintf("dsd: replica view of own span failed: %v", err))
		}
		packBytes += len(data)
		t.updates[i].Data = data
	}
	st.packDur = time.Since(st.packStart)
	st.bytes = packBytes
	t.bd.AddBytes(stats.Pack, st.packDur, packBytes)
	return t.updates, st
}

// applyIncoming converts a grant's or release's updates to the local
// representation (t_conv) and applies them to the replica without
// disturbing local write detection.
func (t *Thread) applyIncoming(msg *wire.Message) error {
	if len(msg.Updates) == 0 {
		return nil
	}
	if err := msg.Validate(); err != nil {
		return err
	}
	srcP := t.homePlat
	if msg.Platform != "" && msg.Platform != srcP.Name {
		srcP = platform.ByName(msg.Platform)
		if srcP == nil {
			return fmt.Errorf("dsd: update from unknown platform %q", msg.Platform)
		}
	}
	copt := convert.Options{Ptr: convert.PtrTranslate, Translator: t.translator}
	start := time.Now()
	var convBytes int
	for i := range msg.Updates {
		u := &msg.Updates[i]
		if int(u.Entry) >= t.table.Len() {
			return fmt.Errorf("dsd: update entry %d out of range", u.Entry)
		}
		e := t.table.Entry(int(u.Entry))
		if int(u.First)+int(u.Count) > e.Count {
			return fmt.Errorf("dsd: update %s[%d..%d) exceeds %d elements",
				e.Name, u.First, int(u.First)+int(u.Count), e.Count)
		}
		span := indextable.Span{Entry: int(u.Entry), First: int(u.First), Count: int(u.Count)}
		if len(u.Data) == 0 {
			// Invalidation record (invalidate protocol): mark stale.
			t.invalid = indextable.InsertSpan(t.invalid, span)
			continue
		}
		if srcSize := len(u.Data) / int(u.Count); srcSize != srcP.CSizeOf(e.CType) {
			return fmt.Errorf("dsd: update %s element size %d, want %d on %s",
				e.Name, srcSize, srcP.CSizeOf(e.CType), srcP)
		}
		data := u.Data
		if !convert.FastPath(t.plat, srcP, e.CType, copt) {
			var err error
			if t.conv, _, err = convert.ScalarRun(t.conv[:0], t.plat, u.Data, srcP, e.CType, int(u.Count), copt); err != nil {
				return err
			}
			data = t.conv
		}
		convBytes += len(u.Data)
		// Apply around the pending set: a span written locally since the
		// last release is authoritative here (exactly as the RC model keeps
		// dirty cells through an acquire's refresh), and a conservative
		// catch-up grant after a reconnect or re-homing must not erase it.
		t.frags = indextable.AppendGaps(t.frags[:0], t.pending, span)
		for _, f := range t.frags {
			off := e.Offset + f.First*e.ElemSize
			b := data[(f.First-int(u.First))*e.ElemSize : (f.First-int(u.First)+f.Count)*e.ElemSize]
			if err := t.seg.ApplyRemote(off, b); err != nil {
				return err
			}
		}
	}
	t.bd.AddBytes(stats.Conv, time.Since(start), convBytes)
	if t.opts.Trace != nil {
		t.opts.Trace.Record(t.traceName(), trace.KindApply, t.rank, -1, convBytes, "from "+srcP.Name)
	}
	return nil
}

// traceName labels this thread's trace events.
func (t *Thread) traceName() string {
	return fmt.Sprintf("rank-%d@%s", t.rank, t.plat.Name)
}

// send encodes (t_pack) and transmits. The sequence number is stamped only
// once, on the first transmission: a request re-sent after a reconnect must
// carry the same id so the home's idempotency watermarks recognize the
// replay.
func (t *Thread) send(m *wire.Message) error {
	return t.sendOn(t.conn, m)
}

// sendOn is send over an explicit connection (see handshakeOn).
func (t *Thread) sendOn(c transport.Conn, m *wire.Message) error {
	if m.Seq == 0 {
		m.Seq = t.seq.Add(1)
		if t.opts.Spans != nil && m.TraceID == 0 {
			// Mint the causal trace context exactly once, alongside the
			// sequence number: a replayed request keeps its trace identity,
			// and the receiver parents its spans to our ship span without
			// the id ever being negotiated.
			m.TraceID = telemetry.NewTraceID(t.rank)
			m.ParentSpan = telemetry.SpanID(m.TraceID, t.traceName(), telemetry.StageShip, t.rank)
		}
	}
	// Echo the adopted epoch: a stale home that receives a frame stamped
	// with a higher epoch fences itself.
	m.Epoch = t.homeEpoch
	// Stamp the remaining attempt budget (relative, so it survives clock
	// skew) so the home can bound its own blocking on our behalf. Re-stamped
	// per transmission: a replay carries its fresh attempt's budget.
	if !t.deadline.IsZero() {
		m.DeadlineMS = 0
		if rem := time.Until(t.deadline); rem > 0 {
			m.DeadlineMS = uint32(rem/time.Millisecond) + 1
		}
	}
	start := time.Now()
	frame, err := t.frames.encode(m)
	if err != nil {
		return err
	}
	t.bd.Add(stats.Pack, time.Since(start))
	t.tm.frameSent.Observe(float64(len(frame)))
	if err := transport.SendFrameDeadline(c, frame, t.deadline); err != nil {
		t.frames.abandon()
		return err
	}
	return nil
}

// frameBufs recycles the encode buffers of the frames a thread sends.
// Once a reply arrives, the home is done with every frame sent before it:
// a stub serves its conn one request at a time, answers only after
// handling the request, and keeps no view of it past that (a replicator
// gets copies). So a reply frees those buffers for the next encodes, and a
// steady-state release copies its payload into a buffer an earlier release
// used instead of allocating a frame the size of the payload. After a failed
// send or receive a stub may still be reading, so those buffers are
// abandoned, never reused. HA threads get none: their conn redials inside
// a send, onto a home while the old stub may still read the last frame.
// A nil *frameBufs encodes every frame afresh.
type frameBufs struct {
	free, sent [][]byte
}

// encode encodes m into a free buffer, which stays the receiver's until
// answered.
func (f *frameBufs) encode(m *wire.Message) ([]byte, error) {
	if f == nil {
		return wire.Encode(m)
	}
	frame, err := wire.AppendEncode(f.take(), m)
	if err == nil {
		f.sent = append(f.sent, frame)
	}
	return frame, err
}

// take removes a free buffer, nil if none is free. Buffers only grow, so
// after the first few releases every one fits the largest frame.
func (f *frameBufs) take() []byte {
	n := len(f.free)
	if n == 0 {
		return nil
	}
	buf := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return buf
}

// answered frees every frame sent so far: a reply has arrived.
func (f *frameBufs) answered() {
	if f == nil {
		return
	}
	f.free = append(f.free, f.sent...)
	f.abandon()
}

// abandon forgets the frames sent so far without reusing them.
func (f *frameBufs) abandon() {
	if f == nil {
		return
	}
	clear(f.sent)
	f.sent = f.sent[:0]
}

// recvAny receives and decodes (t_unpack) the next message.
func (t *Thread) recvAny() (*wire.Message, error) {
	return t.recvOn(t.conn)
}

// recvOn is recvAny over an explicit connection (see handshakeOn). The
// message is the thread's own receive buffer, valid until the next receive;
// every caller is done with a reply before it receives again.
func (t *Thread) recvOn(c transport.Conn) (*wire.Message, error) {
	frame, err := transport.RecvFrameDeadline(c, t.deadline)
	if err != nil {
		t.frames.abandon()
		return nil, err
	}
	t.frames.answered()
	t.tm.frameRecv.Observe(float64(len(frame)))
	start := time.Now()
	m := &t.in
	if err := wire.DecodeInto(m, frame); err != nil {
		return nil, err
	}
	t.bd.AddBytes(stats.Unpack, time.Since(start), wire.UpdateBytes(m.Updates))
	if m.Epoch != 0 && m.Epoch < t.homeEpoch {
		// Frame from a stale home incarnation. The request this answers
		// carried our higher epoch, so that home is fencing itself; the
		// error here just keeps the stale reply from being applied.
		return nil, fmt.Errorf("dsd: frame from stale epoch %d, already saw %d", m.Epoch, t.homeEpoch)
	}
	if m.Epoch > t.homeEpoch {
		t.opts.Flight.Note(t.traceName(), flight.KindEpochAdopt, t.rank, m.Epoch, t.homeEpoch)
		t.homeEpoch = m.Epoch
	}
	return m, nil
}

// recv receives, decodes (t_unpack) and checks the message kind.
func (t *Thread) recv(want wire.Kind) (*wire.Message, error) {
	m, err := t.recvAny()
	if err != nil {
		return nil, err
	}
	if m.Kind != want {
		return nil, fmt.Errorf("dsd: expected %v, got %v", want, m.Kind)
	}
	return m, nil
}
