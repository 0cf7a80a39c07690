package dir

import (
	"fmt"
	"time"

	"hetdsm/internal/platform"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// maxHops bounds forward chasing per operation. Each KindDirForward carries
// the authoritative mapping, so one hop per stale entry suffices; the bound
// only guards against a mapping churning faster than the proxy can chase it.
const maxHops = 8

// shardAttempts bounds per-request retries across shard reconnects,
// matching the thread-side HA patience in Thread.call.
const shardAttempts = 16

// proxy is the per-thread shim between one worker thread and the shard
// fleet. The thread speaks the ordinary single-home DSD protocol over its
// connection; the proxy splits releases by entry ownership, gathers
// acquires from every shard, and chases directory forwards — so the thread
// never learns that the home is sharded.
//
// A proxy is single-threaded (one op at a time, driven by its thread), so
// its sequence counter and ownership cache need no locking. Every
// shard-bound frame gets a fresh sequence number at construction; retries
// inside callShard re-send the same message object, so a replay after a
// reconnect carries the same id and the shard's idempotency watermarks
// recognize it.
type proxy struct {
	cl    *Cluster
	rank  int32
	cache *cache

	// conns[i] reconnects to shard i; epochs[i] is that shard's fencing
	// epoch as last seen. Epochs are per-shard — a WAL restart bumps only
	// one shard — so shard-bound frames are stamped with that shard's own
	// epoch (stamping the max would falsely fence a healthy sibling), while
	// thread-facing frames carry the monotone maximum.
	conns    []*transport.Reconn
	epochs   []uint64
	maxEpoch uint64
	seq      uint64

	// traceID and parentSpan hold the trace context of the thread op in
	// flight; the proxy is single-threaded per op, so stamping them on
	// every shard-bound frame needs no locking. node labels the proxy's
	// own forward spans.
	traceID    uint64
	parentSpan uint64
	node       string

	threadPlat  string
	threadBase  uint64
	threadFlags uint8

	homePlat string
	homeBase uint64
	proto    uint8
	gotHome  bool
}

// serveProxy runs the proxy protocol for one thread connection. A
// connection whose first message is a ping enters heartbeat mode, like
// Home.ServeConn.
func (cl *Cluster) serveProxy(c transport.Conn) {
	defer c.Close()
	px := &proxy{cl: cl, cache: newCache(cl.dir.Shards())}
	defer px.closeShards()
	first, err := recvMsg(c)
	if err != nil {
		return
	}
	if first.Kind == wire.KindPing {
		px.servePings(c, first)
		return
	}
	if err := px.hello(c, first); err != nil {
		return
	}
	for {
		msg, err := recvMsg(c)
		if err != nil {
			return
		}
		// Adopt the op's trace context: every shard-bound frame the op
		// spawns (splits, gathers, syncs) inherits it, so the whole fan-out
		// stitches under the thread's one trace id.
		px.traceID, px.parentSpan = msg.TraceID, msg.ParentSpan
		px.noteHeat(msg)
		switch msg.Kind {
		case wire.KindLockReq:
			err = px.doLock(c, msg)
		case wire.KindUnlockReq:
			err = px.doUnlock(c, msg)
		case wire.KindBarrierReq:
			err = px.doBarrier(c, msg)
		case wire.KindFlushReq:
			err = px.doFlush(c, msg)
		case wire.KindFetchReq:
			err = px.doFetch(c, msg)
		case wire.KindJoinReq:
			err = px.doJoin(c, msg)
		case wire.KindPing:
			err = px.sendThread(c, &wire.Message{Kind: wire.KindPong, Seq: msg.Seq, Rank: msg.Rank})
		default:
			err = fmt.Errorf("dir: unexpected %v from rank %d", msg.Kind, px.rank)
		}
		if err != nil {
			return
		}
	}
}

func (px *proxy) servePings(c transport.Conn, first *wire.Message) {
	msg := first
	for {
		if err := px.sendThread(c, &wire.Message{Kind: wire.KindPong, Seq: msg.Seq, Rank: msg.Rank}); err != nil {
			return
		}
		var err error
		msg, err = recvMsg(c)
		if err != nil || msg.Kind != wire.KindPing {
			return
		}
	}
}

// hello registers the thread with every shard and answers its handshake.
// The ack is sent only after all shards responded, because the home
// platform and base it carries come from the shards themselves.
func (px *proxy) hello(c transport.Conn, msg *wire.Message) error {
	if msg.Kind != wire.KindHello {
		return fmt.Errorf("dir: expected hello, got %v", msg.Kind)
	}
	px.rank = msg.Rank
	px.threadPlat = msg.Platform
	px.threadBase = msg.Base
	px.threadFlags = msg.Flags
	p := platform.ByName(msg.Platform)
	if p == nil {
		return fmt.Errorf("dir: unknown platform %q", msg.Platform)
	}
	if err := px.cl.heat.registerRank(px.rank, p, msg.Base); err != nil {
		return err
	}
	n := len(px.cl.addrs)
	px.conns = make([]*transport.Reconn, n)
	px.epochs = make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		rc := transport.NewReconn(px.cl.nw, []string{px.cl.addrs[i]}, px.cl.backoffFor(px.rank, i))
		rc.OnConnect = func(raw transport.Conn) error { return px.helloShard(i, raw) }
		px.conns[i] = rc
	}
	for i := range px.conns {
		if err := px.conns[i].Connect(); err != nil {
			return err
		}
	}
	return px.sendThread(c, &wire.Message{
		Kind:     wire.KindHelloAck,
		Rank:     px.rank,
		Platform: px.homePlat,
		Base:     px.homeBase,
		Proto:    px.proto,
	})
}

// helloShard is the per-shard re-handshake, installed as the Reconn's
// OnConnect hook: it runs over every freshly dialed shard connection, so a
// severed shard link heals with a re-registration the same way HA threads
// do against a single home.
func (px *proxy) helloShard(i int, raw transport.Conn) error {
	m := &wire.Message{
		Kind:     wire.KindHello,
		Seq:      px.nextSeq(),
		Rank:     px.rank,
		Platform: px.threadPlat,
		Base:     px.threadBase,
		Flags:    px.threadFlags,
		Epoch:    px.epochs[i],
	}
	frame, err := wire.Encode(m)
	if err != nil {
		return err
	}
	if err := raw.SendFrame(frame); err != nil {
		return err
	}
	reply, err := raw.RecvFrame()
	if err != nil {
		return err
	}
	ack, err := wire.Decode(reply)
	if err != nil {
		return err
	}
	if ack.Kind != wire.KindHelloAck {
		return fmt.Errorf("dir: shard %d: expected hello-ack, got %v", i, ack.Kind)
	}
	if ack.Epoch != 0 && ack.Epoch < px.epochs[i] {
		return fmt.Errorf("dir: shard %d at stale epoch %d, already saw %d", i, ack.Epoch, px.epochs[i])
	}
	px.adoptEpoch(i, ack.Epoch)
	if !px.gotHome {
		px.homePlat, px.homeBase, px.proto = ack.Platform, ack.Base, ack.Proto
		px.gotHome = true
	} else if ack.Platform != px.homePlat || ack.Base != px.homeBase {
		return fmt.Errorf("dir: shard %d at %s/%#x, cluster at %s/%#x",
			i, ack.Platform, ack.Base, px.homePlat, px.homeBase)
	}
	return nil
}

func (px *proxy) closeShards() {
	for _, rc := range px.conns {
		if rc != nil {
			rc.Close()
		}
	}
}

func (px *proxy) nextSeq() uint64 {
	px.seq++
	return px.seq
}

func (px *proxy) adoptEpoch(i int, epoch uint64) {
	if epoch > px.epochs[i] {
		px.epochs[i] = epoch
	}
	if epoch > px.maxEpoch {
		px.maxEpoch = epoch
	}
}

// sendThread stamps the monotone maximum epoch so the thread's own fencing
// check (which rejects any decrease) never trips on shard skew.
func (px *proxy) sendThread(c transport.Conn, m *wire.Message) error {
	m.Epoch = px.maxEpoch
	frame, err := wire.Encode(m)
	if err != nil {
		return err
	}
	return c.SendFrame(frame)
}

func recvMsg(c transport.Conn) (*wire.Message, error) {
	frame, err := c.RecvFrame()
	if err != nil {
		return nil, err
	}
	return wire.Decode(frame)
}

func (px *proxy) sendShard(i int, m *wire.Message) error {
	m.Epoch = px.epochs[i]
	if m.TraceID == 0 {
		m.TraceID, m.ParentSpan = px.traceID, px.parentSpan
	}
	frame, err := wire.Encode(m)
	if err != nil {
		return err
	}
	return px.conns[i].SendFrame(frame)
}

func (px *proxy) recvShard(i int) (*wire.Message, error) {
	frame, err := px.conns[i].RecvFrame()
	if err != nil {
		return nil, err
	}
	m, err := wire.Decode(frame)
	if err != nil {
		return nil, err
	}
	if m.Epoch != 0 && m.Epoch < px.epochs[i] {
		return nil, fmt.Errorf("dir: shard %d frame from stale epoch %d, already saw %d", i, m.Epoch, px.epochs[i])
	}
	px.adoptEpoch(i, m.Epoch)
	return m, nil
}

// callShard sends m and waits for a reply of kind want (or a directory
// forward, which is returned for the caller to chase). Retries ride the
// reconnecting conn: the same message object is re-sent, so the replay
// carries the same sequence number and the shard's watermarks dedup it.
func (px *proxy) callShard(i int, m *wire.Message, want wire.Kind) (*wire.Message, error) {
	var lastErr error
	for attempt := 0; attempt < shardAttempts; attempt++ {
		if err := px.sendShard(i, m); err != nil {
			lastErr = err
			continue
		}
		reply, err := px.recvShard(i)
		if err != nil {
			lastErr = err
			continue
		}
		if reply.Kind == wire.KindDirForward {
			return reply, nil
		}
		if reply.Kind != want {
			return nil, fmt.Errorf("dir: shard %d: expected %v, got %v", i, want, reply.Kind)
		}
		return reply, nil
	}
	return nil, fmt.Errorf("dir: shard %d: %v gave up after %d attempts: %w", i, m.Kind, shardAttempts, lastErr)
}

// noteForward feeds a KindDirForward's corrections into the ownership
// cache and the cluster's staleness counters.
func (px *proxy) noteForward(reply *wire.Message) {
	changed := px.cache.correct(reply.Dir)
	px.cl.noteForward(changed)
	if ev := px.cl.cfg.Opts.Events; ev != nil && px.traceID != 0 {
		// The wasted hop becomes a forward span on the release's DAG,
		// parented to the thread's ship span like the home-side chain.
		ev.Span(px.nodeName(), telemetry.StageForward, px.rank, 0,
			px.traceID, px.parentSpan, time.Now(), 0, len(reply.Dir))
	}
}

// nodeName labels this proxy's spans.
func (px *proxy) nodeName() string {
	if px.node == "" {
		px.node = fmt.Sprintf("proxy-%d@dir", px.rank)
	}
	return px.node
}

// noteHeat strips piggybacked page-heat samples off a thread request and
// feeds them (plus, for unlocks, the pre-split entry-touch signal the
// shards never see whole) to the migration planner.
func (px *proxy) noteHeat(msg *wire.Message) {
	if len(msg.Heat) > 0 {
		samples := make([]heatSampleView, len(msg.Heat))
		for i, s := range msg.Heat {
			samples[i] = heatSampleView{page: s.Page, faults: s.Faults}
		}
		px.cl.heat.note(px.rank, samples)
		msg.Heat = nil
	}
	if msg.Kind == wire.KindUnlockReq && len(msg.Updates) > 0 {
		seen := make(map[int32]bool, len(msg.Updates))
		entries := make([]int32, 0, len(msg.Updates))
		for i := range msg.Updates {
			e := msg.Updates[i].Entry
			if !seen[e] {
				seen[e] = true
				entries = append(entries, e)
			}
		}
		px.cl.heat.noteLock(msg.Mutex, entries)
	}
}

// gather pulls outstanding pending updates from every shard — including
// whichever shard just served the primary op — under the migration
// read-lock: no transfer can slide entries between shards mid-gather, so
// the union of the shards' queues is complete. The primary op's updates
// are merged first and the thread applies sequentially, so fresher sync
// data wins.
func (px *proxy) gather() ([]wire.Update, error) {
	px.cl.migLock.RLock()
	defer px.cl.migLock.RUnlock()
	var merged []wire.Update
	for i := range px.conns {
		req := &wire.Message{Kind: wire.KindSyncReq, Seq: px.nextSeq(), Rank: px.rank}
		reply, err := px.callShard(i, req, wire.KindSyncReply)
		if err != nil {
			return nil, err
		}
		if reply.Kind == wire.KindDirForward {
			return nil, fmt.Errorf("dir: shard %d forwarded a sync", i)
		}
		merged = append(merged, reply.Updates...)
		// A lost ack only re-materializes the drain for the next sync;
		// pressing on keeps a flaky link from wedging the acquire.
		px.sendShard(i, &wire.Message{Kind: wire.KindSyncAck, Seq: px.nextSeq(), Rank: px.rank})
		px.cl.noteSync()
	}
	return merged, nil
}

// flushSplit ships every update owned by a shard other than exclude to its
// owner, chasing forwards, and returns the updates the cache maps to
// exclude (the caller's primary-op portion). exclude -1 flushes everything.
func (px *proxy) flushSplit(updates []wire.Update, exclude int32) ([]wire.Update, error) {
	work := updates
	for hop := 0; hop <= maxHops; hop++ {
		var kept, redo []wire.Update
		byShard := make(map[int32][]wire.Update)
		for _, u := range work {
			s := px.cache.entryOwner(u.Entry)
			if s == exclude {
				kept = append(kept, u)
				continue
			}
			byShard[s] = append(byShard[s], u)
		}
		if len(byShard) == 0 {
			return kept, nil
		}
		for i := int32(0); int(i) < len(px.conns); i++ {
			part := byShard[i]
			if len(part) == 0 {
				continue
			}
			req := &wire.Message{Kind: wire.KindFlushReq, Seq: px.nextSeq(), Rank: px.rank, Updates: part}
			reply, err := px.callShard(int(i), req, wire.KindFlushAck)
			if err != nil {
				return nil, err
			}
			if reply.Kind == wire.KindDirForward {
				px.noteForward(reply)
				redo = append(redo, part...)
			}
		}
		if len(redo) == 0 {
			return kept, nil
		}
		work = append(kept, redo...)
	}
	return nil, fmt.Errorf("dir: flush chased more than %d forwards for rank %d", maxHops, px.rank)
}

func (px *proxy) doLock(c transport.Conn, msg *wire.Message) error {
	req := &wire.Message{Kind: wire.KindLockReq, Seq: px.nextSeq(), Mutex: msg.Mutex, Rank: px.rank}
	var grant *wire.Message
	var owner int
	for hop := 0; ; hop++ {
		owner = int(px.cache.lockOwner(msg.Mutex))
		reply, err := px.callShard(owner, req, wire.KindLockGrant)
		if err != nil {
			return err
		}
		if reply.Kind == wire.KindDirForward {
			px.noteForward(reply)
			if hop >= maxHops {
				return fmt.Errorf("dir: lock %d chased more than %d forwards", msg.Mutex, maxHops)
			}
			continue
		}
		grant = reply
		break
	}
	// The grant needs no ack: the gather's sync request is this proxy's
	// next request to the owner shard, and it commits the grant's drain.
	extra, err := px.gather()
	if err != nil {
		return err
	}
	return px.sendThread(c, &wire.Message{
		Kind:    wire.KindLockGrant,
		Seq:     msg.Seq,
		Mutex:   msg.Mutex,
		Rank:    px.rank,
		Updates: append(grant.Updates, extra...),
	})
}

func (px *proxy) doUnlock(c transport.Conn, msg *wire.Message) error {
	work := msg.Updates
	for hop := 0; ; hop++ {
		owner := px.cache.lockOwner(msg.Mutex)
		keep, err := px.flushSplit(work, owner)
		if err != nil {
			return err
		}
		req := &wire.Message{Kind: wire.KindUnlockReq, Seq: px.nextSeq(), Mutex: msg.Mutex, Rank: px.rank, Updates: keep}
		start := time.Now()
		reply, err := px.callShard(int(owner), req, wire.KindUnlockAck)
		if err != nil {
			return err
		}
		if reply.Kind == wire.KindDirForward {
			px.noteForward(reply)
			if hop >= maxHops {
				return fmt.Errorf("dir: unlock %d chased more than %d forwards", msg.Mutex, maxHops)
			}
			work = keep
			continue
		}
		px.cl.observeRelease(int(owner), time.Since(start))
		return px.sendThread(c, &wire.Message{Kind: wire.KindUnlockAck, Seq: msg.Seq, Mutex: msg.Mutex, Rank: px.rank})
	}
}

func (px *proxy) doBarrier(c transport.Conn, msg *wire.Message) error {
	owner := int(BarrierOwner(msg.Mutex, px.cl.dir.Shards()))
	work := msg.Updates
	for hop := 0; ; hop++ {
		keep, err := px.flushSplit(work, int32(owner))
		if err != nil {
			return err
		}
		req := &wire.Message{Kind: wire.KindBarrierReq, Seq: px.nextSeq(), Mutex: msg.Mutex, Rank: px.rank, Updates: keep}
		start := time.Now()
		reply, err := px.callShard(owner, req, wire.KindBarrierRelease)
		if err != nil {
			return err
		}
		if reply.Kind == wire.KindDirForward {
			// The barrier owner is static; only stale ENTRY mappings in the
			// carried portion bounce here. Re-split and retry.
			px.noteForward(reply)
			if hop >= maxHops {
				return fmt.Errorf("dir: barrier %d chased more than %d forwards", msg.Mutex, maxHops)
			}
			work = keep
			continue
		}
		px.cl.observeRelease(owner, time.Since(start))
		extra, err := px.gather()
		if err != nil {
			return err
		}
		return px.sendThread(c, &wire.Message{
			Kind:    wire.KindBarrierRelease,
			Seq:     msg.Seq,
			Mutex:   msg.Mutex,
			Rank:    px.rank,
			Updates: append(reply.Updates, extra...),
		})
	}
}

func (px *proxy) doFlush(c transport.Conn, msg *wire.Message) error {
	if _, err := px.flushSplit(msg.Updates, -1); err != nil {
		return err
	}
	return px.sendThread(c, &wire.Message{Kind: wire.KindFlushAck, Seq: msg.Seq, Rank: px.rank})
}

func (px *proxy) doJoin(c transport.Conn, msg *wire.Message) error {
	if _, err := px.flushSplit(msg.Updates, -1); err != nil {
		return err
	}
	// Every shard counts joins toward its own done condition, so each one
	// must hear from every rank.
	for i := range px.conns {
		req := &wire.Message{Kind: wire.KindJoinReq, Seq: px.nextSeq(), Rank: px.rank}
		reply, err := px.callShard(i, req, wire.KindJoinAck)
		if err != nil {
			return err
		}
		if reply.Kind == wire.KindDirForward {
			return fmt.Errorf("dir: shard %d forwarded a join", i)
		}
	}
	return px.sendThread(c, &wire.Message{Kind: wire.KindJoinAck, Seq: msg.Seq, Rank: px.rank})
}

func (px *proxy) doFetch(c transport.Conn, msg *wire.Message) error {
	work := msg.Updates
	var got []wire.Update
	for hop := 0; len(work) > 0; hop++ {
		if hop > maxHops {
			return fmt.Errorf("dir: fetch chased more than %d forwards for rank %d", maxHops, px.rank)
		}
		byShard := make(map[int32][]wire.Update)
		for _, u := range work {
			s := px.cache.entryOwner(u.Entry)
			byShard[s] = append(byShard[s], u)
		}
		var redo []wire.Update
		for i := int32(0); int(i) < len(px.conns); i++ {
			part := byShard[i]
			if len(part) == 0 {
				continue
			}
			req := &wire.Message{Kind: wire.KindFetchReq, Seq: px.nextSeq(), Rank: px.rank, Updates: part}
			reply, err := px.callShard(int(i), req, wire.KindFetchReply)
			if err != nil {
				return err
			}
			if reply.Kind == wire.KindDirForward {
				px.noteForward(reply)
				redo = append(redo, part...)
				continue
			}
			got = append(got, reply.Updates...)
		}
		work = redo
	}
	return px.sendThread(c, &wire.Message{Kind: wire.KindFetchReply, Seq: msg.Seq, Rank: px.rank, Updates: got})
}
