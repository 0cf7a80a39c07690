package ha

import (
	"fmt"
	"sync"

	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// Backup is a hot standby for a DSD home: it consumes the replication
// stream and mirrors the home's durable state as a wire.HomeImage — the
// master image byte-for-byte in the primary's own layout (no conversion on
// the hot path), held locks, the joined set, and the idempotency and
// barrier watermarks. Because the primary's handlers block on replication
// before releasing any client, the mirror is never more than one release
// operation behind what any client has observed.
type Backup struct {
	gthv tag.Struct
	// Counters, when set, is shared observability.
	Counters *Counters
	// Events, when non-nil, records promote events.
	Events *flight.Ring

	mu sync.Mutex
	// img is the mirror, mutated in place by Apply. img.Epoch is the highest
	// fencing epoch seen on the stream; records stamped with a lower epoch
	// come from a fenced-off primary and are rejected.
	img wire.HomeImage
	// table indexes img.Image in the primary's layout; nil until the
	// bootstrap record arrives.
	table    *indextable.Table
	lastSeq  uint64
	promoted bool
}

// NewBackup builds a standby for the given GThV type. Everything else —
// the primary's platform, thread count, image — arrives with the RepInit
// record.
func NewBackup(gthv tag.Struct) *Backup {
	return &Backup{gthv: gthv}
}

// ServeReplication accepts replication connections on l and applies their
// records until the listener closes. It also answers KindPing, so a
// detector can probe the standby itself.
func (b *Backup) ServeReplication(l transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go b.serveConn(c)
	}
}

func (b *Backup) serveConn(c transport.Conn) {
	defer c.Close()
	for {
		frame, err := c.RecvFrame()
		if err != nil {
			return
		}
		m, err := wire.Decode(frame)
		if err != nil {
			return
		}
		switch m.Kind {
		case wire.KindPing:
			out, err := wire.Encode(&wire.Message{Kind: wire.KindPong, Seq: m.Seq, Rank: m.Rank})
			if err != nil || c.SendFrame(out) != nil {
				return
			}
		case wire.KindReplicate:
			if m.Rep == nil {
				return
			}
			if err := b.Apply(m.Rep); err != nil {
				return
			}
			out, err := wire.Encode(&wire.Message{
				Kind: wire.KindReplicateAck,
				Seq:  m.Seq,
				Rep:  &wire.Replication{Seq: m.Rep.Seq},
			})
			if err != nil || c.SendFrame(out) != nil {
				return
			}
		default:
			return
		}
	}
}

// Apply folds one replication record into the mirror. A fresh RepInit
// re-arms a promoted backup: the promoted (or WAL-restarted) home attaches
// a new replication stream whose bootstrap record resets the mirror, so
// protection continues instead of ending at the first failover.
func (b *Backup) Apply(rec *wire.Replication) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if rec.Epoch != 0 && rec.Epoch < b.img.Epoch {
		return fmt.Errorf("ha: replication record from stale epoch %d, stream is at %d", rec.Epoch, b.img.Epoch)
	}
	if rec.Event != wire.RepInit {
		if b.promoted {
			return fmt.Errorf("ha: backup already promoted")
		}
		if rec.Seq != 0 && rec.Seq <= b.lastSeq {
			return nil // duplicate delivery
		}
		if b.table == nil && rec.Event != wire.RepEpoch {
			return fmt.Errorf("ha: %v record before init", rec.Event)
		}
	}
	if rec.Epoch > b.img.Epoch {
		b.img.Epoch = rec.Epoch
	}
	switch rec.Event {
	case wire.RepInit:
		if rec.Home == nil {
			return fmt.Errorf("ha: bootstrap record carries no home image")
		}
		table, err := rec.Home.Validate(b.gthv)
		if err != nil {
			return err
		}
		epoch := b.img.Epoch
		b.img = *rec.Home.Clone() // the record may alias a receive buffer
		// The stream does not carry queue drains, so the cut's catch-up
		// queues go stale with the first record folded on top: drop them,
		// and a home rebuilt from the mirror reseeds every rank in full.
		b.img.Pending, b.img.Known = nil, nil
		if b.img.Epoch < epoch {
			b.img.Epoch = epoch
		}
		b.table = table
		b.promoted = false
		b.lastSeq = rec.Seq
	case wire.RepUpdate:
		for i := range rec.Updates {
			u := &rec.Updates[i]
			if u.Entry < 0 || int(u.Entry) >= b.table.Len() || u.First < 0 || u.Count <= 0 {
				return fmt.Errorf("ha: replicated span %d/%d/%d invalid", u.Entry, u.First, u.Count)
			}
			span := indextable.Span{Entry: int(u.Entry), First: int(u.First), Count: int(u.Count)}
			e := b.table.Entry(span.Entry)
			if span.First+span.Count > e.Count {
				return fmt.Errorf("ha: replicated span %s[%d..%d) exceeds %d elements",
					e.Name, span.First, span.First+span.Count, e.Count)
			}
			if len(u.Data) != b.table.SpanBytes(span) {
				return fmt.Errorf("ha: replicated span %s has %d bytes, want %d",
					e.Name, len(u.Data), b.table.SpanBytes(span))
			}
			copy(b.img.Image[b.table.SpanOffset(span):], u.Data)
		}
		b.img.Dirty = true
		advance(rec.Marks, b.img.Applied)
	case wire.RepLock:
		b.img.Held[rec.Mutex] = rec.Rank
	case wire.RepUnlock:
		delete(b.img.Held, rec.Mutex)
	case wire.RepBarrier:
		advance(rec.Marks, b.img.Released)
	case wire.RepJoin:
		b.img.Joined[rec.Rank] = true
	case wire.RepEpoch:
		// Epoch advance only; the adoption above is the whole effect.
	default:
		return fmt.Errorf("ha: unknown replication event %d", rec.Event)
	}
	if rec.Seq > b.lastSeq {
		b.lastSeq = rec.Seq
	}
	return nil
}

// advance folds watermark advances into a map, never regressing.
func advance(marks []wire.RepPair, into map[int32]uint64) {
	for _, p := range marks {
		if p.Seq > into[p.Rank] {
			into[p.Rank] = p.Seq
		}
	}
}

// Ready reports whether the bootstrap record has arrived.
func (b *Backup) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.table != nil
}

// LastSeq returns the highest replication sequence applied.
func (b *Backup) LastSeq() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastSeq
}

// Epoch returns the highest fencing epoch seen on the stream.
func (b *Backup) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.img.Epoch
}

// InitRecord synthesizes a RepInit record describing the mirror's current
// state, exactly as a home capturing itself would emit. The WAL uses it
// for snapshot compaction: the folded mirror replaces the record tail.
func (b *Backup) InitRecord() (*wire.Replication, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.table == nil {
		return nil, fmt.Errorf("ha: backup has no state to snapshot")
	}
	return &wire.Replication{
		Event: wire.RepInit, Rank: -1, Mutex: -1,
		Seq: b.lastSeq, Epoch: b.img.Epoch, Home: b.img.Clone(),
	}, nil
}

// Promote turns the mirror into a live Home on platform p. The mirror
// carries no per-rank pending queues and no known set, so every rank's
// reconnect handshake reseeds its replica with the full state — the price
// of a crash cut is one full-image transfer per thread, in exchange for
// never losing an update. Held locks and both watermark families carry
// over, so replayed unlocks, barriers and grants stay idempotent, and
// StickyLocks is forced on: reconnecting holders must keep their mutexes.
//
// The promoted home runs under a bumped fencing epoch — opts.Epoch when
// set (WAL recovery supplies its persisted epoch), one past the stream's
// highest otherwise — so the old primary's frames are rejected everywhere
// should it come back. After promoting, the replication stream is refused
// until a fresh RepInit re-arms the mirror (the new home attaching its own
// stream), at which point the backup can promote again. A promotion that
// fails (options the target platform rejects, say) spends nothing: the
// mirror keeps following the stream and can be promoted again.
func (b *Backup) Promote(p *platform.Platform, opts dsd.Options) (*dsd.Home, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.table == nil {
		return nil, fmt.Errorf("ha: backup never received the bootstrap record")
	}
	if b.promoted {
		return nil, fmt.Errorf("ha: backup already promoted")
	}
	if opts.Epoch == 0 {
		opts.Epoch = b.img.Epoch + 1
	}
	opts.StickyLocks = true
	h, err := dsd.NewHomeFromImage(b.gthv, p, opts, &b.img)
	if err != nil {
		return nil, err
	}
	b.promoted = true
	if b.Counters != nil {
		b.Counters.Failovers.Add(1)
	}
	b.Events.Note("backup", flight.KindPromote, -1, -1, int64(len(b.img.Image)), p.Name)
	return h, nil
}
