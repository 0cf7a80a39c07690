// Package wal makes the home node durable: a CRC-framed, fsync-batched
// write-ahead log of the replication record stream, with periodic snapshot
// compaction — wal.snap is one RepInit record in the log's own frame.
//
// The log attaches to a home exactly like a hot-standby stream — it
// implements dsd.Replicator — so the home's existing ordering guarantee
// ("flush before any grant or release is acknowledged") becomes the WAL
// invariant for free: every state mutation a client has ever observed is
// fsynced on disk before the acknowledgment left the home. After a crash,
// Open replays snapshot plus log tail into a mirror (an ha.Backup), and
// RecoverHome promotes the mirror into a live home under a bumped fencing
// epoch; DialHA clients reconnect and idempotently replay in-flight calls
// exactly as they do after a failover.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/ha"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/telemetry"
	"hetdsm/internal/wire"
)

const (
	logName  = "wal.log"
	snapName = "wal.snap"
	// frameHeader is u32 payload length plus u32 CRC-32 (IEEE) of the
	// payload.
	frameHeader = 8
	// defaultSnapshotEvery compacts after this many appended records.
	defaultSnapshotEvery = 4096
)

// Options configure a Log.
type Options struct {
	// Dir is the directory holding wal.log and wal.snap; created if
	// missing.
	Dir string
	// GThV is the application's global structure type, needed to validate
	// and mirror replicated images.
	GThV tag.Struct
	// SnapshotEvery compacts the log into a snapshot after this many
	// appended records (default 4096). The snapshot replaces the record
	// tail, bounding both disk use and recovery replay length.
	SnapshotEvery int
	// Metrics, when non-nil, receives WAL observability: append latency,
	// fsync batch sizes, snapshot compactions, recovery replay length and
	// the current fencing epoch.
	Metrics *telemetry.Registry
	// Events, when non-nil, receives the log's recovery moment (epoch,
	// replay length) and a wal-fsync span (enqueue → durable) for every
	// record that carries trace context, parented to the home's apply span
	// so durability cost shows up on the release's causal DAG.
	Events *flight.Ring
	// Node labels this log's events (default "wal").
	Node string
}

// Log is a write-ahead log for one home node. It implements
// dsd.Replicator: Record enqueues (called with the home mutex held),
// Flush blocks until everything recorded so far is fsynced. A background
// writer batches queued records into single fsyncs (group commit).
type Log struct {
	opts   Options
	dir    string
	mirror *ha.Backup
	m      walMetrics

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*wire.Replication
	qtimes    []time.Time
	next      uint64 // last stamped record seq
	synced    uint64 // all records with Seq <= synced are durable
	epoch     uint64 // fencing epoch of the incarnation this log serves
	sinceSnap int    // records appended since the last compaction
	appended  uint64
	snapshots uint64
	replayed  int  // records replayed from the log tail at Open
	truncated bool // a torn tail was cut off at Open
	hadState  bool // Open found a snapshot or log records
	failed    error
	closed    bool
	abandoned bool

	f  *os.File // wal.log; writer-owned after Open returns
	wg sync.WaitGroup
}

// Open loads (or creates) the WAL in dir: the snapshot and every intact
// log record are folded into the mirror, a torn or corrupt tail is
// truncated at the last good record, and the fencing epoch is bumped past
// everything seen — persisting the bump before Open returns, so two
// successive restarts can never serve under the same epoch. The returned
// log is ready to attach to a home via StartReplication (which writes a
// fresh bootstrap snapshot and triggers compaction).
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: options missing Dir")
	}
	if len(opts.GThV.Fields) == 0 {
		return nil, fmt.Errorf("wal: options missing GThV")
	}
	if opts.SnapshotEvery <= 0 {
		opts.SnapshotEvery = defaultSnapshotEvery
	}
	if opts.Node == "" {
		opts.Node = "wal"
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		opts:   opts,
		dir:    opts.Dir,
		mirror: ha.NewBackup(opts.GThV),
		m:      newWALMetrics(opts.Metrics),
	}
	l.cond = sync.NewCond(&l.mu)

	if init, err := readSnap(filepath.Join(l.dir, snapName)); err == nil {
		if err := l.mirror.Apply(init); err != nil {
			return nil, fmt.Errorf("wal: snapshot: %w", err)
		}
		l.next = init.Seq
		l.hadState = true
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}

	logPath := filepath.Join(l.dir, logName)
	f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	if err := l.replayLog(); err != nil {
		f.Close()
		return nil, err
	}

	// The mirror adopted the highest epoch of everything it folded.
	l.epoch = l.mirror.Epoch() + 1
	opts.Events.Note(opts.Node, flight.KindRestart, -1, int64(l.epoch), int64(l.replayed), "")
	if l.hadState {
		// Persist the bump: a RepEpoch record survives a crash before the
		// next snapshot, so the next restart starts above this epoch even
		// if this incarnation never serves a single request.
		l.next++
		rec := &wire.Replication{Event: wire.RepEpoch, Rank: -1, Mutex: -1, Seq: l.next, Epoch: l.epoch}
		if err := l.writeRecord(rec); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if err := l.mirror.Apply(rec); err != nil {
			f.Close()
			return nil, err
		}
		l.synced = l.next
	}
	l.m.setEpoch(l.epoch)

	l.wg.Add(1)
	go l.writer()
	return l, nil
}

// replayLog folds every intact record of wal.log into the mirror,
// truncates at the first torn or corrupt record, and leaves the file
// positioned for appends.
func (l *Log) replayLog() error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return err
	}
	good := 0
	for {
		rec, n, err := unframe(data[good:])
		if err != nil {
			return fmt.Errorf("wal: %s: %w", logName, err)
		}
		if rec == nil {
			break
		}
		if err := l.mirror.Apply(rec); err != nil {
			// CRC-clean but semantically unusable (an update before any
			// init, say): the tail from here on cannot be trusted.
			break
		}
		if rec.Seq > l.next {
			l.next = rec.Seq
		}
		l.replayed++
		good += n
	}
	if good < len(data) {
		l.truncated = true
		l.m.truncations.Inc()
		if err := l.f.Truncate(int64(good)); err != nil {
			return err
		}
	}
	if l.replayed > 0 {
		l.hadState = true
	}
	if _, err := l.f.Seek(int64(good), io.SeekStart); err != nil {
		return err
	}
	l.synced = l.next
	l.m.setReplayed(l.replayed)
	return nil
}

// frame encodes one record in the on-disk form every WAL file uses: u32
// payload length, u32 CRC-32 (IEEE) of the payload, payload.
func frame(rec *wire.Replication) []byte {
	payload := wire.EncodeReplication(rec)
	out := make([]byte, frameHeader, frameHeader+len(payload))
	binary.BigEndian.PutUint32(out[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(out[4:], crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// unframe parses the record framed at the start of data and reports how
// many bytes it spans. A torn, corrupt or undecodable frame yields nil:
// garbage is never replayed. An intact record in another encoding version
// is an error instead: that file is not garbage, and truncating it as a
// torn tail would destroy it.
func unframe(data []byte) (*wire.Replication, int, error) {
	if len(data) < frameHeader {
		return nil, 0, nil
	}
	n := int(binary.BigEndian.Uint32(data))
	sum := binary.BigEndian.Uint32(data[4:])
	if n <= 0 || n > wire.MaxFrame || frameHeader+n > len(data) {
		return nil, 0, nil // torn: length field or payload incomplete
	}
	payload := data[frameHeader : frameHeader+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, 0, nil
	}
	rec, err := wire.DecodeReplication(payload)
	if errors.Is(err, wire.ErrVersion) {
		return nil, 0, err
	}
	if err != nil {
		return nil, 0, nil
	}
	return rec, frameHeader + n, nil
}

// readSnap loads a file holding exactly one framed RepInit record: wal.snap
// and a cluster cut's home.snap.
func readSnap(path string) (*wire.Replication, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rec, n, err := unframe(data)
	if err != nil {
		return nil, fmt.Errorf("wal: %s: %w", path, err)
	}
	if rec == nil || n != len(data) || rec.Event != wire.RepInit || rec.Home == nil {
		return nil, fmt.Errorf("wal: %s is not one intact %v record", path, wire.RepInit)
	}
	return rec, nil
}

// writeRecord frames and appends one record to wal.log without syncing.
func (l *Log) writeRecord(rec *wire.Replication) error {
	_, err := l.f.Write(frame(rec))
	return err
}

// Record enqueues one replication record for durable append. It is called
// with the home mutex held, so it must not block on I/O; the background
// writer picks the record up. Part of the dsd.Replicator contract.
func (l *Log) Record(rec *wire.Replication) {
	l.mu.Lock()
	if l.failed != nil || l.closed {
		l.mu.Unlock()
		return
	}
	l.next++
	rec.Seq = l.next
	l.queue = append(l.queue, rec)
	if l.m.enabled || l.opts.Events != nil {
		l.qtimes = append(l.qtimes, time.Now())
	}
	l.appended++
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Flush blocks until every record passed to Record so far is fsynced on
// disk — or the log has failed or closed, in which case it returns and the
// home continues undurable (the same degraded mode a failed standby stream
// leaves it in). Part of the dsd.Replicator contract.
func (l *Log) Flush() {
	l.mu.Lock()
	target := l.next
	for l.synced < target && l.failed == nil && !l.closed {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// writer drains the queue in batches: write all frames, one fsync (group
// commit), fold into the mirror, wake flushers, compact when due.
func (l *Log) writer() {
	defer l.wg.Done()
	for {
		l.mu.Lock()
		for len(l.queue) == 0 && !l.closed && l.failed == nil {
			l.cond.Wait()
		}
		if l.failed != nil || (l.closed && len(l.queue) == 0) {
			l.mu.Unlock()
			return
		}
		batch := l.queue
		times := l.qtimes
		l.queue = nil
		l.qtimes = nil
		l.mu.Unlock()

		for _, rec := range batch {
			if err := l.writeRecord(rec); err != nil {
				l.fail(err)
				return
			}
		}
		if err := l.f.Sync(); err != nil {
			l.fail(err)
			return
		}
		now := time.Now()
		if l.m.enabled {
			for _, t0 := range times {
				l.m.appendLatency.Observe(now.Sub(t0).Seconds())
			}
		}
		if l.opts.Events != nil {
			// One wal-fsync span per traced record: enqueue → durable,
			// parented to the apply span the record carried.
			for i, rec := range batch {
				if rec.TraceID == 0 || i >= len(times) {
					continue
				}
				l.opts.Events.Span(l.opts.Node, telemetry.StageWAL, rec.Rank, 0,
					rec.TraceID, rec.ParentSpan, times[i], now.Sub(times[i]), wire.UpdateBytes(rec.Updates))
			}
		}
		l.m.batchRecords.Observe(float64(len(batch)))
		l.m.records.Add(uint64(len(batch)))

		compactDue := false
		for _, rec := range batch {
			if err := l.mirror.Apply(rec); err != nil {
				// The mirror is the recovery state; if it cannot fold a
				// record we just fsynced, recovery would fail at the same
				// point. Degrade loudly rather than pretend durability.
				l.fail(fmt.Errorf("wal: mirror rejected record %d: %w", rec.Seq, err))
				return
			}
			if rec.Event == wire.RepInit {
				compactDue = true
			}
		}

		l.mu.Lock()
		l.synced = batch[len(batch)-1].Seq
		l.sinceSnap += len(batch)
		if l.sinceSnap >= l.opts.SnapshotEvery {
			compactDue = true
		}
		skip := l.closed
		l.cond.Broadcast()
		l.mu.Unlock()
		if compactDue && !skip {
			l.compact()
		}
	}
}

// compact writes the mirror's folded state as the snapshot (tmp + fsync +
// rename) and truncates the record tail it replaces. A crash between the
// two steps only leaves already-folded records in the log; recovery dedups
// them against the snapshot's sequence number.
func (l *Log) compact() {
	init, err := l.mirror.InitRecord()
	if err != nil {
		return
	}
	l.mu.Lock()
	if init.Epoch < l.epoch {
		init.Epoch = l.epoch
	}
	l.mu.Unlock()

	err = writeFileSync(filepath.Join(l.dir, snapName), frame(init))
	if err == nil {
		err = l.f.Truncate(0)
	}
	if err == nil {
		_, err = l.f.Seek(0, io.SeekStart)
	}
	if err != nil {
		l.fail(err)
		return
	}
	l.m.snapshots.Inc()
	l.mu.Lock()
	l.sinceSnap = 0
	l.snapshots++
	l.mu.Unlock()
}

// fail marks the log broken; flushers return immediately from now on and
// the home degrades to undurable, exactly like a failed standby stream.
// The writer returns right after calling it.
func (l *Log) fail(err error) {
	l.mu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Close drains the queue, syncs, and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()
	return l.f.Close()
}

// Abandon simulates the process dying (kill -9): queued records are
// dropped without a final fsync and the file handle is closed as-is. Only
// the fault-injection harness calls it; a real crash needs no help.
func (l *Log) Abandon() {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	l.abandoned = true
	l.queue = nil
	l.qtimes = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	l.wg.Wait()
	l.f.Close()
}

// RecoverHome promotes the replayed mirror into a live home on platform p
// (any platform: the image converts receiver-makes-right), running under
// the log's persisted epoch — one past everything the crashed incarnation
// ever stamped, so its zombie frames are fenced everywhere. Held locks and
// both watermark families carry over; reconnecting DialHA clients replay
// in-flight calls idempotently. Attach the log to the recovered home with
// StartReplication to resume logging (the fresh bootstrap record also
// compacts the replayed tail away).
func (l *Log) RecoverHome(p *platform.Platform, opts dsd.Options) (*dsd.Home, error) {
	if !l.Ready() {
		return nil, fmt.Errorf("wal: no recoverable state in %s", l.dir)
	}
	opts.Epoch = l.Epoch()
	return l.mirror.Promote(p, opts)
}

// Ready reports whether Open found (or a bootstrap record has since
// provided) a recoverable home state.
func (l *Log) Ready() bool { return l.mirror.Ready() }

// Epoch returns the fencing epoch this log's incarnation serves under.
func (l *Log) Epoch() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// Appended returns how many records have been recorded since Open.
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Replayed returns how many log-tail records Open folded into the mirror.
func (l *Log) Replayed() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.replayed
}

// Truncated reports whether Open cut off a torn or corrupt tail.
func (l *Log) Truncated() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.truncated
}

// Err returns the first write/sync failure, or nil.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Stats summarizes the log for diagnostics endpoints.
func (l *Log) Stats() map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := map[string]any{
		"dir":       l.dir,
		"epoch":     l.epoch,
		"appended":  l.appended,
		"synced":    l.synced,
		"snapshots": l.snapshots,
		"replayed":  l.replayed,
		"truncated": l.truncated,
	}
	if l.failed != nil {
		st["error"] = l.failed.Error()
	}
	return st
}
