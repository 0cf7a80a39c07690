package dsd

import (
	"time"

	"hetdsm/internal/telemetry"
	"hetdsm/internal/wire"
)

// threadMetrics holds the thread-side metric handles, resolved once at
// construction. With Options.Metrics nil every handle is nil and every
// record is a no-op; enabled additionally gates the time.Now calls so a
// disabled thread takes no extra timestamps on the hot path.
type threadMetrics struct {
	enabled     bool
	lockAcquire *telemetry.Histogram
	barrierWait *telemetry.Histogram
	releaseRTT  *telemetry.Histogram
	diffBytes   *telemetry.Histogram
	frameSent   *telemetry.Histogram
	frameRecv   *telemetry.Histogram
	locks       *telemetry.Counter
	barriers    *telemetry.Counter
	releases    *telemetry.Counter
	deadlines   *telemetry.Counter
}

func newThreadMetrics(r *telemetry.Registry) threadMetrics {
	return threadMetrics{
		enabled:     r != nil,
		lockAcquire: r.Histogram("dsm_lock_acquire_seconds", "MTh_lock latency: request to grant, including queue wait and update transfer"),
		barrierWait: r.Histogram("dsm_barrier_wait_seconds", "MTh_barrier latency: arrival to release, including peers' compute"),
		releaseRTT:  r.Histogram("dsm_release_roundtrip_seconds", "release (unlock/flush/join) round-trip: updates shipped until ack"),
		diffBytes:   r.Histogram("dsm_release_diff_bytes", "update payload bytes shipped per release"),
		frameSent:   r.Histogram("dsm_frame_sent_bytes", "encoded frame sizes transmitted by threads"),
		frameRecv:   r.Histogram("dsm_frame_recv_bytes", "encoded frame sizes received by threads"),
		locks:       r.Counter("dsm_locks_total", "MTh_lock acquisitions"),
		barriers:    r.Counter("dsm_barriers_total", "MTh_barrier arrivals"),
		releases:    r.Counter("dsm_releases_total", "releases shipped (unlock, barrier, flush, join)"),
		deadlines:   r.Counter("dsm_op_deadline_exceeded", "operation attempts that hit their OpTimeout deadline and retried through a fresh connection"),
	}
}

// homeMetrics is the home-side counterpart of threadMetrics.
type homeMetrics struct {
	enabled     bool
	lockWait    *telemetry.Histogram
	barrierWait *telemetry.Histogram
	applyBytes  *telemetry.Histogram
	frameSent   *telemetry.Histogram
	frameRecv   *telemetry.Histogram
	applies     *telemetry.Counter
}

func newHomeMetrics(r *telemetry.Registry) homeMetrics {
	return homeMetrics{
		enabled:     r != nil,
		lockWait:    r.Histogram("dsm_home_lock_acquire_seconds", "time a lock request waited at the home before its grant"),
		barrierWait: r.Histogram("dsm_home_barrier_wait_seconds", "time a barrier arrival waited for its generation to open"),
		applyBytes:  r.Histogram("dsm_home_apply_bytes", "update payload bytes applied to the master copy per release"),
		frameSent:   r.Histogram("dsm_home_frame_sent_bytes", "encoded frame sizes transmitted by the home"),
		frameRecv:   r.Histogram("dsm_home_frame_recv_bytes", "encoded frame sizes received by the home"),
		applies:     r.Counter("dsm_home_applies_total", "update batches applied to the master copy"),
	}
}

// relStages captures the sender-side pipeline timings of one release;
// collectUpdates fills it (the stage clocks already run for the Eq. 1
// stats) and the caller emits spans once the request id is known.
type relStages struct {
	indexStart time.Time
	indexDur   time.Duration
	tagStart   time.Time
	tagDur     time.Duration
	packStart  time.Time
	packDur    time.Duration
	bytes      int
}

// emitReleaseSpans records the sender-side spans of one release, chained
// index → tag → pack → ship under the message's trace id; the ship span's
// id equals the ParentSpan the send stamped on the wire, so receiver-side
// spans attach to it without any id exchange.
func (t *Thread) emitReleaseSpans(m *wire.Message, st relStages, shipStart time.Time, shipDur time.Duration) {
	ev := t.opts.Events
	if ev == nil || m.Seq == 0 {
		return
	}
	node := t.node
	tid := m.TraceID
	ev.Span(node, telemetry.StageIndex, t.rank, m.Seq, tid, 0, st.indexStart, st.indexDur, 0)
	parent := telemetry.SpanID(tid, node, telemetry.StageIndex, t.rank)
	if !st.tagStart.IsZero() {
		ev.Span(node, telemetry.StageTag, t.rank, m.Seq, tid, parent, st.tagStart, st.tagDur, 0)
		parent = telemetry.SpanID(tid, node, telemetry.StageTag, t.rank)
		ev.Span(node, telemetry.StagePack, t.rank, m.Seq, tid, parent, st.packStart, st.packDur, st.bytes)
		parent = telemetry.SpanID(tid, node, telemetry.StagePack, t.rank)
	}
	ev.Span(node, telemetry.StageShip, t.rank, m.Seq, tid, parent, shipStart, shipDur, st.bytes)
}

// observesReleases reports whether the thread wants release round-trip
// timestamps (metrics or the event ring enabled).
func (t *Thread) observesReleases() bool {
	return t.tm.enabled || t.opts.Events != nil
}
