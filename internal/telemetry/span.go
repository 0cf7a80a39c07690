package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sync/atomic"

	"hetdsm/internal/flight"
)

// The stages of one release as it moves through the DSD pipeline. The
// sender emits index, tag, pack and ship; the home emits unpack, conv
// and apply; the durability and replication tails emit wal-fsync and
// replicate. A merged timeline for one trace id therefore shows the
// paper's Eq. 1 components as an actual cross-node causal DAG instead of
// an aggregate sum.
const (
	// StageIndex is the sender's diff→index-table span mapping (t_index).
	StageIndex = "index"
	// StageTag is CGT-RMR tag formation (t_tag).
	StageTag = "tag"
	// StagePack is data gathering and serialization (t_pack).
	StagePack = "pack"
	// StageShip is the request round-trip: send until the reply lands.
	StageShip = "ship"
	// StageUnpack is the home's frame decode (t_unpack).
	StageUnpack = "unpack"
	// StageConv is receiver-makes-right conversion at the home (t_conv).
	StageConv = "conv"
	// StageApply is the master-copy write plus pending-queue fan-out.
	StageApply = "apply"
	// StageWAL is the write-ahead-log group-commit fsync covering the
	// release's replication records (enqueue to durable).
	StageWAL = "wal-fsync"
	// StageReplicate is the hot-standby replication of the release's
	// records (enqueue to acknowledged by the standby).
	StageReplicate = "replicate"
)

// Span is one timed stage of one release. Legacy correlation uses the
// (rank, seq) pair the wire protocol stamps on every request; causal
// correlation uses TraceID (one per release, unique process-wide) with
// SpanID/Parent edges, so the same release can be stitched across a
// redirect, a migration, or a home-epoch reuse of (rank, seq).
type Span struct {
	// Rank is the releasing thread's rank.
	Rank int32 `json:"rank"`
	// Seq is the release's request sequence number on that rank.
	Seq uint64 `json:"seq"`
	// Node is the recording node ("rank-1@linux-x86", "home@...").
	Node string `json:"node"`
	// Stage is one of the Stage* constants.
	Stage string `json:"stage"`
	// Start is the stage's wall-clock start in Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
	// Dur is the stage duration in nanoseconds.
	Dur int64 `json:"dur_ns"`
	// Bytes is the payload size the stage handled, 0 when not applicable.
	Bytes int `json:"bytes,omitempty"`
	// TraceID identifies the release's causal trace; 0 on legacy spans.
	TraceID uint64 `json:"trace_id,omitempty"`
	// SpanID identifies this span within the trace; derived
	// deterministically from (TraceID, Node, Stage, Rank) so retries and
	// replays of the same stage collapse to one DAG node.
	SpanID uint64 `json:"span_id,omitempty"`
	// Parent is the SpanID of the causally preceding span (0 = root).
	Parent uint64 `json:"parent_span_id,omitempty"`
}

// End returns the span's wall-clock end in Unix nanoseconds.
func (s *Span) End() int64 { return s.Start + s.Dur }

// traceCounter feeds NewTraceID; process-wide so two home incarnations
// can never mint the same trace id even for the same (rank, seq).
var traceCounter atomic.Uint64

// NewTraceID mints a nonzero trace id for one release by rank. IDs are
// unique within the process and well-mixed so hash-derived span ids
// spread even for adjacent releases.
func NewTraceID(rank int32) uint64 {
	n := traceCounter.Add(1)
	id := splitmix64(n<<16 ^ uint64(uint32(rank)))
	if id == 0 {
		id = 1
	}
	return id
}

// splitmix64 is the finalizer of the splitmix64 PRNG: a cheap, strong
// 64-bit mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SpanID derives the deterministic span id for a stage of a trace:
// FNV-1a over (traceID, node, stage, rank). Both ends of a wire hop can
// compute the same id without shipping it — the sender stamps
// wire.Message.ParentSpan with its ship span's id, and a retried or
// replayed stage lands on the same DAG node.
func SpanID(traceID uint64, node, stage string, rank int32) uint64 {
	if traceID == 0 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < 64; i += 8 {
		h = (h ^ (traceID >> i & 0xff)) * prime64
	}
	for i := 0; i < len(node); i++ {
		h = (h ^ uint64(node[i])) * prime64
	}
	for i := 0; i < len(stage); i++ {
		h = (h ^ uint64(stage[i])) * prime64
	}
	r := uint32(rank)
	for i := 0; i < 32; i += 8 {
		h = (h ^ uint64(r>>i&0xff)) * prime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Spans renders the spans retained in the event ring, oldest-first (nil on
// nil). The slice is sized to what the ring holds: a snapshot can outlive
// its ring (dsmsim keeps one per run) and must not pin one.
func Spans(r *flight.Ring) []Span {
	events := r.Filter(flight.KindSpan)
	if len(events) == 0 {
		return nil
	}
	out := make([]Span, len(events))
	for i := range events {
		e := &events[i]
		out[i] = Span{
			Rank:    e.Rank,
			Seq:     e.Seq,
			Node:    e.Node,
			Stage:   e.Detail,
			Start:   e.Start,
			Dur:     e.Dur,
			Bytes:   int(e.B),
			TraceID: e.TraceID,
			SpanID:  SpanID(e.TraceID, e.Node, e.Detail, e.Rank),
			Parent:  e.Parent,
		}
	}
	return out
}

// WriteSpans writes the ring's spans as JSONL, one span per line. The ring
// is snapshotted first; encoding happens outside any lock and streams
// span-by-span through a buffered writer, so an HTTP scrape of a full ring
// neither stalls recorders nor buffers the dump in one blob.
func WriteSpans(w io.Writer, r *flight.Ring) error {
	spans := Spans(r)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}
