// Package flight is the process's one protocol event ring: a fixed-size,
// preallocated, nil-safe ring of one event type that every plane records
// into. A protocol moment (a grant, a barrier arrival, a fence, a restart)
// and a timed release stage (a span: index, tag, pack, ship, unpack, conv,
// apply, wal-fsync, replicate) are both one Event; a span is an
// event with a duration. Recording is a mutex-guarded struct store into a
// preallocated slot — no allocation, no formatting, no I/O — and a nil
// *Ring is a valid disabled sink, so the ring can stay compiled into every
// hot path.
//
// Every output is a filter or a rendering of the retained events:
//
//   - the black-box dump (Format, Trip, SIGQUIT): the retained moments,
//     handed to the OnTrip sink when a home fences, a home restarts, the
//     checker flags a violation, or an operator sends SIGQUIT;
//   - the protocol-event lines (Lines, WriteLines): the /trace endpoint,
//     -trace-out and dsmrun -trace;
//   - the spans (Filter(KindSpan)), which internal/telemetry renders as
//     /spans, -span-out, per-release DAGs and Chrome traces.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Kind discriminates recorded events. It renders as its name in text and
// JSON.
type Kind uint8

// The protocol moments record A = the mutex, barrier or index-table entry
// involved (-1 when none) and B = the update payload bytes, unless their
// comment says otherwise.
const (
	// KindInvalid is the zero value; never recorded.
	KindInvalid Kind = iota
	// KindHello is a thread registration at the home; Detail names the
	// thread's platform.
	KindHello
	// KindLockGrant is a mutex grant (home side).
	KindLockGrant
	// KindUnlock is a mutex release with updates (home side).
	KindUnlock
	// KindBarrierArrive is one thread entering a barrier.
	KindBarrierArrive
	// KindBarrierOpen is a barrier generation completing.
	KindBarrierOpen
	// KindFlush is a lock-free update push (migration support).
	KindFlush
	// KindJoin is a thread termination announcement.
	KindJoin
	// KindRedirect is a thread bounced to a new home; Detail is the new
	// address.
	KindRedirect
	// KindApply is an update batch applied to a thread's replica; Detail
	// names the sender's platform.
	KindApply
	// KindDetach is a home freezing for handoff.
	KindDetach
	// KindSuspect is a failure or stall detector declaring a node
	// suspected; Detail is its address, B the stalled backlog in frames.
	KindSuspect
	// KindPromote is a standby promoting itself to home; B is the size of
	// the replicated image, Detail the platform.
	KindPromote
	// KindReconnect is a thread redialing a home after a connection loss.
	KindReconnect
	// KindReplicate is a home-state mutation shipped to a hot standby.
	KindReplicate
	// KindFence is a home fencing itself: it saw frame epoch A while
	// serving epoch B.
	KindFence
	// KindEpochAdopt is a client adopting a higher epoch A (was B).
	KindEpochAdopt
	// KindRestart is a home incarnation change: the home (Rank -1)
	// restarted into epoch A having replayed B log records.
	KindRestart
	// KindViolation is a checker verdict; A counts the violations.
	KindViolation
	// KindSpan is one timed stage of one release: Detail names the stage,
	// Seq is the release's request sequence number on Rank, B the payload
	// bytes, and TraceID/Parent stitch it into the release's causal DAG.
	KindSpan
)

var kindNames = [...]string{
	KindInvalid:       "invalid",
	KindHello:         "hello",
	KindLockGrant:     "lock-grant",
	KindUnlock:        "unlock",
	KindBarrierArrive: "barrier-arrive",
	KindBarrierOpen:   "barrier-open",
	KindFlush:         "flush",
	KindJoin:          "join",
	KindRedirect:      "redirect",
	KindApply:         "apply",
	KindDetach:        "detach",
	KindSuspect:       "suspect",
	KindPromote:       "promote",
	KindReconnect:     "reconnect",
	KindReplicate:     "replicate",
	KindFence:         "fence",
	KindEpochAdopt:    "epoch-adopt",
	KindRestart:       "restart",
	KindViolation:     "violation",
	KindSpan:          "span",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("flight-kind-%d", uint8(k))
}

// MarshalText renders the kind by name, so JSON lines carry "lock-grant",
// not a number.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, name := range kindNames {
		if name == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("flight: unknown event kind %q", b)
}

// Event is one fixed-size ring slot. Strings are pointer copies of names
// the caller already holds (interned node names, stage constants, platform
// names, addresses), so recording never allocates. A span's id is not
// stored: it is a pure function of (TraceID, Node, stage, Rank) that
// telemetry.SpanID derives when the span is rendered.
type Event struct {
	// Start is the wall-clock time in Unix nanoseconds: the moment, or the
	// span's start.
	Start int64
	// Dur is the span's duration in nanoseconds; 0 for a moment.
	Dur int64
	// TraceID identifies a span's release trace; Parent is the id of the
	// causally preceding span (0 = root). Both 0 on moments.
	TraceID, Parent uint64
	// Seq is a span's release request sequence number (0 when n/a).
	Seq uint64
	// A and B are the kind's operands; see Kind.
	A, B int64
	// Node names the recording component ("home@linux-x86", "rank-0@…").
	Node string
	// Detail is a span's stage, or a moment's context.
	Detail string
	// Rank is the involved thread; -1 when not applicable.
	Rank int32
	// Kind discriminates the event.
	Kind Kind
}

// DefaultCapacity is the ring size New picks for capacity <= 0.
const DefaultCapacity = 8192

// Ring is the fixed-capacity event ring. Construct with New; a nil *Ring
// is a valid disabled ring for every method.
type Ring struct {
	mu   sync.Mutex
	buf  []Event // preallocated to capacity at construction
	next uint64  // total events ever recorded
	trip func(reason string, moments []Event)
}

// New returns a ring retaining the last capacity events (DefaultCapacity
// when capacity <= 0). Slots are preallocated; recording never grows it.
func New(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Note records one protocol moment; no-op on a nil receiver.
func (r *Ring) Note(node string, kind Kind, rank int32, a, b int64, detail string) {
	if r == nil {
		return
	}
	r.put(Event{Start: time.Now().UnixNano(), Node: node, Kind: kind, Rank: rank, A: a, B: b, Detail: detail})
}

// Span records one timed release stage carrying causal trace context;
// no-op on a nil receiver.
func (r *Ring) Span(node, stage string, rank int32, seq, traceID, parent uint64, start time.Time, d time.Duration, bytes int) {
	if r == nil {
		return
	}
	r.put(Event{Start: start.UnixNano(), Dur: int64(d), TraceID: traceID, Parent: parent, Seq: seq,
		A: -1, B: int64(bytes), Node: node, Detail: stage, Rank: rank, Kind: KindSpan})
}

// put stores e into the next slot: one struct copy under the mutex.
func (r *Ring) put(e Event) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = e
	r.next++
	r.mu.Unlock()
}

// Len returns the number of retained events (0 on nil).
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.next, uint64(len(r.buf))))
}

// Total returns the number of events ever recorded (0 on nil).
func (r *Ring) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Dropped returns how many events the ring overwrote (0 on nil).
func (r *Ring) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next - min(r.next, uint64(len(r.buf)))
}

// snapshot copies the retained events oldest-first and returns the ring
// sequence number of the first. The copy is sized to what the ring holds (a
// snapshot can outlive its ring and must not pin one) and allocated before
// the lock is taken, so recorders only ever contend with two memmoves.
func (r *Ring) snapshot() (out []Event, first uint64) {
	if r == nil {
		return nil, 0
	}
	out = make([]Event, 0, r.Len())
	r.mu.Lock()
	defer r.mu.Unlock()
	size := uint64(len(r.buf))
	first = r.next - min(r.next, size)
	if r.next <= size {
		return append(out, r.buf[:r.next]...), first
	}
	start := r.next % size
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...), first
}

// Snapshot returns the retained events oldest-first (nil on nil).
func (r *Ring) Snapshot() []Event {
	out, _ := r.snapshot()
	return out
}

// filter keeps the snapshot's events for which keep holds.
func (r *Ring) filter(keep func(*Event) bool) []Event {
	all := r.Snapshot()
	out := all[:0]
	for i := range all {
		if keep(&all[i]) {
			out = append(out, all[i])
		}
	}
	return out
}

// Filter returns the retained events of one kind, oldest-first.
func (r *Ring) Filter(kind Kind) []Event {
	return r.filter(func(e *Event) bool { return e.Kind == kind })
}

// Moments returns the retained events that are not spans, oldest-first.
func (r *Ring) Moments() []Event {
	return r.filter(func(e *Event) bool { return e.Kind != KindSpan })
}

// OnTrip installs the dump sink invoked by Trip with the reason and a
// snapshot of the retained moments. No-op on nil.
func (r *Ring) OnTrip(fn func(reason string, moments []Event)) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.trip = fn
	r.mu.Unlock()
}

// Trip snapshots the retained moments and hands them to the OnTrip sink
// (if any). It is called on fencing, crash-restart recovery, checker
// violations and SIGQUIT — the moments the black box exists for.
func (r *Ring) Trip(reason string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fn := r.trip
	r.mu.Unlock()
	if fn != nil {
		fn(reason, r.Moments())
	}
}

// Dump writes the retained moments as a black-box post-mortem.
func (r *Ring) Dump(w io.Writer, reason string) error {
	return Format(w, reason, r.Moments())
}

// String returns the black-box dump as a string (empty on nil).
func (r *Ring) String() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	_ = r.Dump(&sb, "")
	return sb.String()
}

// Format writes one black-box dump: a header line and one line per event,
// oldest first.
func Format(w io.Writer, reason string, events []Event) error {
	if reason == "" {
		reason = "snapshot"
	}
	if _, err := fmt.Fprintf(w, "--- flight recorder (%s, %d events) ---\n", reason, len(events)); err != nil {
		return err
	}
	for i := range events {
		e := &events[i]
		if _, err := fmt.Fprintf(w, "%s %-12s node=%s rank=%d a=%d b=%d\n",
			time.Unix(0, e.Start).UTC().Format("15:04:05.000000"),
			e.Kind, e.Node, e.Rank, e.A, e.B); err != nil {
			return err
		}
	}
	return nil
}

// Line is the protocol-event rendering of one moment: the JSONL schema of
// the /trace endpoint and -trace-out dumps, with stable lowercase keys.
type Line struct {
	// Seq is the moment's position in the ring's recording order.
	Seq uint64 `json:"seq"`
	// At is the wall-clock timestamp.
	At time.Time `json:"at"`
	// Node identifies the recorder.
	Node string `json:"node"`
	// Kind classifies the moment.
	Kind Kind `json:"kind"`
	// Rank is the thread rank involved, -1 when not applicable.
	Rank int32 `json:"rank"`
	// Mutex is the moment's A operand: the lock, barrier or entry index.
	Mutex int32 `json:"mutex"`
	// Bytes is the moment's B operand: the update payload size.
	Bytes int `json:"bytes"`
	// Detail carries free-form context.
	Detail string `json:"detail,omitempty"`
}

// String renders one line of dsmrun -trace output.
func (l Line) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6d %s %-18s %-14s", l.Seq, l.At.Format("15:04:05.000000"), l.Node, l.Kind)
	if l.Rank >= 0 {
		fmt.Fprintf(&b, " rank=%d", l.Rank)
	}
	if l.Mutex >= 0 {
		fmt.Fprintf(&b, " idx=%d", l.Mutex)
	}
	if l.Bytes > 0 {
		fmt.Fprintf(&b, " bytes=%d", l.Bytes)
	}
	if l.Detail != "" {
		fmt.Fprintf(&b, " %s", l.Detail)
	}
	return b.String()
}

// Lines renders the retained moments, oldest-first (nil on nil).
func (r *Ring) Lines() []Line {
	events, seq := r.snapshot()
	var out []Line
	for i := range events {
		if e := &events[i]; e.Kind != KindSpan {
			out = append(out, Line{Seq: seq + uint64(i), At: time.Unix(0, e.Start), Node: e.Node, Kind: e.Kind,
				Rank: e.Rank, Mutex: int32(e.A), Bytes: int(e.B), Detail: e.Detail})
		}
	}
	return out
}

// WriteLines writes the retained moments as JSONL, one Line per line.
// Safe on a nil receiver (writes nothing).
func (r *Ring) WriteLines(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, l := range r.Lines() {
		if err := enc.Encode(l); err != nil {
			return err
		}
	}
	return nil
}
