// Package wire defines the message vocabulary of the DSD protocol and its
// binary encoding.
//
// Messages carry updates in the paper's form: CGT-RMR tags plus raw data in
// the *sender's* representation. The receiver converts ("receiver makes
// right"), so the wire format never canonicalizes payload bytes; only the
// framing itself has one encoding. Packing and unpacking are the t_pack and
// t_unpack components of Eq. 1; callers time Encode/Decode into their
// stats.Breakdown.
//
// A frame is the kind byte, the format Version byte, a uvarint bitmap of the
// Message fields that are non-zero, and then exactly those fields in bit
// order: unsigned integers as uvarints, signed ones as zig-zag varints,
// strings and byte slices uvarint-length-prefixed, lists as a uvarint count
// of such elements. An empty lock request is six bytes. A replication record
// on its own (the write-ahead log's unit) is the Version byte and the record
// body, whose update list uses the frame's update codec.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"hetdsm/internal/platform"
)

// Version is the encoding version every frame carries after its kind byte
// and every bare replication record carries first. The fixed-width encoding
// that preceded it had no version byte: where the version now sits it had
// the top byte of a big-endian sequence number, so its frames and records
// are refused as version 0 rather than misparsed.
const Version byte = 1

// ErrVersion reports a frame or record in an encoding this build does not
// read.
var ErrVersion = errors.New("wire: unsupported encoding version")

// Kind discriminates protocol messages. A kind's number is its frame's
// first byte, which fault injection (transport.FaultPlan.Kinds) keys on, so
// numbers are never reused: a retired kind keeps its number, and the
// decoder rejects it.
type Kind uint8

const (
	// KindInvalid is the zero value; never sent.
	KindInvalid Kind = iota
	// KindHello registers a node with the home: platform name and rank.
	KindHello
	// KindHelloAck acknowledges registration and carries the home's
	// platform name.
	KindHelloAck
	// KindLockReq asks the home for a distributed mutex (MTh_lock).
	KindLockReq
	// KindLockGrant grants the mutex and carries outstanding updates. It
	// has no ack: the holder's next request proves it arrived.
	KindLockGrant
	// kindLockAck was the grant's delivery receipt. Retired; its number
	// stays reserved and the decoder rejects it.
	kindLockAck
	// KindUnlockReq releases the mutex and carries the holder's updates
	// (MTh_unlock).
	KindUnlockReq
	// KindUnlockAck acknowledges the release.
	KindUnlockAck
	// KindBarrierReq enters a barrier and carries the caller's updates
	// (MTh_barrier).
	KindBarrierReq
	// KindBarrierRelease releases a barrier and carries merged updates.
	KindBarrierRelease
	// KindJoinReq announces thread termination (MTh_join).
	KindJoinReq
	// KindJoinAck acknowledges the join.
	KindJoinAck
	// KindMigrate ships a captured thread state to a skeleton slot.
	KindMigrate
	// KindMigrateAck acknowledges a migration landed.
	KindMigrateAck
	// KindFlushReq pushes a thread's dirty updates home outside any lock;
	// used by the migration protocol so no write is lost when a thread's
	// replica is abandoned at the source node.
	KindFlushReq
	// KindFlushAck acknowledges a flush.
	KindFlushAck
	// KindRedirect tells a thread the home has moved; Addr carries the
	// new home's address. The thread reconnects and re-sends its request.
	KindRedirect
	// KindFetchReq asks the home for current data of specific spans
	// (invalidate protocol: a thread reads an invalidated element).
	KindFetchReq
	// KindFetchReply carries the requested spans with data.
	KindFetchReply
	// KindPing is a heartbeat probe (failure detection); any node that
	// serves DSD traffic answers with KindPong.
	KindPing
	// KindPong answers a ping, echoing its Seq.
	KindPong
	// KindReplicate streams one home-state mutation to a hot-standby
	// backup; the Rep payload describes the mutation and Updates carries
	// span data (already in the home's representation).
	KindReplicate
	// KindReplicateAck acknowledges a replication record by its Rep.Seq.
	KindReplicateAck
	// kindSyncReq, kindSyncReply, kindSyncAck and kindDirForward were the
	// sharded directory's gather round and ownership correction. Retired
	// with it; their numbers stay reserved and the decoder rejects them.
	kindSyncReq
	kindSyncReply
	kindSyncAck
	kindDirForward
	numKinds
)

var kindNames = [...]string{
	KindInvalid: "invalid",
	KindHello:   "hello", KindHelloAck: "hello-ack",
	KindLockReq: "lock-req", KindLockGrant: "lock-grant", kindLockAck: "lock-ack (retired)",
	KindUnlockReq: "unlock-req", KindUnlockAck: "unlock-ack",
	KindBarrierReq: "barrier-req", KindBarrierRelease: "barrier-release",
	KindJoinReq: "join-req", KindJoinAck: "join-ack",
	KindMigrate: "migrate", KindMigrateAck: "migrate-ack",
	KindFlushReq: "flush-req", KindFlushAck: "flush-ack",
	KindRedirect: "redirect",
	KindFetchReq: "fetch-req", KindFetchReply: "fetch-reply",
	KindPing: "ping", KindPong: "pong",
	KindReplicate: "replicate", KindReplicateAck: "replicate-ack",
	kindSyncReq: "sync-req (retired)", kindSyncReply: "sync-reply (retired)", kindSyncAck: "sync-ack (retired)",
	kindDirForward: "dir-forward (retired)",
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// sendable reports whether frames of kind k may be encoded or decoded.
func (k Kind) sendable() bool {
	return k > KindInvalid && k < kindSyncReq && k != kindLockAck
}

// Update is one object-granular modification: an index-table span, its
// CGT-RMR tag, and the raw bytes in the sender's representation.
type Update struct {
	// Entry is the index-table entry (architecture independent).
	Entry int32
	// First is the first modified element within the entry.
	First int32
	// Count is the number of consecutive elements.
	Count int32
	// Tag is the CGT-RMR tag string for the span, e.g. "(4,10)".
	Tag string
	// Data holds Count elements in the sender's byte representation.
	Data []byte
}

// ThreadState is a captured MigThread state in portable form: the logical
// program counter plus the frame image and its tag, in the source
// platform's representation.
type ThreadState struct {
	// PC is the logical program counter (workload step).
	PC int64
	// FrameTag is the CGT-RMR tag of the frame image.
	FrameTag string
	// Frame is the frame image in the source platform's layout.
	Frame []byte
	// ExtraTag and Extra carry an optional workload-defined payload in
	// the source platform's layout (e.g. a migrated file-descriptor
	// table), tagged like any other CGT-RMR state.
	ExtraTag string
	Extra    []byte
}

// RepEvent discriminates replication records on the home→backup stream.
type RepEvent uint8

const (
	// RepInvalid is the zero value; never sent.
	RepInvalid RepEvent = iota
	// RepInit bootstraps the backup: the home's whole state at stream
	// start, as a HomeImage.
	RepInit
	// RepUpdate mirrors an applied update batch; Updates carry the spans
	// with data in the home's representation.
	RepUpdate
	// RepLock mirrors a mutex grant: Rank now holds Mutex.
	RepLock
	// RepUnlock mirrors a mutex becoming free.
	RepUnlock
	// RepBarrier mirrors a barrier generation opening; Marks lists each
	// arrived rank with the request id its release answers.
	RepBarrier
	// RepJoin mirrors a rank joining.
	RepJoin
	// RepEpoch persists a fencing-epoch advance (WAL recovery bumps the
	// epoch before serving); carries no other state.
	RepEpoch
)

// String names the event for traces and diagnostics.
func (e RepEvent) String() string {
	switch e {
	case RepInit:
		return "rep-init"
	case RepUpdate:
		return "rep-update"
	case RepLock:
		return "rep-lock"
	case RepUnlock:
		return "rep-unlock"
	case RepBarrier:
		return "rep-barrier"
	case RepJoin:
		return "rep-join"
	case RepEpoch:
		return "rep-epoch"
	}
	return fmt.Sprintf("rep-event-%d", uint8(e))
}

// RepPair is one rank's watermark advance: its request id Seq is now the
// rank's applied (RepUpdate) or barrier-release (RepBarrier) watermark.
type RepPair struct {
	Rank int32
	Seq  uint64
}

// Replication is the payload of KindReplicate: one ordered mutation of the
// home's state machine, letting a hot standby mirror it.
type Replication struct {
	// Seq is the record's position in the replication log; acks echo it.
	Seq uint64
	// Event discriminates the mutation.
	Event RepEvent
	// Rank is the thread involved (holder, joiner, updater); -1 if none.
	Rank int32
	// Mutex is the lock/barrier index; -1 if none.
	Mutex int32
	// Home is the home's whole state at stream start (RepInit only).
	Home *HomeImage
	// Updates carries the mutated spans with data in the home's own
	// representation (RepUpdate only): the backup mirrors the master
	// image byte-for-byte, no conversion.
	Updates []Update
	// Marks carries the watermark advances the mutation made: the updating
	// rank's applied mark on RepUpdate, every arrived rank's release mark
	// on RepBarrier.
	Marks []RepPair
	// Epoch is the fencing epoch of the home that emitted the record;
	// mirrors and the WAL reject records from a stale epoch.
	Epoch uint64
	// TraceID and ParentSpan carry the causal trace context of the
	// client release that produced this record, so WAL fsync and standby
	// replication spans stitch into the same cross-node DAG. Zero when
	// the record is not attributable to one traced release.
	TraceID    uint64
	ParentSpan uint64
}

// Message is one protocol datagram. Only its non-zero fields travel.
type Message struct {
	// Kind discriminates the message.
	Kind Kind
	// Seq is a per-connection sequence number for tracing.
	Seq uint64
	// Rank is the sending thread's rank (iso-computing slot).
	Rank int32
	// Mutex is the lock or barrier index for synchronization messages.
	Mutex int32
	// Platform is the sender's platform name, set where a receiver reads
	// it: Hello/HelloAck and migration frames. Update-bearing frames leave
	// it empty; each side converts with the peer platform its handshake
	// named.
	Platform string
	// Base is the sender's GThV virtual base address, announced on
	// Hello/HelloAck so peers can build each other's index tables for
	// pointer translation.
	Base uint64
	// Updates carries object-granular modifications.
	Updates []Update
	// State carries a migrating thread's captured state.
	State *ThreadState
	// Err carries a protocol-level failure description on ack messages;
	// empty means success.
	Err string
	// Addr carries the new home address on KindRedirect messages.
	Addr string
	// Proto carries the home's consistency protocol on KindHelloAck
	// (0 = update, 1 = invalidate); threads adopt it.
	Proto uint8
	// Flags carries per-kind bits; on KindHello, FlagWarmReplica means
	// the sender's replica already holds state from a previous home
	// (redirect re-registration) rather than being freshly allocated.
	Flags uint8
	// Epoch is the sender's fencing epoch. Homes stamp their current
	// epoch on every frame; threads echo the highest epoch they have
	// adopted. A receiver that has adopted a higher epoch rejects the
	// frame (stale primary), and a home that sees a higher epoch fences
	// itself. Zero means "not stamped" (legacy/unaware sender).
	Epoch uint64
	// Rep carries the replication payload on KindReplicate and the acked
	// sequence number on KindReplicateAck.
	Rep *Replication
	// TraceID identifies the causal trace this message belongs to (one
	// trace per release or acquire), unique process-wide even when two
	// home incarnations reuse a (rank, seq) pair. Zero means untraced.
	TraceID uint64
	// ParentSpan is the span id of the sender-side stage that emitted the
	// message (the ship span for releases); receiver-side spans parent to
	// it so the cross-node DAG stitches by id, not by (rank, seq) guess.
	ParentSpan uint64
}

// FlagWarmReplica marks a Hello from a thread whose replica is already
// populated (home-handoff re-registration); without it the home seeds the
// full state.
const FlagWarmReplica uint8 = 1 << 0

// Presence bits of the frame's field bitmap, in encoding order. The fields
// synchronisation frames carry come first, so their bitmap is one byte. A
// retired field keeps its bit, which stays out of fAll: the decoder refuses
// a frame that sets it.
const (
	fSeq uint64 = 1 << iota
	fRank
	fMutex
	fEpoch
	fUpdates
	fRetired5 // page-heat samples
	fRetired6 // sending shard id
	fTraceID
	fParentSpan
	fRetired9 // remaining deadline budget
	fPlatform
	fBase
	fProto
	fFlags
	fErr
	fAddr
	fState
	fRetired17 // directory corrections
	fRep
	fAll = (fRep<<1 - 1) &^ (fRetired5 | fRetired6 | fRetired9 | fRetired17)
)

// fields returns m's presence bitmap: a bit per non-zero field.
func (m *Message) fields() uint64 {
	var f uint64
	for _, p := range [...]struct {
		bit uint64
		on  bool
	}{
		{fSeq, m.Seq != 0}, {fRank, m.Rank != 0}, {fMutex, m.Mutex != 0}, {fEpoch, m.Epoch != 0},
		{fUpdates, len(m.Updates) > 0}, {fTraceID, m.TraceID != 0}, {fParentSpan, m.ParentSpan != 0},
		{fPlatform, m.Platform != ""}, {fBase, m.Base != 0}, {fProto, m.Proto != 0}, {fFlags, m.Flags != 0},
		{fErr, m.Err != ""}, {fAddr, m.Addr != ""}, {fState, m.State != nil}, {fRep, m.Rep != nil},
	} {
		if p.on {
			f |= p.bit
		}
	}
	return f
}

// maxStringLen bounds decoded strings; tags and platform names are tiny.
const maxStringLen = 1 << 16

// MaxFrame bounds any encoded frame and any decoded byte payload (64 MiB),
// far above any experiment in the paper while still preventing a corrupt
// length from allocating unbounded memory. The transport layer enforces
// the same bound on received frames.
const MaxFrame = 64 << 20

// maxRepEntries bounds every list in a frame, a replication record or a
// home image; entries are per rank, mutex or span, so even huge clusters
// stay far below.
const maxRepEntries = 1 << 20

// Encode serializes a message into one freshly allocated frame of exactly
// its encoded size: the frame is the only copy of the update payload a
// release makes. This is the t_pack work.
func Encode(m *Message) ([]byte, error) { return AppendEncode(nil, m) }

// AppendEncode is Encode into dst's backing array, or into a new, exactly
// sized one when dst is too small: a sender that knows when its receiver is
// done with a frame reuses one buffer instead of allocating a frame per
// message. dst's contents are overwritten.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if !m.Kind.sendable() {
		return nil, fmt.Errorf("wire: cannot encode kind %v", m.Kind)
	}
	f := m.fields()
	return encode(dst, func(e *encoder) { e.message(m, f) }), nil
}

// EncodeReplication serializes a bare replication record outside any
// message frame, Version byte first; the write-ahead log stores records in
// this form.
func EncodeReplication(r *Replication) []byte {
	return encode(nil, func(e *encoder) {
		e.u8(Version)
		e.rep(r)
	})
}

// encode runs walk to write the output into dst's backing array. When the
// frame does not fit there (always, for a nil dst), that walk has only
// counted its bytes, and a second walk writes it into a new array of
// exactly that size. A reused buffer that fits is written in one walk.
func encode(dst []byte, walk func(*encoder)) []byte {
	e := encoder{buf: dst[:0]}
	walk(&e)
	if e.n > cap(e.buf) {
		e = encoder{buf: make([]byte, 0, e.n)}
		walk(&e)
	}
	return e.buf
}

// encoder writes a frame into buf's capacity and counts its bytes into n.
// Once a write does not fit, no later one is written either, so buf holds
// the frame's first n bytes exactly as long as n is within its capacity.
type encoder struct {
	buf []byte
	n   int
}

// fits counts k more bytes and reports whether they may be written.
func (e *encoder) fits(k int) bool {
	e.n += k
	return e.n <= cap(e.buf)
}

func (e *encoder) u8(v byte) {
	if e.fits(1) {
		e.buf = append(e.buf, v)
	}
}

func (e *encoder) uvarint(v uint64) {
	if e.fits(uvarintLen(v)) {
		e.buf = binary.AppendUvarint(e.buf, v)
	}
}

// varint writes v zig-zag encoded, so small negative numbers (rank -1) stay
// one byte.
func (e *encoder) varint(v int64) { e.uvarint(zigzag(v)) }

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (e *encoder) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) str(s string) {
	// Inputs are program-generated tags, names and addresses; the clamp
	// only keeps a frame decodable should one ever exceed the bound.
	s = s[:min(len(s), maxStringLen)]
	e.uvarint(uint64(len(s)))
	if e.fits(len(s)) {
		e.buf = append(e.buf, s...)
	}
}

func (e *encoder) bytes(p []byte) {
	e.uvarint(uint64(len(p)))
	if e.fits(len(p)) {
		e.buf = append(e.buf, p...)
	}
}

func (e *encoder) message(m *Message, f uint64) {
	e.u8(byte(m.Kind))
	e.u8(Version)
	e.uvarint(f)
	if f&fSeq != 0 {
		e.uvarint(m.Seq)
	}
	if f&fRank != 0 {
		e.varint(int64(m.Rank))
	}
	if f&fMutex != 0 {
		e.varint(int64(m.Mutex))
	}
	if f&fEpoch != 0 {
		e.uvarint(m.Epoch)
	}
	if f&fUpdates != 0 {
		e.updates(m.Updates)
	}
	if f&fTraceID != 0 {
		e.uvarint(m.TraceID)
	}
	if f&fParentSpan != 0 {
		e.uvarint(m.ParentSpan)
	}
	if f&fPlatform != 0 {
		e.str(m.Platform)
	}
	if f&fBase != 0 {
		e.uvarint(m.Base)
	}
	if f&fProto != 0 {
		e.u8(m.Proto)
	}
	if f&fFlags != 0 {
		e.u8(m.Flags)
	}
	if f&fErr != 0 {
		e.str(m.Err)
	}
	if f&fAddr != 0 {
		e.str(m.Addr)
	}
	if f&fState != 0 {
		st := m.State
		e.varint(st.PC)
		e.str(st.FrameTag)
		e.bytes(st.Frame)
		e.str(st.ExtraTag)
		e.bytes(st.Extra)
	}
	if f&fRep != 0 {
		e.rep(m.Rep)
	}
}

// updates is the one update-list codec, shared by frames and replication
// records.
func (e *encoder) updates(us []Update) {
	e.uvarint(uint64(len(us)))
	for i := range us {
		u := &us[i]
		e.varint(int64(u.Entry))
		e.varint(int64(u.First))
		e.varint(int64(u.Count))
		e.str(u.Tag)
		e.bytes(u.Data)
	}
}

func (e *encoder) rep(r *Replication) {
	e.uvarint(r.Seq)
	e.u8(byte(r.Event))
	e.varint(int64(r.Rank))
	e.varint(int64(r.Mutex))
	e.flag(r.Home != nil)
	if r.Home != nil {
		e.home(r.Home)
	}
	e.updates(r.Updates)
	e.uvarint(uint64(len(r.Marks)))
	for _, p := range r.Marks {
		e.varint(int64(p.Rank))
		e.uvarint(p.Seq)
	}
	e.uvarint(r.Epoch)
	e.uvarint(r.TraceID)
	e.uvarint(r.ParentSpan)
}

// Decode parses a message encoded by Encode. This is the t_unpack work.
// The returned message aliases b's storage for Data/Frame slices; callers
// that retain them past b's lifetime must copy.
func Decode(b []byte) (*Message, error) {
	m := new(Message)
	if err := DecodeInto(m, b); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto is Decode into a message the caller owns, so a receive loop
// that consumes each message before the next allocates no Message per
// frame. m is overwritten whole; the backing array of m.Updates is reused,
// also across frames that carry none, so a caller that keeps a previous
// message's Updates slice must copy it first. Data slices alias b, exactly
// as with Decode.
func DecodeInto(m *Message, b []byte) error {
	ups := m.Updates[:0]
	*m = Message{Updates: ups}
	if len(b) < 2 {
		return fmt.Errorf("wire: %d-byte frame", len(b))
	}
	k := Kind(b[0])
	if !k.sendable() {
		return fmt.Errorf("wire: bad kind %d (%v)", b[0], k)
	}
	if b[1] != Version {
		return fmt.Errorf("%w: %v frame version %d, want %d", ErrVersion, k, b[1], Version)
	}
	m.Kind = k
	d := decoder{b: b, off: 2}
	f := d.uvarint()
	if f&^fAll != 0 {
		return fmt.Errorf("wire: unknown field bits %#x", f&^fAll)
	}
	if f&fSeq != 0 {
		m.Seq = d.uvarint()
	}
	if f&fRank != 0 {
		m.Rank = d.i32()
	}
	if f&fMutex != 0 {
		m.Mutex = d.i32()
	}
	if f&fEpoch != 0 {
		m.Epoch = d.uvarint()
	}
	if f&fUpdates != 0 {
		m.Updates = d.updates(ups)
	}
	if f&fTraceID != 0 {
		m.TraceID = d.uvarint()
	}
	if f&fParentSpan != 0 {
		m.ParentSpan = d.uvarint()
	}
	if f&fPlatform != 0 {
		m.Platform = d.platform()
	}
	if f&fBase != 0 {
		m.Base = d.uvarint()
	}
	if f&fProto != 0 {
		m.Proto = d.u8()
	}
	if f&fFlags != 0 {
		m.Flags = d.u8()
	}
	if f&fErr != 0 {
		m.Err = d.str()
	}
	if f&fAddr != 0 {
		m.Addr = d.str()
	}
	if f&fState != 0 {
		m.State = &ThreadState{PC: d.varint(), FrameTag: d.str(), Frame: d.bytes(), ExtraTag: d.str(), Extra: d.bytes()}
	}
	if f&fRep != 0 {
		m.Rep = d.rep()
	}
	return d.end()
}

// DecodeReplication parses a record encoded by EncodeReplication,
// rejecting other versions and trailing bytes. Like Decode, the result
// aliases b's storage.
func DecodeReplication(b []byte) (*Replication, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("wire: empty replication record")
	}
	if b[0] != Version {
		return nil, fmt.Errorf("%w: replication record version %d, want %d", ErrVersion, b[0], Version)
	}
	d := decoder{b: b, off: 1}
	r := d.rep()
	if err := d.end(); err != nil {
		return nil, err
	}
	return r, nil
}

// decoder reads a frame front to back. The first failure sticks: every
// later read returns zero, and end reports it.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// end reports the first failure, or trailing bytes after a clean decode.
func (d *decoder) end() error {
	if d.err == nil && d.off != len(d.b) {
		d.fail("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("truncated message at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// uvarint reads a uvarint. One-byte values, most of a frame's, take a path
// short enough to inline.
func (d *decoder) uvarint() uint64 {
	if d.err == nil && d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	return d.uvarintLong()
}

func (d *decoder) uvarintLong() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) i32() int32 {
	v := d.varint()
	if int64(int32(v)) != v {
		d.fail("varint overflows 32 bits at offset %d", d.off)
	}
	return int32(v)
}

// raw decodes a length-prefixed byte string as a view into the frame.
func (d *decoder) raw(limit int) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(limit) || n > uint64(len(d.b)-d.off) {
		d.fail("truncated message at offset %d", d.off)
		return nil
	}
	end := d.off + int(n)
	p := d.b[d.off:end:end]
	d.off = end
	return p
}

func (d *decoder) str() string { return string(d.raw(maxStringLen)) }

func (d *decoder) bytes() []byte {
	if p := d.raw(MaxFrame); len(p) > 0 {
		return p
	}
	return nil
}

// platform decodes a platform name. Frames name one of a few platforms,
// so a known name is returned as the registered string and decoding it
// allocates nothing.
func (d *decoder) platform() string {
	raw := d.raw(maxStringLen)
	for _, p := range knownPlatforms {
		if string(raw) == p.Name {
			return p.Name
		}
	}
	return string(raw)
}

var knownPlatforms = platform.All()

// count reads a list length, refusing implausible ones and ones the rest
// of the frame cannot hold at minSize bytes an element, so a corrupt count
// allocates nothing.
func (d *decoder) count(what string, minSize int) int {
	n := d.uvarint()
	switch {
	case d.err != nil:
		return 0
	case n > maxRepEntries:
		d.fail("implausible %s count %d", what, n)
		return 0
	case n*uint64(minSize) > uint64(len(d.b)-d.off):
		d.fail("truncated %s list at offset %d", what, d.off)
		return 0
	}
	return int(n)
}

// updates decodes an update list, into us's backing array when it is large
// enough; an empty list keeps that array for the next frame. A tag equal to
// the previous update's, or to the one this slot held in the previous
// frame, is reused rather than allocated: tags repeat from update to update
// and from frame to frame.
func (d *decoder) updates(us []Update) []Update {
	n := d.count("update", 5)
	if n == 0 {
		return us[:0]
	}
	us = slices.Grow(us[:0], n)[:n]
	prev := ""
	for i := range us {
		u := &us[i]
		u.Entry, u.First, u.Count = d.i32(), d.i32(), d.i32()
		switch tag := d.raw(maxStringLen); {
		case string(tag) == prev:
			u.Tag = prev
		case string(tag) != u.Tag:
			u.Tag = string(tag)
		}
		u.Data = d.bytes()
		prev = u.Tag
	}
	if d.err != nil {
		return us[:0]
	}
	return us
}

func (d *decoder) rep() *Replication {
	r := &Replication{Seq: d.uvarint(), Event: RepEvent(d.u8()), Rank: d.i32(), Mutex: d.i32()}
	if d.u8() == 1 {
		r.Home = d.home()
	}
	r.Updates = d.updates(nil)
	for n := d.count("mark", 2); n > 0 && d.err == nil; n-- {
		r.Marks = append(r.Marks, RepPair{Rank: d.i32(), Seq: d.uvarint()})
	}
	r.Epoch = d.uvarint()
	r.TraceID = d.uvarint()
	r.ParentSpan = d.uvarint()
	return r
}

// DataBytes sums the record's bulk payload: update data plus, on RepInit,
// the master image.
func (r *Replication) DataBytes() int {
	n := UpdateBytes(r.Updates)
	if r.Home != nil {
		n += len(r.Home.Image)
	}
	return n
}

// UpdateBytes sums the payload sizes of a set of updates; used for the
// byte counters in stats.
func UpdateBytes(us []Update) int {
	n := 0
	for i := range us {
		n += len(us[i].Data)
	}
	return n
}

// Validate performs structural sanity checks on a decoded message before
// the DSD trusts it: counts must be positive and data lengths plausible
// for the tag.
func (m *Message) Validate() error {
	for i := range m.Updates {
		u := &m.Updates[i]
		if u.Entry < 0 || u.First < 0 || u.Count <= 0 {
			return fmt.Errorf("wire: update %d has bad span %d/%d/%d", i, u.Entry, u.First, u.Count)
		}
		if int64(u.First)+int64(u.Count) > math.MaxInt32 {
			return fmt.Errorf("wire: update %d span overflows", i)
		}
		if len(u.Data)%int(u.Count) != 0 {
			return fmt.Errorf("wire: update %d data %d not divisible by count %d", i, len(u.Data), u.Count)
		}
	}
	return nil
}
