// Package wire defines the message vocabulary of the DSD protocol and its
// binary encoding.
//
// Messages carry updates in the paper's form: CGT-RMR tags plus raw data in
// the *sender's* representation. The receiver converts ("receiver makes
// right"), so the wire format never canonicalizes payload bytes; only the
// framing itself uses a fixed (big-endian) order. Packing and unpacking are
// the t_pack and t_unpack components of Eq. 1; callers time Encode/Decode
// into their stats.Breakdown.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"hetdsm/internal/platform"
)

// Kind discriminates protocol messages.
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
	// KindLockGrant grants the mutex and carries outstanding updates.
	KindLockGrant
	// KindLockAck acknowledges receipt of a grant's updates.
	KindLockAck
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
	// KindSyncReq asks a home shard for the sender's outstanding pending
	// updates outside any lock or barrier. The sharded directory's proxy
	// sends it to every non-granting shard after an acquire, so a grant
	// gathers updates from all owners, not just the lock's.
	KindSyncReq
	// KindSyncReply carries the requested pending updates.
	KindSyncReply
	// KindSyncAck confirms a sync reply was applied; the shard drains the
	// peeked pending prefix only on the ack (same receipt discipline as
	// lock grants).
	KindSyncAck
	// KindDirForward answers a request that hit a shard which no longer
	// owns the touched entries (or lock): Dir carries the corrected
	// entry→shard mappings from the authoritative directory, so a stale
	// client cache chases at most one hop before re-sending.
	KindDirForward
	numKinds
)

var kindNames = [...]string{
	KindInvalid: "invalid",
	KindHello:   "hello", KindHelloAck: "hello-ack",
	KindLockReq: "lock-req", KindLockGrant: "lock-grant", KindLockAck: "lock-ack",
	KindUnlockReq: "unlock-req", KindUnlockAck: "unlock-ack",
	KindBarrierReq: "barrier-req", KindBarrierRelease: "barrier-release",
	KindJoinReq: "join-req", KindJoinAck: "join-ack",
	KindMigrate: "migrate", KindMigrateAck: "migrate-ack",
	KindFlushReq: "flush-req", KindFlushAck: "flush-ack",
	KindRedirect: "redirect",
	KindFetchReq: "fetch-req", KindFetchReply: "fetch-reply",
	KindPing: "ping", KindPong: "pong",
	KindReplicate: "replicate", KindReplicateAck: "replicate-ack",
	KindSyncReq: "sync-req", KindSyncReply: "sync-reply", KindSyncAck: "sync-ack",
	KindDirForward: "dir-forward",
}

// String returns the protocol name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
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

// DirEntry is one directory mapping: an index-table entry (or, with Lock
// set, a mutex index) and the shard that currently owns it. KindDirForward
// replies carry the authoritative mappings for everything a misdelivered
// request touched; Ver orders corrections so a late forward cannot roll a
// client cache back to an older owner.
type DirEntry struct {
	// Object is the index-table entry id, or the mutex index when Lock.
	Object int32
	// Lock marks a mutex mapping rather than an entry mapping.
	Lock bool
	// Shard is the owning shard id.
	Shard int32
	// Ver is the directory version of this mapping (bumped per migration).
	Ver uint64
}

// HeatSample is one page's write-trap activity since the sender's previous
// release: threads piggyback their vmem heat deltas on release messages so
// home shards can aggregate cluster-wide page heat and drive re-homing.
type HeatSample struct {
	// Page is the page index within the GThV segment.
	Page int32
	// Faults is the number of write traps the page took in the window.
	Faults uint32
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

// Message is one protocol datagram.
type Message struct {
	// Kind discriminates the message.
	Kind Kind
	// Seq is a per-connection sequence number for tracing.
	Seq uint64
	// Rank is the sending thread's rank (iso-computing slot).
	Rank int32
	// Mutex is the lock or barrier index for synchronization messages.
	Mutex int32
	// Platform is the sender's platform name; set on Hello/HelloAck and
	// on every update-bearing message so the receiver can convert.
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
	// Shard is the sending shard's id in a multi-home directory
	// deployment; -1 (or 0 in single-home runs, where it is never read)
	// when not applicable.
	Shard int32
	// Dir carries corrected directory mappings on KindDirForward.
	Dir []DirEntry
	// Heat carries the sender's page-fault deltas since its previous
	// release; home shards aggregate them for heat-driven re-homing.
	Heat []HeatSample
	// TraceID identifies the causal trace this message belongs to (one
	// trace per release or acquire), unique process-wide even when two
	// shard incarnations reuse a (rank, seq) pair. Zero means untraced.
	TraceID uint64
	// ParentSpan is the span id of the sender-side stage that emitted the
	// message (the ship span for releases); receiver-side spans parent to
	// it so the cross-node DAG stitches by id, not by (rank, seq) guess.
	ParentSpan uint64
	// DeadlineMS is the remaining per-operation budget in milliseconds,
	// stamped by the client when dsd.Options.OpTimeout is set. It is a
	// relative budget, not an absolute timestamp, so it survives clock
	// skew between nodes; a receiver uses it to bound its own blocking on
	// behalf of this request (e.g. the home's grant-ack wait). Zero means
	// unbounded (the seed behavior).
	DeadlineMS uint32
}

// FlagWarmReplica marks a Hello from a thread whose replica is already
// populated (home-handoff re-registration); without it the home seeds the
// full state.
const FlagWarmReplica uint8 = 1 << 0

// maxStringLen bounds decoded strings; tags and platform names are tiny.
const maxStringLen = 1 << 16

// MaxFrame bounds any encoded frame and any decoded byte payload (64 MiB),
// far above any experiment in the paper while still preventing a corrupt
// length from allocating unbounded memory. The transport layer enforces
// the same bound on received frames.
const MaxFrame = 64 << 20

// maxDataLen is MaxFrame under its historical internal name.
const maxDataLen = MaxFrame

// Encode serializes a message into one freshly allocated frame of exactly
// its encoded size: the frame is the only copy of the update payload a
// release makes. This is the t_pack work.
func Encode(m *Message) ([]byte, error) { return AppendEncode(nil, m) }

// AppendEncode is Encode into dst's backing array, grown when too small:
// a sender that knows when its receiver is done with a frame reuses one
// buffer instead of allocating a frame per message. dst's contents are
// overwritten.
func AppendEncode(dst []byte, m *Message) ([]byte, error) {
	if m.Kind == KindInvalid || m.Kind >= numKinds {
		return nil, fmt.Errorf("wire: cannot encode kind %v", m.Kind)
	}
	buf := dst[:0]
	if n := encodedSize(m); cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	buf = append(buf, byte(m.Kind))
	buf = be64(buf, m.Seq)
	buf = be32(buf, uint32(m.Rank))
	buf = be32(buf, uint32(m.Mutex))
	buf = appendString(buf, m.Platform)
	buf = be64(buf, m.Base)
	buf = appendUpdates(buf, m.Updates)
	if m.State != nil {
		buf = append(buf, 1)
		buf = be64(buf, uint64(m.State.PC))
		buf = appendString(buf, m.State.FrameTag)
		buf = appendBytes(buf, m.State.Frame)
		buf = appendString(buf, m.State.ExtraTag)
		buf = appendBytes(buf, m.State.Extra)
	} else {
		buf = append(buf, 0)
	}
	buf = appendString(buf, m.Err)
	buf = appendString(buf, m.Addr)
	buf = append(buf, m.Proto)
	buf = append(buf, m.Flags)
	buf = be64(buf, m.Epoch)
	if m.Rep != nil {
		buf = append(buf, 1)
		buf = appendRep(buf, m.Rep)
	} else {
		buf = append(buf, 0)
	}
	buf = be32(buf, uint32(m.Shard))
	buf = be32(buf, uint32(len(m.Dir)))
	for _, de := range m.Dir {
		buf = be32(buf, uint32(de.Object))
		if de.Lock {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = be32(buf, uint32(de.Shard))
		buf = be64(buf, de.Ver)
	}
	buf = be32(buf, uint32(len(m.Heat)))
	for _, hs := range m.Heat {
		buf = be32(buf, uint32(hs.Page))
		buf = be32(buf, hs.Faults)
	}
	buf = be64(buf, m.TraceID)
	buf = be64(buf, m.ParentSpan)
	buf = be32(buf, m.DeadlineMS)
	return buf, nil
}

func appendRep(buf []byte, r *Replication) []byte {
	buf = be64(buf, r.Seq)
	buf = append(buf, byte(r.Event))
	buf = be32(buf, uint32(r.Rank))
	buf = be32(buf, uint32(r.Mutex))
	buf = appendBool(buf, r.Home != nil)
	if r.Home != nil {
		buf = appendHome(buf, r.Home)
	}
	buf = appendUpdates(buf, r.Updates)
	buf = be32(buf, uint32(len(r.Marks)))
	for _, p := range r.Marks {
		buf = be32(buf, uint32(p.Rank))
		buf = be64(buf, p.Seq)
	}
	buf = be64(buf, r.Epoch)
	buf = be64(buf, r.TraceID)
	buf = be64(buf, r.ParentSpan)
	return buf
}

// EncodeReplication serializes a bare replication record outside any
// message frame; the write-ahead log stores records in this form.
func EncodeReplication(r *Replication) []byte {
	// 20 bytes frame each untagged update; lists and tags grow the buffer.
	return appendRep(make([]byte, 0, 96+r.DataBytes()+20*len(r.Updates)), r)
}

// DecodeReplication parses a record encoded by EncodeReplication,
// rejecting trailing bytes. Like Decode, the result aliases b's storage.
func DecodeReplication(b []byte) (*Replication, error) {
	d := decoder{b: b}
	r, err := d.rep()
	if err != nil {
		return nil, err
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(b)-d.off)
	}
	return r, nil
}

func appendUpdates(buf []byte, us []Update) []byte {
	buf = be32(buf, uint32(len(us)))
	for i := range us {
		u := &us[i]
		buf = be32(buf, uint32(u.Entry))
		buf = be32(buf, uint32(u.First))
		buf = be32(buf, uint32(u.Count))
		buf = appendString(buf, u.Tag)
		buf = appendBytes(buf, u.Data)
	}
	return buf
}

func encodedUpdatesSize(us []Update) int {
	n := 0
	for i := range us {
		n += 12 + 4 + len(us[i].Tag) + 4 + len(us[i].Data)
	}
	return n
}

// encodedSize is the length Encode produces for m, exact but for a
// replication record, which is estimated (EncodeReplication's bound).
func encodedSize(m *Message) int {
	n := 1 + 8 + 4 + 4 + 4 + len(m.Platform) + 8 + 4 + encodedUpdatesSize(m.Updates) + 1
	if st := m.State; st != nil {
		n += 8 + 4 + len(st.FrameTag) + 4 + len(st.Frame) + 4 + len(st.ExtraTag) + 4 + len(st.Extra)
	}
	n += 4 + len(m.Err) + 4 + len(m.Addr) + 1 + 1 + 8 + 1
	if r := m.Rep; r != nil {
		n += 96 + r.DataBytes() + 20*len(r.Updates)
	}
	return n + 4 + 4 + 17*len(m.Dir) + 4 + 8*len(m.Heat) + 8 + 8 + 4
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
// frame. m is overwritten whole; the backing arrays of m.Updates and m.Heat
// are reused, also across frames that carry none, so a caller that keeps a
// previous message's Updates or Heat slice must copy it first. Data slices
// alias b, exactly as with Decode.
func DecodeInto(m *Message, b []byte) error {
	ups, heat := m.Updates[:0], m.Heat[:0]
	*m = Message{}
	d := decoder{b: b}
	k := Kind(d.u8())
	if k == KindInvalid || k >= numKinds {
		return fmt.Errorf("wire: bad kind %d", k)
	}
	m.Kind = k
	m.Seq = d.u64()
	m.Rank = int32(d.u32())
	m.Mutex = int32(d.u32())
	m.Platform = d.platform()
	m.Base = d.u64()
	var err error
	if m.Updates, err = d.updates(ups); err != nil {
		return err
	}
	if d.u8() == 1 {
		st := &ThreadState{}
		st.PC = int64(d.u64())
		st.FrameTag = d.str()
		st.Frame = d.bytes()
		st.ExtraTag = d.str()
		st.Extra = d.bytes()
		m.State = st
	}
	m.Err = d.str()
	m.Addr = d.str()
	m.Proto = d.u8()
	m.Flags = d.u8()
	m.Epoch = d.u64()
	if d.u8() == 1 {
		r, err := d.rep()
		if err != nil {
			return err
		}
		m.Rep = r
	}
	m.Shard = int32(d.u32())
	if n := int(d.u32()); d.err == nil && n > 0 {
		if n > maxRepEntries {
			return fmt.Errorf("wire: implausible dir-entry count %d", n)
		}
		m.Dir = make([]DirEntry, n)
		for i := range m.Dir {
			m.Dir[i].Object = int32(d.u32())
			m.Dir[i].Lock = d.u8() == 1
			m.Dir[i].Shard = int32(d.u32())
			m.Dir[i].Ver = d.u64()
		}
	}
	m.Heat = heat
	if n := int(d.u32()); d.err == nil && n > 0 {
		if n > maxRepEntries {
			return fmt.Errorf("wire: implausible heat-sample count %d", n)
		}
		m.Heat = slices.Grow(heat, n)[:n]
		for i := range m.Heat {
			m.Heat[i].Page = int32(d.u32())
			m.Heat[i].Faults = d.u32()
		}
	}
	m.TraceID = d.u64()
	m.ParentSpan = d.u64()
	m.DeadlineMS = d.u32()
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("wire: %d trailing bytes", len(b)-d.off)
	}
	return nil
}

func be32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func be64(b []byte, v uint64) []byte {
	return append(b,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendString(b []byte, s string) []byte {
	if len(s) > maxStringLen {
		// Callers only pass tags and platform names; truncation would be
		// a bug, so refuse loudly at encode time via panic-free path:
		// clamp never happens in practice because Encode inputs are
		// program-generated. Guard anyway.
		s = s[:maxStringLen]
	}
	b = be32(b, uint32(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = be32(b, uint32(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated message at offset %d", d.off)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str() string { return string(d.strBytes()) }

// strBytes decodes a string's bytes as a view into the frame.
func (d *decoder) strBytes() []byte {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxStringLen || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	raw := d.b[d.off : d.off+n]
	d.off += n
	return raw
}

// strReuse decodes a string, returning whichever of a and b equals it
// rather than allocating a copy: update tags repeat from update to update
// and, in a reused message, from frame to frame.
func (d *decoder) strReuse(a, b string) string {
	switch raw := d.strBytes(); {
	case string(raw) == a:
		return a
	case string(raw) == b:
		return b
	default:
		return string(raw)
	}
}

// platform decodes a platform name. Frames name one of a few platforms,
// so a known name is returned as the registered string and decoding it
// allocates nothing.
func (d *decoder) platform() string {
	raw := d.strBytes()
	for _, p := range knownPlatforms {
		if string(raw) == p.Name {
			return p.Name
		}
	}
	return string(raw)
}

var knownPlatforms = platform.All()

// maxRepEntries bounds every list in a replication record or home image;
// entries are per rank or per mutex, so even huge clusters stay far below.
const maxRepEntries = 1 << 20

func (d *decoder) rep() (*Replication, error) {
	r := &Replication{}
	r.Seq = d.u64()
	r.Event = RepEvent(d.u8())
	r.Rank = int32(d.u32())
	r.Mutex = int32(d.u32())
	if d.u8() == 1 {
		r.Home = d.home()
	}
	var err error
	if r.Updates, err = d.updates(nil); err != nil {
		return nil, err
	}
	for n := d.count("mark"); n > 0 && d.err == nil; n-- {
		r.Marks = append(r.Marks, RepPair{Rank: int32(d.u32()), Seq: d.u64()})
	}
	r.Epoch = d.u64()
	r.TraceID = d.u64()
	r.ParentSpan = d.u64()
	return r, nil
}

// updates decodes an update list, into us's backing array when it is large
// enough. An empty list keeps that array for the next frame.
func (d *decoder) updates(us []Update) ([]Update, error) {
	n := int(d.u32())
	if d.err != nil || n == 0 {
		return us[:0], nil
	}
	if n > maxDataLen/16 {
		return nil, fmt.Errorf("wire: implausible update count %d", n)
	}
	us = slices.Grow(us[:0], n)[:n]
	prev := ""
	for i := range us {
		u := &us[i]
		u.Entry = int32(d.u32())
		u.First = int32(d.u32())
		u.Count = int32(d.u32())
		u.Tag = d.strReuse(prev, u.Tag)
		u.Data = d.bytes()
		prev = u.Tag
	}
	return us, nil
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n == 0 {
		return nil
	}
	if n > maxDataLen || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	p := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return p
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
