package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return &Message{
		Kind:     KindUnlockReq,
		Seq:      42,
		Rank:     2,
		Mutex:    0,
		Platform: "solaris-sparc",
		Base:     0x40058000,
		Updates: []Update{
			{Entry: 1, First: 10, Count: 3, Tag: "(4,3)", Data: []byte{0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3}},
			{Entry: 4, First: 0, Count: 1, Tag: "(4,1)", Data: []byte{0, 0, 0, 9}},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	m := sampleMessage()
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestEncodeDecodeWithState(t *testing.T) {
	m := &Message{
		Kind:     KindMigrate,
		Rank:     1,
		Platform: "linux-x86",
		State: &ThreadState{
			PC:       7,
			FrameTag: "(4,-1)(0,0)(4,1)(0,0)",
			Frame:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
		},
	}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("state round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestEncodeDecodeEmptyMessage(t *testing.T) {
	m := &Message{Kind: KindJoinReq, Rank: 3}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("empty round trip mismatch: %+v vs %+v", got, m)
	}
}

func TestEncodeRejectsInvalidKind(t *testing.T) {
	if _, err := Encode(&Message{Kind: KindInvalid}); err == nil {
		t.Error("invalid kind must fail")
	}
	if _, err := Encode(&Message{Kind: numKinds}); err == nil {
		t.Error("out-of-range kind must fail")
	}
}

func TestDecodeRejectsCorruptInput(t *testing.T) {
	m := sampleMessage()
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic.
	for n := 0; n < len(b); n++ {
		if _, err := Decode(b[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}
	// Trailing garbage.
	if _, err := Decode(append(append([]byte{}, b...), 0xFF)); err == nil {
		t.Error("trailing garbage decoded successfully")
	}
	// Bad kind byte.
	bad := append([]byte{}, b...)
	bad[0] = 0
	if _, err := Decode(bad); err == nil {
		t.Error("zero kind decoded successfully")
	}
	// Implausible update counts, and one the frame cannot hold.
	for _, n := range []uint64{1 << 40, 1000} {
		bad := binary.AppendUvarint([]byte{byte(KindUnlockReq), Version, byte(fUpdates)}, n)
		if _, err := Decode(bad); err == nil {
			t.Errorf("update count %d in a %d-byte frame decoded successfully", n, len(bad))
		}
	}
	// Field bits past the last field.
	if _, err := Decode(binary.AppendUvarint([]byte{byte(KindLockReq), Version}, fRep<<1)); err == nil {
		t.Error("unknown field bit decoded successfully")
	}
}

// A frame in another encoding version is refused by version, not
// misparsed: the fixed-width encoding this one replaced has the zero top
// byte of its sequence number where the version byte now sits.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	frame, err := Encode(sampleMessage())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{0, Version + 1, 0xFF} {
		bad := slices.Clone(frame)
		bad[1] = v
		_, err := Decode(bad)
		if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", v)) {
			t.Errorf("version %d frame: err %v, want ErrVersion naming the version", v, err)
		}
	}
}

// TestKindBytesStable pins every kind's number. It is the frame's first
// byte, which fault plans aim at (transport.FaultPlan.Kinds, the sim's
// lost-reply profiles and their golden schedules), so a number never moves
// and is never reused: the retired lock ack keeps 5, the retired sharding
// kinds keep 23–26, and both codec directions refuse them.
func TestKindBytesStable(t *testing.T) {
	pinned := []struct {
		k Kind
		b byte
	}{
		{KindHello, 1}, {KindHelloAck, 2}, {KindLockReq, 3}, {KindLockGrant, 4},
		{KindUnlockReq, 6}, {KindUnlockAck, 7}, {KindBarrierReq, 8}, {KindBarrierRelease, 9},
		{KindJoinReq, 10}, {KindJoinAck, 11}, {KindMigrate, 12}, {KindMigrateAck, 13},
		{KindFlushReq, 14}, {KindFlushAck, 15}, {KindRedirect, 16}, {KindFetchReq, 17},
		{KindFetchReply, 18}, {KindPing, 19}, {KindPong, 20}, {KindReplicate, 21},
		{KindReplicateAck, 22},
	}
	retired := []struct {
		k Kind
		b byte
	}{{kindLockAck, 5}, {kindSyncReq, 23}, {kindSyncReply, 24}, {kindSyncAck, 25}, {kindDirForward, 26}}
	if len(pinned)+len(retired) != int(numKinds)-1 {
		t.Fatalf("%d kinds pinned, %d retired, %d numbered: pin the new kind's byte here",
			len(pinned), len(retired), numKinds-1)
	}
	for _, p := range pinned {
		if byte(p.k) != p.b {
			t.Errorf("%v is %d, pinned at %d", p.k, byte(p.k), p.b)
		}
		for _, m := range []*Message{{Kind: p.k}, fullMessage(p.k)} {
			frame, err := Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			if frame[0] != p.b || frame[1] != Version {
				t.Errorf("%v frame starts % x, want %02x %02x", p.k, frame[:2], p.b, Version)
			}
		}
	}
	for _, r := range retired {
		if byte(r.k) != r.b {
			t.Errorf("retired %v moved to %d, pinned at %d", r.k, byte(r.k), r.b)
		}
		if _, err := Encode(&Message{Kind: r.k}); err == nil {
			t.Errorf("retired %v encoded", r.k)
		}
		if _, err := Decode([]byte{r.b, Version, 0}); err == nil {
			t.Errorf("a retired %v frame decoded", r.k)
		}
	}
}

// TestRetiredFieldBitsRefused pins the presence bits of the retired
// sharding fields (heat samples, shard id, deadline budget, directory
// corrections) at their old positions and checks the decoder refuses any
// frame that sets one, so no surviving field's bit or encoding moved.
func TestRetiredFieldBitsRefused(t *testing.T) {
	for _, c := range []struct {
		bit uint64
		pos int
	}{{fRetired5, 5}, {fRetired6, 6}, {fRetired9, 9}, {fRetired17, 17}} {
		if c.bit != 1<<c.pos {
			t.Errorf("retired bit %#x moved from position %d", c.bit, c.pos)
		}
		if fAll&c.bit != 0 {
			t.Errorf("retired bit %d is still in fAll", c.pos)
		}
		frame := binary.AppendUvarint([]byte{byte(KindUnlockReq), Version}, fSeq|c.bit)
		frame = append(frame, 1, 1)
		if _, err := Decode(frame); err == nil || !strings.Contains(err.Error(), "unknown field bits") {
			t.Errorf("frame setting retired bit %d: err %v, want unknown field bits", c.pos, err)
		}
	}
	for bit, pos := range map[uint64]int{fTraceID: 7, fParentSpan: 8, fPlatform: 10, fState: 16, fRep: 18} {
		if bit != 1<<pos {
			t.Errorf("field bit %#x moved from position %d", bit, pos)
		}
	}
}

// TestSyncFrameSizes pins the header floor: kind, version and bitmap
// bytes, then a byte or two per non-zero field.
func TestSyncFrameSizes(t *testing.T) {
	for _, c := range []struct {
		m    *Message
		want int
	}{
		{&Message{Kind: KindLockReq, Seq: 1, Rank: 1, Epoch: 1}, 6},
		{&Message{Kind: KindLockGrant, Rank: 1, Mutex: 3, Epoch: 1}, 6},
		{&Message{Kind: KindUnlockAck, Rank: -1, Epoch: 1}, 5},
		// 7 header bytes (Seq 300 takes two), then a count byte and 14 for
		// the update: three span varints, "(4,1)" and 4 data bytes, each
		// with its length.
		{&Message{Kind: KindUnlockReq, Seq: 300, Rank: 1, Epoch: 1, Updates: []Update{
			{Entry: 1, First: 10, Count: 1, Tag: "(4,1)", Data: []byte{0, 0, 0, 7}},
		}}, 22},
	} {
		b, err := Encode(c.m)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) != c.want {
			t.Errorf("%v: %d bytes (% x), want %d", c.m.Kind, len(b), b, c.want)
		}
	}
}

func TestValidate(t *testing.T) {
	good := sampleMessage()
	if err := good.Validate(); err != nil {
		t.Errorf("good message invalid: %v", err)
	}
	for _, bad := range []Update{
		{Entry: -1, First: 0, Count: 1, Data: []byte{1}},
		{Entry: 0, First: -1, Count: 1, Data: []byte{1}},
		{Entry: 0, First: 0, Count: 0},
		{Entry: 0, First: 0, Count: 2, Data: []byte{1, 2, 3}},
	} {
		m := &Message{Kind: KindLockGrant, Updates: []Update{bad}}
		if err := m.Validate(); err == nil {
			t.Errorf("update %+v validated", bad)
		}
	}
}

func TestUpdateBytes(t *testing.T) {
	if got := UpdateBytes(sampleMessage().Updates); got != 16 {
		t.Errorf("UpdateBytes = %d, want 16", got)
	}
	if got := UpdateBytes(nil); got != 0 {
		t.Errorf("UpdateBytes(nil) = %d", got)
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindInvalid; k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Kind(200).String() != "Kind(200)" {
		t.Errorf("out-of-range kind name = %q", Kind(200).String())
	}
}

// randomMessage builds an arbitrary valid message for round-trip fuzzing.
func randomMessage(r *rand.Rand) *Message {
	k := Kind(1 + r.Intn(int(numKinds)-1))
	if !k.sendable() {
		k = KindLockGrant
	}
	m := &Message{
		Kind:     k,
		Seq:      r.Uint64() >> r.Intn(64),
		Rank:     int32(r.Intn(100)) - 1,
		Mutex:    int32(r.Intn(100)),
		Platform: []string{"linux-x86", "solaris-sparc", ""}[r.Intn(3)],
		Base:     r.Uint64(),
		Epoch:    uint64(r.Intn(3)),
		TraceID:  r.Uint64() >> r.Intn(64),
	}
	for i := 0; i < r.Intn(5); i++ {
		n := r.Intn(64)
		data := make([]byte, n)
		r.Read(data)
		m.Updates = append(m.Updates, Update{
			Entry: int32(r.Intn(10)),
			First: int32(r.Intn(1000)),
			Count: int32(1 + r.Intn(100)),
			Tag:   "(4,10)",
			Data:  data,
		})
	}
	if r.Intn(3) == 0 {
		m.Err = "skeleton slot busy"
	}
	if r.Intn(4) == 0 {
		m.Addr = "home-2"
	}
	m.Proto = uint8(r.Intn(2))
	m.Flags = uint8(r.Intn(4))
	if r.Intn(2) == 0 {
		frame := make([]byte, r.Intn(64))
		r.Read(frame)
		m.State = &ThreadState{PC: int64(r.Intn(1 << 30)), FrameTag: "(4,1)(0,0)", Frame: frame}
		if r.Intn(2) == 0 {
			extra := make([]byte, r.Intn(32))
			r.Read(extra)
			m.State.ExtraTag = "(1,32)"
			m.State.Extra = extra
		}
	}
	return m
}

// Property: Decode(Encode(m)) == m for arbitrary valid messages.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		b, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		// Normalize empty vs nil slices for comparison.
		if len(m.Updates) == 0 {
			m.Updates = nil
		}
		for i := range m.Updates {
			if len(m.Updates[i].Data) == 0 {
				m.Updates[i].Data = nil
			}
		}
		if m.State != nil && len(m.State.Frame) == 0 {
			m.State.Frame = nil
		}
		if m.State != nil && len(m.State.Extra) == 0 {
			m.State.Extra = nil
		}
		if got.State != nil && len(got.State.Frame) == 0 {
			got.State.Frame = nil
		}
		if got.State != nil && len(got.State.Extra) == 0 {
			got.State.Extra = nil
		}
		for i := range got.Updates {
			if len(got.Updates[i].Data) == 0 {
				got.Updates[i].Data = nil
			}
		}
		return reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Decode never panics on random byte soup.
func TestQuickDecodeNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("Decode panicked on % x", b)
			}
		}()
		_, _ = Decode(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: encoding is deterministic.
func TestQuickEncodeDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomMessage(r)
		a, err1 := Encode(m)
		b, err2 := Encode(m)
		return err1 == nil && err2 == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeSizesFrameExactly: a frame is allocated once at its final
// size — the only copy a release makes of its payload — so encoding never
// grows and re-copies it.
func TestEncodeSizesFrameExactly(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	msgs := []*Message{sampleMessage(), {Kind: KindJoinReq, Rank: 3}, fullMessage(KindReplicate)}
	for i := 0; i < 200; i++ {
		msgs = append(msgs, randomMessage(r))
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if cap(b) != len(b) {
			t.Errorf("%v frame: %d bytes in a %d-byte buffer", m.Kind, len(b), cap(b))
		}
	}
	if rec := EncodeReplication(fullMessage(KindReplicate).Rep); cap(rec) != len(rec) {
		t.Errorf("replication record: %d bytes in a %d-byte buffer", len(rec), cap(rec))
	}
}

// TestDecodeIntoReusesMessage: decoding frame after frame into one message
// yields exactly what Decode yields, reusing the Updates array and the tag
// strings it already holds, also across frames that carry no updates (a
// lock request between two releases).
func TestDecodeIntoReusesMessage(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var m Message
	for i := 0; i < 300; i++ {
		want := randomMessage(r)
		if i%3 == 0 {
			want = sampleMessage()
		}
		b, err := Encode(want)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := Decode(b)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(&m, b); err != nil {
			t.Fatal(err)
		}
		got := m
		if len(got.Updates) == 0 && len(ref.Updates) == 0 {
			got.Updates = ref.Updates
		}
		if !reflect.DeepEqual(&got, ref) {
			t.Fatalf("frame %d: DecodeInto\n %+v\nDecode\n %+v", i, got, *ref)
		}
	}
	release := sampleMessage()
	b, _ := Encode(release)
	lock, _ := Encode(&Message{Kind: KindLockReq, Rank: 2})
	if err := DecodeInto(&m, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		DecodeInto(&m, lock)
		DecodeInto(&m, b)
	})
	if allocs != 0 {
		t.Errorf("re-decoding a release after a lock request: %.0f allocs, want 0", allocs)
	}
}

// TestAppendEncodeReusesBuffer: encoding into a large enough buffer writes
// the frame Encode makes, in place.
func TestAppendEncodeReusesBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	buf := make([]byte, 0, 1<<16)
	for i := 0; i < 100; i++ {
		m := randomMessage(r)
		want, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEncode(buf, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("message %d: AppendEncode differs from Encode", i)
		}
		if len(want) <= cap(buf) && &got[0] != &buf[:1][0] {
			t.Fatalf("message %d: %d-byte frame did not reuse a %d-byte buffer", i, len(want), cap(buf))
		}
	}
}
