package wire

import (
	"bytes"
	"math/rand"
	"reflect"
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
		DeadlineMS: 250,
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
	// Implausible update count.
	bad2 := append([]byte{}, b...)
	// Update count sits after kind(1)+seq(8)+rank(4)+mutex(4)+strlen(4)+str+base(8).
	off := 1 + 8 + 4 + 4 + 4 + len(m.Platform) + 8
	copy(bad2[off:], []byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := Decode(bad2); err == nil {
		t.Error("implausible update count decoded successfully")
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
	m := &Message{
		Kind:     Kind(1 + r.Intn(int(numKinds)-1)),
		Seq:      r.Uint64(),
		Rank:     int32(r.Intn(100)),
		Mutex:    int32(r.Intn(100)),
		Platform: []string{"linux-x86", "solaris-sparc", ""}[r.Intn(3)],
		Base:     r.Uint64(),
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
	m.Shard = int32(r.Intn(8)) - 1
	for i := 0; i < r.Intn(4); i++ {
		m.Dir = append(m.Dir, DirEntry{
			Object: int32(r.Intn(16)),
			Lock:   r.Intn(2) == 0,
			Shard:  int32(r.Intn(8)),
			Ver:    r.Uint64(),
		})
	}
	for i := 0; i < r.Intn(4); i++ {
		m.Heat = append(m.Heat, HeatSample{Page: int32(r.Intn(64)), Faults: r.Uint32()})
	}
	return m
}

// Directory-forward frames round-trip their correction payload exactly.
func TestEncodeDecodeDirForward(t *testing.T) {
	m := &Message{
		Kind:  KindDirForward,
		Rank:  2,
		Shard: 3,
		Dir: []DirEntry{
			{Object: 5, Shard: 1, Ver: 9},
			{Object: 0, Lock: true, Shard: 2, Ver: 4},
		},
		Heat: []HeatSample{{Page: 7, Faults: 12}},
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
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
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
	msgs := []*Message{sampleMessage(), {Kind: KindJoinReq, Rank: 3}}
	for i := 0; i < 200; i++ {
		msgs = append(msgs, randomMessage(r))
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if m.Rep == nil && cap(b) != len(b) {
			t.Errorf("%v frame: %d bytes in a %d-byte buffer", m.Kind, len(b), cap(b))
		}
	}
}

// TestDecodeIntoReusesMessage: decoding frame after frame into one message
// yields exactly what Decode yields, reusing the Updates and Heat arrays
// and the tag strings it already holds, also across frames that carry no
// updates or heat (a lock request between two releases).
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
		if len(got.Heat) == 0 && len(ref.Heat) == 0 {
			got.Heat = ref.Heat
		}
		if !reflect.DeepEqual(&got, ref) {
			t.Fatalf("frame %d: DecodeInto\n %+v\nDecode\n %+v", i, got, *ref)
		}
	}
	release := sampleMessage()
	release.Heat = []HeatSample{{Page: 3, Faults: 1}, {Page: 9, Faults: 2}}
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
