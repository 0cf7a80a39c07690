package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fullMessage populates every Message field, a replication record with a
// home image included, so a seed of each kind walks every field's codec.
func fullMessage(k Kind) *Message {
	return &Message{
		Kind: k, Seq: 1 << 40, Rank: -1, Mutex: 7, Platform: "solaris-sparc", Base: 0x40058000,
		Updates: []Update{{Entry: 1, First: 300, Count: 2, Tag: "(4,2)", Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}}},
		State:   &ThreadState{PC: -9, FrameTag: "(8,1)(0,0)", Frame: make([]byte, 8), ExtraTag: "(1,2)", Extra: []byte{1, 2}},
		Err:     "moved", Addr: "home2", Proto: 1, Flags: FlagWarmReplica, Epoch: 3,
		Rep: &Replication{
			Seq: 2, Event: RepInit, Rank: -1, Mutex: -1, Home: sampleHomeImage(),
			Updates: []Update{{Entry: 1, First: 0, Count: 1, Data: []byte{0, 0, 0, 7}}},
			Marks:   []RepPair{{Rank: 1, Seq: 8}}, Epoch: 3, TraceID: 5, ParentSpan: 6,
		},
		TraceID: math.MaxUint64, ParentSpan: 11,
	}
}

// FuzzDecode exercises the frame parser with arbitrary bytes (run with
// `go test -fuzz=FuzzDecode ./internal/wire`); in normal test runs the
// seed corpus below executes. Decode must never panic, and anything it
// accepts must re-encode and re-decode to the same message.
func FuzzDecode(f *testing.F) {
	seeds := []*Message{
		{Kind: KindHello, Rank: 1, Platform: "linux-x86", Base: 0x40058000},
		{Kind: KindLockGrant, Rank: 2, Mutex: 3, Updates: []Update{
			{Entry: 1, First: 0, Count: 2, Tag: "(4,2)", Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
		}},
		{Kind: KindMigrate, Platform: "solaris-sparc", State: &ThreadState{
			PC: 9, FrameTag: "(8,1)(0,0)", Frame: make([]byte, 8), ExtraTag: "(1,2)", Extra: []byte{1, 2},
		}},
		{Kind: KindRedirect, Addr: "home2", Err: "moved"},
		{Kind: KindReplicate, Seq: 1, Rank: -1, Mutex: -1, Rep: &Replication{
			Seq: 1, Event: RepInit, Rank: -1, Mutex: -1, Epoch: 3, Home: sampleHomeImage(),
		}},
		{Kind: KindReplicate, Seq: 2, Rank: 1, Mutex: -1, Rep: &Replication{
			Seq: 2, Event: RepUpdate, Rank: 1, Mutex: -1, Marks: []RepPair{{Rank: 1, Seq: 8}},
			Updates: []Update{{Entry: 1, First: 0, Count: 1, Data: []byte{0, 0, 0, 7}}},
		}},
	}
	// Every kind, minimal and with every field populated.
	for k := KindHello; k < numKinds; k++ {
		if k.sendable() {
			seeds = append(seeds, &Message{Kind: k}, fullMessage(k))
		}
	}
	for _, m := range seeds {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	lock, err := Encode(&Message{Kind: KindLockReq, Seq: 9, Rank: 1, Epoch: 1})
	if err != nil {
		f.Fatal(err)
	}
	other := slices.Clone(lock)
	other[1] = Version + 1
	f.Add(other) // another encoding version
	for _, k := range []Kind{kindLockAck, kindSyncReq, kindSyncReply, kindSyncAck, kindDirForward} {
		f.Add([]byte{byte(k), Version, 0}) // a retired kind
	}
	for _, bit := range []uint64{fRetired5, fRetired6, fRetired9, fRetired17} {
		f.Add(binary.AppendUvarint(binary.AppendUvarint([]byte{byte(KindUnlockReq), Version}, bit), 1)) // a retired field
	}
	f.Add([]byte{byte(KindLockReq), Version, 0x80}) // truncated bitmap
	seq := []byte{byte(KindLockReq), Version, byte(fSeq)}
	f.Add(append(slices.Clone(seq), 0x80))                                              // truncated varint
	f.Add(append(slices.Clone(seq), bytes.Repeat([]byte{0xFF}, 9)...))                  // truncated at 9 bytes
	f.Add(append(append(slices.Clone(seq), bytes.Repeat([]byte{0xFF}, 9)...), 0x02))    // past 64 bits
	f.Add(append(append(slices.Clone(seq), bytes.Repeat([]byte{0x80}, 10)...), 0x00))   // 11-byte varint
	f.Add(binary.AppendUvarint([]byte{byte(KindLockReq), Version, byte(fRank)}, 1<<33)) // rank past 32 bits

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		re2, err := Encode(m2)
		if err != nil || !bytes.Equal(re, re2) {
			t.Fatalf("encode not stable: %v", err)
		}
	})
}
