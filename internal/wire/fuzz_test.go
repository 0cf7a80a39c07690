package wire

import (
	"bytes"
	"testing"
)

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
	for _, m := range seeds {
		b, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

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
