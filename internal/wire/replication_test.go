package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"hetdsm/internal/indextable"
)

func TestEncodeDecodeHeartbeat(t *testing.T) {
	for _, m := range []*Message{
		{Kind: KindPing, Seq: 17, Rank: -1, Mutex: -1},
		{Kind: KindPong, Seq: 17, Rank: 3},
	} {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Errorf("%v round trip mismatch:\n got %+v\nwant %+v", m.Kind, got, m)
		}
	}
}

// sampleHomeImage populates every HomeImage field, so codec tests and the
// fuzz seeds exercise all of them.
func sampleHomeImage() *HomeImage {
	return &HomeImage{
		Platform: "solaris-sparc",
		Base:     0x40058000,
		Image:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Tag:      "(4,-1)(4,3)",
		Dirty:    true,
		Proto:    1,
		Nthreads: 4,
		Epoch:    3,
		Held:     map[int32]int32{0: 1, 5: 2},
		Joined:   map[int32]bool{0: true, 2: true},
		Applied:  map[int32]uint64{0: 12, 1: 7},
		Released: map[int32]uint64{2: 3},
		Pending:  map[int32][]indextable.Span{1: {{Entry: 1, First: 0, Count: 3}}, 3: {{Entry: 0, First: 0, Count: 1}}},
		Known:    map[int32]bool{1: true, 3: true},
	}
}

func TestEncodeDecodeReplication(t *testing.T) {
	m := &Message{
		Kind:  KindReplicate,
		Seq:   9,
		Rank:  -1,
		Mutex: 2,
		Rep: &Replication{
			Seq:   9,
			Event: RepInit,
			Rank:  -1,
			Mutex: 2,
			Home:  sampleHomeImage(),
			Updates: []Update{
				{Entry: 1, First: 2, Count: 2, Tag: "(4,2)", Data: []byte{0, 0, 0, 1, 0, 0, 0, 2}},
			},
			Marks: []RepPair{{Rank: 0, Seq: 12}, {Rank: 1, Seq: 7}},
			Epoch: 3,
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
		t.Errorf("replication round trip mismatch:\n got %+v %+v\nwant %+v %+v", got, got.Rep, m, m.Rep)
	}
}

func TestEncodeDecodeReplicationAck(t *testing.T) {
	m := &Message{Kind: KindReplicateAck, Seq: 4, Rep: &Replication{Seq: 4}}
	b, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Errorf("ack round trip mismatch:\n got %+v %+v\nwant %+v %+v", got, got.Rep, m, m.Rep)
	}
}

// TestDecodeReplicationRefusesFixedWidth: a record in the fixed-width
// encoding this one replaced, as write-ahead logs and cluster cuts hold
// it, is refused by version rather than misparsed.
func TestDecodeReplicationRefusesFixedWidth(t *testing.T) {
	rec := binary.BigEndian.AppendUint64(nil, 7) // seq
	rec = append(rec, byte(RepLock))
	rec = binary.BigEndian.AppendUint32(rec, 1) // rank
	rec = binary.BigEndian.AppendUint32(rec, 0) // mutex
	rec = append(rec, 0)                        // no home image
	rec = binary.BigEndian.AppendUint32(rec, 0) // no updates
	rec = binary.BigEndian.AppendUint32(rec, 0) // no marks
	rec = binary.BigEndian.AppendUint64(rec, 1) // epoch
	rec = binary.BigEndian.AppendUint64(rec, 0) // trace id
	rec = binary.BigEndian.AppendUint64(rec, 0) // parent span
	_, err := DecodeReplication(rec)
	if !errors.Is(err, ErrVersion) || !strings.Contains(err.Error(), "version 0") {
		t.Fatalf("fixed-width record: err %v, want ErrVersion naming version 0", err)
	}
	want := &Replication{Seq: 7, Event: RepLock, Rank: 1, Epoch: 1}
	got, err := DecodeReplication(EncodeReplication(want))
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("versioned record round trip: %+v, %v", got, err)
	}
}

func TestReplicationEventNames(t *testing.T) {
	for ev, want := range map[RepEvent]string{
		RepInit:    "rep-init",
		RepUpdate:  "rep-update",
		RepLock:    "rep-lock",
		RepUnlock:  "rep-unlock",
		RepBarrier: "rep-barrier",
		RepJoin:    "rep-join",
	} {
		if got := ev.String(); got != want {
			t.Errorf("RepEvent(%d).String() = %q, want %q", ev, got, want)
		}
	}
}
