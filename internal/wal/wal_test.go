package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/wire"
)

// dsdDefaults are the home options recovery tests use.
func dsdDefaults() dsd.Options { return dsd.DefaultOptions() }

// testGThV is a small global structure for log-level tests.
func testGThV() tag.Struct {
	return tag.Struct{
		Name: "G",
		Fields: []tag.Field{
			{Name: "A", T: tag.IntArray(8)},
		},
	}
}

// testInit builds a valid bootstrap record for testGThV on linux-x86.
func testInit(t testing.TB, seq, epoch uint64) *wire.Replication {
	t.Helper()
	layout, err := tag.NewLayout(testGThV(), platform.LinuxX86)
	if err != nil {
		t.Fatal(err)
	}
	return &wire.Replication{
		Event: wire.RepInit,
		Rank:  -1,
		Mutex: -1,
		Seq:   seq,
		Epoch: epoch,
		Home: &wire.HomeImage{
			Platform: platform.LinuxX86.Name,
			Base:     0x1000,
			Image:    make([]byte, layout.Size),
			Tag:      tag.FromLayout(layout).String(),
			Nthreads: 2,
		},
	}
}

func openTest(t *testing.T, dir string) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, GThV: testGThV()})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestRecordFlushReplay appends through the Replicator interface, closes,
// and verifies a reopen replays the whole tail into a recoverable mirror.
func TestRecordFlushReplay(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	if l.Ready() {
		t.Fatal("fresh log claims recoverable state")
	}
	if l.Epoch() != 1 {
		t.Fatalf("fresh log epoch = %d, want 1", l.Epoch())
	}

	l.Record(testInit(t, 0, l.Epoch()))
	l.Record(&wire.Replication{Event: wire.RepLock, Rank: 1, Mutex: 0, Epoch: l.Epoch()})
	l.Record(&wire.Replication{Event: wire.RepUnlock, Rank: 1, Mutex: 0, Epoch: l.Epoch()})
	l.Flush()
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if got := l.Appended(); got != 3 {
		t.Fatalf("appended = %d, want 3", got)
	}
	if !l.Ready() {
		t.Fatal("log not ready after bootstrap record")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir)
	defer l2.Close()
	if !l2.Ready() {
		t.Fatal("reopened log lost the mirror state")
	}
	if l2.Truncated() {
		t.Fatal("clean log reported a truncated tail")
	}
	if l2.Epoch() <= l.Epoch() {
		t.Fatalf("reopen epoch %d not above previous %d", l2.Epoch(), l.Epoch())
	}
}

// TestOpenRefusesFixedWidthRecords: a log or snapshot holding a record in
// the unversioned fixed-width encoding the varint codec replaced is refused
// with an error naming the version. It is neither misparsed nor truncated
// away as a torn tail.
func TestOpenRefusesFixedWidthRecords(t *testing.T) {
	rec := binary.BigEndian.AppendUint64(nil, 1) // seq
	rec = append(rec, byte(wire.RepLock))
	rec = binary.BigEndian.AppendUint32(rec, 1) // rank
	rec = binary.BigEndian.AppendUint32(rec, 0) // mutex
	rec = append(rec, 0)                        // no home image
	rec = binary.BigEndian.AppendUint32(rec, 0) // no updates
	rec = binary.BigEndian.AppendUint32(rec, 0) // no marks
	rec = binary.BigEndian.AppendUint64(rec, 1) // epoch
	rec = binary.BigEndian.AppendUint64(rec, 0) // trace id
	rec = binary.BigEndian.AppendUint64(rec, 0) // parent span
	framed := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
	framed = binary.BigEndian.AppendUint32(framed, crc32.ChecksumIEEE(rec))
	framed = append(framed, rec...)
	for _, name := range []string{logName, snapName} {
		dir := t.TempDir()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, framed, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, GThV: testGThV()})
		if err == nil {
			l.Close()
		}
		if !errors.Is(err, wire.ErrVersion) || !strings.Contains(err.Error(), "version 0") {
			t.Errorf("%s in the fixed-width encoding: Open error %v, want one naming version 0", name, err)
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, framed) {
			t.Errorf("%s was modified by the refused Open", name)
		}
	}
}

// parentSnap and parentLog are a WAL directory written by the build before
// the sharding fields were retired (wire.Version 1): a bootstrap snapshot
// of testGThV on linux-x86, then one RepUpdate record in the log tail —
// rank 1 wrote A[2..4] = 7, -3, 42 under request 5, traced as 9/10.
const (
	parentSnap = "0000004dca093e9f010101010101096c696e75782d78383680202000000000000000000000000000000000000000000000000000000000000000000a28342c382928302c3029000004010000000000000000010000"
	parentLog  = "0000001ec899752301020202010001000406000c07000000fdffffff2a00000001020501090a"
)

// TestReplayParentFormatRepUpdate: retiring fields from the frame left
// the record encoding alone, so a log the previous build wrote still
// replays, update data and watermark included.
func TestReplayParentFormatRepUpdate(t *testing.T) {
	dir := t.TempDir()
	for name, h := range map[string]string{snapName: parentSnap, logName: parentLog} {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l := openTest(t, dir)
	defer l.Close()
	if l.Replayed() != 1 || l.Truncated() {
		t.Fatalf("replayed %d records (truncated %v), want the one RepUpdate", l.Replayed(), l.Truncated())
	}
	home, err := l.RecoverHome(platform.LinuxX86, dsdDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	got, err := home.Globals().MustVar("A").Ints(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 0, 7, -3, 42, 0, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("A = %v after replay, want %v", got, want)
	}
	if applied, _ := home.Watermarks(); applied[1] != 5 {
		t.Errorf("rank 1 applied watermark %d, want 5", applied[1])
	}
}

// TestEpochStrictlyIncreases opens the same directory repeatedly; every
// incarnation must persist a strictly higher fencing epoch, even when it
// records nothing at all.
func TestEpochStrictlyIncreases(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	l.Record(testInit(t, 0, l.Epoch()))
	l.Flush()
	last := l.Epoch()
	l.Close()
	for i := 0; i < 3; i++ {
		l := openTest(t, dir)
		if l.Epoch() <= last {
			t.Fatalf("incarnation %d epoch %d, want > %d", i, l.Epoch(), last)
		}
		last = l.Epoch()
		l.Close()
	}
}

// TestTornTailTruncated simulates a crash mid-append: a partial frame at
// the end of the log must be cut off, with everything before it replayed.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, logName)
	var good []byte
	good = append(good, frame(testInit(t, 1, 1))...)
	good = append(good, frame(&wire.Replication{Event: wire.RepLock, Rank: 2, Mutex: 1, Seq: 2, Epoch: 1})...)
	torn := frame(&wire.Replication{Event: wire.RepUnlock, Rank: 2, Mutex: 1, Seq: 3, Epoch: 1})
	torn = torn[:len(torn)-3] // the write died mid-payload
	if err := os.WriteFile(logPath, append(append([]byte{}, good...), torn...), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, dir)
	if !l2.Truncated() {
		t.Fatal("torn tail not reported")
	}
	if l2.Replayed() != 2 {
		t.Fatalf("replayed %d records, want 2", l2.Replayed())
	}
	if !l2.Ready() {
		t.Fatal("state before the torn record was lost")
	}
	l2.Close()
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	// The torn bytes must be physically gone plus the epoch-bump record
	// appended by Open; a third open proves the file parses end to end.
	if len(data) <= len(good) {
		t.Fatalf("log is %d bytes; want the %d good bytes plus an epoch record", len(data), len(good))
	}
	l3 := openTest(t, dir)
	if l3.Truncated() {
		t.Fatal("truncation reported after the tail was already cut")
	}
	l3.Close()
}

// TestCorruptRecordTruncated flips a payload byte: the CRC must reject the
// record and everything after it, never replaying garbage into the mirror.
func TestCorruptRecordTruncated(t *testing.T) {
	dir := t.TempDir()
	init := testInit(t, 1, 1)
	lock := &wire.Replication{Event: wire.RepLock, Rank: 1, Mutex: 0, Seq: 2, Epoch: 1}
	unlock := &wire.Replication{Event: wire.RepUnlock, Rank: 1, Mutex: 0, Seq: 3, Epoch: 1}
	var raw []byte
	raw = append(raw, frame(init)...)
	mid := len(raw)
	raw = append(raw, frame(lock)...)
	raw = append(raw, frame(unlock)...)
	raw[mid+frameHeader+4] ^= 0xFF // corrupt the lock record's payload
	if err := os.WriteFile(filepath.Join(dir, logName), raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l := openTest(t, dir)
	defer l.Close()
	if !l.Truncated() {
		t.Fatal("corrupt record not reported as truncation")
	}
	if l.Replayed() != 1 {
		t.Fatalf("replayed %d records, want only the init before the corruption", l.Replayed())
	}
	if !l.Ready() {
		t.Fatal("intact prefix was not replayed")
	}
}

// TestSnapshotCompaction crosses the SnapshotEvery threshold and verifies
// the record tail is replaced by wal.snap — and that recovery afterwards
// comes from the snapshot alone.
func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, GThV: testGThV(), SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	l.Record(testInit(t, 0, l.Epoch()))
	for i := 0; i < 6; i++ {
		l.Record(&wire.Replication{Event: wire.RepLock, Rank: 1, Mutex: 0, Epoch: l.Epoch()})
		l.Record(&wire.Replication{Event: wire.RepUnlock, Rank: 1, Mutex: 0, Epoch: l.Epoch()})
		l.Flush()
	}
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapName)); err != nil {
		t.Fatalf("no snapshot after crossing the threshold: %v", err)
	}
	info, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() >= 13*64 {
		t.Fatalf("log tail is %d bytes; compaction should have truncated it", info.Size())
	}

	l2 := openTest(t, dir)
	defer l2.Close()
	if !l2.Ready() {
		t.Fatal("snapshot did not restore the mirror")
	}
}

// TestRecoverHomeHeterogeneous replays a little-endian home's WAL and
// recovers it onto a big-endian 64-bit platform; the image must convert
// receiver-makes-right.
func TestRecoverHomeHeterogeneous(t *testing.T) {
	dir := t.TempDir()
	l := openTest(t, dir)
	init := testInit(t, 0, l.Epoch())
	vals := []int64{7, -3, 42, 0, 1 << 20, -9, 5, 11}
	layout, err := tag.NewLayout(testGThV(), platform.LinuxX86)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		f := layout.Fields[0]
		binary.LittleEndian.PutUint32(init.Home.Image[f.Offset+i*4:], uint32(int32(v)))
	}
	l.Record(init)
	l.Flush()
	l.Close()

	l2 := openTest(t, dir)
	defer l2.Close()
	home, err := l2.RecoverHome(platform.SolarisSPARC64, dsdDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer home.Close()
	if home.Epoch() != l2.Epoch() {
		t.Fatalf("recovered home epoch %d, want the log's %d", home.Epoch(), l2.Epoch())
	}
	got, err := home.Globals().MustVar("A").Ints(0, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		if got[i] != v {
			t.Fatalf("A[%d] = %d after heterogeneous recovery, want %d", i, got[i], v)
		}
	}
}

// TestRecoverHomeEmpty must refuse to fabricate a home from nothing.
func TestRecoverHomeEmpty(t *testing.T) {
	l := openTest(t, t.TempDir())
	defer l.Close()
	if _, err := l.RecoverHome(platform.LinuxX86, dsdDefaults()); err == nil {
		t.Fatal("RecoverHome succeeded with no recoverable state")
	}
}
