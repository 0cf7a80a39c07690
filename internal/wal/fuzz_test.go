package wal

import (
	"os"
	"path/filepath"
	"testing"

	"hetdsm/internal/indextable"
	"hetdsm/internal/wire"
)

// FuzzWALReplay feeds arbitrary bytes in as a wal.log and opens the
// directory: recovery must never panic and never replay garbage — whatever
// Open accepts must survive a second open of the same directory.
func FuzzWALReplay(f *testing.F) {
	// A full bootstrap record with every image list populated, then deltas
	// on top of it: mutations start from a log that replays end to end.
	init := testInit(f, 1, 1)
	init.Home.Dirty = true
	init.Home.Epoch = 1
	init.Home.Held = map[int32]int32{2: 0}
	init.Home.Joined = map[int32]bool{1: true}
	init.Home.Applied = map[int32]uint64{0: 5}
	init.Home.Released = map[int32]uint64{0: 3, 1: 3}
	init.Home.Pending = map[int32][]indextable.Span{1: {{Entry: 0, First: 2, Count: 4}}}
	init.Home.Known = map[int32]bool{0: true, 1: true}
	valid := frame(init)
	valid = append(valid, frame(&wire.Replication{Event: wire.RepLock, Rank: 1, Mutex: 0, Seq: 2, Epoch: 1})...)
	valid = append(valid, frame(&wire.Replication{
		Event: wire.RepUpdate, Rank: 1, Mutex: -1, Seq: 3, Epoch: 1,
		Updates: []wire.Update{{Entry: 0, First: 1, Count: 1, Data: []byte{7, 0, 0, 0}}},
		Marks:   []wire.RepPair{{Rank: 1, Seq: 6}},
	})...)
	valid = append(valid, frame(&wire.Replication{Event: wire.RepUnlock, Rank: -1, Mutex: 0, Seq: 4, Epoch: 1})...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // torn tail
	// Deltas with no bootstrap record before them: nothing to fold into.
	f.Add(frame(&wire.Replication{Event: wire.RepLock, Rank: 1, Mutex: 0, Seq: 1, Epoch: 1}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 0x7f}) // one-byte frame, bad CRC
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir, GThV: testGThV()})
		if err != nil {
			return
		}
		l.Close()
		l2, err := Open(Options{Dir: dir, GThV: testGThV()})
		if err != nil {
			t.Fatalf("recovered log does not reopen: %v", err)
		}
		l2.Close()
	})
}
