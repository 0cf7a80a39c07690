package dsd

import (
	"encoding/binary"
	"maps"
	"math/rand"
	"testing"
	"time"

	"hetdsm/internal/indextable"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/wire"
)

// TestIdleRankOwesBoundedState: rank 0 makes 10 000 releases of 256 random
// stores into a 4 096-int array while rank 1 stays idle. The catch-up state
// the home holds never spans more than the array, and rank 1's first Lock
// ships exactly the elements rank 0 wrote, with their final values.
func TestIdleRankOwesBoundedState(t *testing.T) {
	const elems, releases, stores = 4096, 10000, 256
	gthv := tag.Struct{Name: "G", Fields: []tag.Field{{Name: "V", T: tag.IntArray(elems)}}}
	h, err := NewHome(gthv, platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	writer, err := h.LocalThread(0, platform.LinuxX86, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	idle := dialRaw(t, h, 1)
	v := writer.Globals().MustVar("V")
	rng := rand.New(rand.NewSource(1))
	final := make(map[int]int64)
	for i := 1; i <= releases; i++ {
		if err := writer.Lock(0); err != nil {
			t.Fatal(err)
		}
		for range stores {
			x, val := rng.Intn(elems), 1+rng.Int63n(1<<30)
			if err := v.SetInt(x, val); err != nil {
				t.Fatal(err)
			}
			final[x] = val
		}
		if err := writer.Unlock(0); err != nil {
			t.Fatal(err)
		}
		if i == 10 || i == 110 || i == 1110 || i == releases {
			h.mu.Lock()
			held := 0
			for _, runs := range h.runs {
				for _, r := range runs {
					held += r.count
				}
			}
			h.mu.Unlock()
			if held > elems {
				t.Fatalf("after %d releases the home holds %d elements of catch-up for a %d-element GThV", i, held, elems)
			}
		}
	}
	start := time.Now()
	grant := idle.call(&wire.Message{Kind: wire.KindLockReq, Seq: 1, Mutex: 0})
	took := time.Since(start)
	shipped := make(map[int]int64)
	for _, u := range grant.Updates {
		for k := range int(u.Count) {
			shipped[int(u.First)+k] = int64(int32(binary.LittleEndian.Uint32(u.Data[4*k:])))
		}
	}
	if !maps.Equal(shipped, final) {
		t.Fatalf("rank 1's first grant shipped %d elements, want the %d rank 0 wrote, at their final values", len(shipped), len(final))
	}
	t.Logf("rank 1's first Lock after %d releases: %v, %d elements", releases, took, len(shipped))
}

// TestRecordAllocatesNothing: once an entry's two run buffers have grown,
// recording a release over its runs allocates nothing, out-of-order spans
// included.
func TestRecordAllocatesNothing(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h.seen[0], h.seen[1], h.seen[2] = 0, 0, 0
	a, _ := h.table.EntryByName("A")
	b, _ := h.table.EntryByName("B")
	// B's one span first, then every other element of A backwards: runs of
	// very different counts per entry.
	release := []indextable.Span{{Entry: b.Index, First: 5, Count: 4}}
	for x := 62; x >= 0; x -= 2 {
		release = append(release, indextable.Span{Entry: a.Index, First: x, Count: 1})
	}
	spans := make([]indextable.Span, len(release))
	writer := int32(0)
	record := func() {
		copy(spans, release)
		release[0].First = (release[0].First + 7) % 60
		writer = 1 - writer
		h.stamp++
		h.recordLocked(indextable.MergeInPlace(spans), writer, h.floorsLocked())
	}
	for range 64 {
		record()
	}
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Errorf("recording a release allocated %.1f times, want 0", n)
	}
}

// queueOracle is the catch-up algorithm the stamped master replaced, kept
// as FuzzCatchUp's oracle: a raw queue per rank that every apply appends to
// for every other registered or handoff-carried rank, a lazy commit that
// drains the prefix the last reply covered, queues carried through a
// handoff for ranks that re-register warm, and a full seed for any other
// rank registering once anything was applied.
type queueOracle struct {
	table   *indextable.Table
	dirty   bool
	queues  map[int32][]indextable.Span
	peers   map[int32]bool
	carried map[int32]bool
	marks   map[int32]int // the queue prefix each reply in flight covered
}

func newQueueOracle(table *indextable.Table) *queueOracle {
	return &queueOracle{table: table, queues: map[int32][]indextable.Span{},
		peers: map[int32]bool{}, carried: map[int32]bool{}, marks: map[int32]int{}}
}

func (o *queueOracle) whole() []indextable.Span {
	spans := make([]indextable.Span, o.table.Len())
	for e := range spans {
		spans[e] = indextable.Span{Entry: e, Count: o.table.Entry(e).Count}
	}
	return spans
}

// tracked is every rank whose queue the oracle keeps.
func (o *queueOracle) tracked() map[int32]bool {
	all := maps.Clone(o.peers)
	maps.Copy(all, o.carried)
	return all
}

func (o *queueOracle) hello(rank int32, warm bool) {
	switch {
	case o.carried[rank] && warm:
	case o.carried[rank]:
		o.queues[rank] = o.whole()
	case o.dirty:
		o.queues[rank] = append(o.queues[rank], o.whole()...)
	}
	delete(o.carried, rank)
	o.peers[rank] = true
}

func (o *queueOracle) apply(writer int32, spans []indextable.Span) {
	o.dirty = true
	for rank := range o.tracked() {
		if rank != writer {
			o.queues[rank] = append(o.queues[rank], spans...)
		}
	}
}

func (o *queueOracle) reply(rank int32) []indextable.Span {
	o.marks[rank] = len(o.queues[rank])
	return indextable.MergeSpans(o.queues[rank])
}

// commit drains the prefix the rank's last reply covered, if one is in
// flight, and reports whether it was.
func (o *queueOracle) commit(rank int32) bool {
	mark, open := o.marks[rank]
	if open {
		o.queues[rank] = o.queues[rank][mark:]
		delete(o.marks, rank)
	}
	return open
}

func (o *queueOracle) disconnect(rank int32) {
	delete(o.peers, rank)
	delete(o.queues, rank)
	delete(o.marks, rank)
}

func (o *queueOracle) restore() {
	o.dirty = true
	for rank := range o.tracked() {
		o.queues[rank] = append(o.queues[rank], o.whole()...)
	}
}

// handoff captures the oracle's image and rebuilds from it: each tracked
// rank's queue is carried, merged, and no rank is registered.
func (o *queueOracle) handoff() (known map[int32]bool) {
	known = o.tracked()
	queues := map[int32][]indextable.Span{}
	for rank, q := range o.queues {
		if merged := indextable.MergeSpans(q); len(merged) > 0 {
			queues[rank] = merged
		}
	}
	o.queues, o.carried = queues, known
	o.peers, o.marks, o.dirty = map[int32]bool{}, map[int32]int{}, true
	return known
}

// elemSet flattens spans to their (entry, element) pairs.
func elemSet(spans []indextable.Span) map[[2]int]bool {
	set := make(map[[2]int]bool)
	for _, s := range spans {
		for x := s.First; x < s.First+s.Count; x++ {
			set[[2]int{s.Entry, x}] = true
		}
	}
	return set
}

// updateSpans returns the spans a reply's updates carry.
func updateSpans(ups []wire.Update) []indextable.Span {
	spans := make([]indextable.Span, len(ups))
	for i, u := range ups {
		spans[i] = indextable.Span{Entry: int(u.Entry), First: int(u.First), Count: int(u.Count)}
	}
	return spans
}

// catchUpCorpus holds programs for FuzzCatchUp: ops are (code, rank) byte
// pairs, an apply followed by a span count less one and three bytes
// (entry, first, count less one) per span.
var catchUpCorpus = func() [][]byte {
	const (
		cold, warm, apply, reply, replay, commit, disconnect, restore, handoff = 0, 1, 2, 3, 4, 5, 6, 7, 8
	)
	// The growth scenario: rank 0 releases scattered stores, rank 1 idles,
	// then rank 1 locks.
	growth := []byte{cold, 0, cold, 1}
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		growth = append(growth, apply, 0, 3)
		for range 4 {
			growth = append(growth, 1+byte(rng.Intn(2)), byte(rng.Intn(64)), 0)
		}
	}
	growth = append(growth, reply, 1, commit, 1, reply, 1)
	// TestLazyGrantCommit: rank 1 writes A[3], rank 0 is granted it twice
	// (a replay), rank 1 writes B[5], rank 0 unlocks and locks again.
	lazy := []byte{cold, 0, cold, 1, apply, 1, 0, 1, 3, 0, reply, 0, replay, 0,
		apply, 1, 0, 2, 5, 0, commit, 0, reply, 0}
	// A handoff with two ranks owing what the third wrote, re-registered
	// warm and cold, then a restore and a reconnect.
	carried := []byte{cold, 0, cold, 1, cold, 2, apply, 0, 1, 1, 3, 4, 3, 0, 0, reply, 2,
		handoff, 0, warm, 0, warm, 1, cold, 2, reply, 0, reply, 1, reply, 2, restore, 0, reply, 1,
		disconnect, 1, cold, 1, apply, 0, 0, 2, 7, 2, reply, 1, commit, 1, reply, 1}
	return [][]byte{growth, lazy, carried}
}()

// FuzzCatchUp drives the stamped master and queueOracle with one program of
// applies, replies, replays, commits, disconnects, warm and cold hellos,
// restores and handoffs. Every reply the home ships to a rank must lie
// within what the oracle ships (plus, until its first commit after a
// handoff, the union of the carried catch-up), and must cover what the
// oracle ships but for the elements that rank wrote last. Full seeds
// coincide, the tracked ranks are the oracle's, and each entry's runs stay
// sorted, disjoint and inside the entry.
func FuzzCatchUp(f *testing.F) {
	for _, prog := range catchUpCorpus {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		// The oracle's queues grow with the program, and its replies with
		// them: cap the program so each run stays fast.
		prog = prog[:min(len(prog), 2048)]
		opts := DefaultOptions()
		opts.WholeArrayThreshold = 0 // compare spans unwidened
		const ranks = 3
		h, err := NewHome(testGThV(), platform.LinuxX86, ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		plans, err := entryPlans(h.table, h.plat, h.table.Translator(h.table))
		if err != nil {
			t.Fatal(err)
		}
		o := newQueueOracle(h.table)
		peers := map[int32]*peer{}
		var seqs [ranks]uint64
		lastWriter := map[[2]int]int32{} // absent: never written
		allow := map[int32]map[[2]int]bool{}
		request := func(rank int32) {
			seqs[rank]++
			h.ack(peers[rank], seqs[rank])
			if o.commit(rank) {
				delete(allow, rank)
			}
		}
		check := func(rank int32, seed bool, got, want []indextable.Span) {
			t.Helper()
			gotSet, wantSet := elemSet(got), elemSet(want)
			for x := range gotSet {
				if !wantSet[x] && !allow[rank][x] {
					t.Fatalf("rank %d shipped %v, which the oracle does not owe it: got %v, oracle %v", rank, x, got, want)
				}
			}
			for x := range wantSet {
				if !gotSet[x] && lastWriter[x] != rank {
					t.Fatalf("rank %d not shipped %v, last written by %d: got %v, oracle %v", rank, x, lastWriter[x], got, want)
				}
			}
			if whole := elemSet(o.whole()); seed && !(maps.Equal(gotSet, whole) && maps.Equal(wantSet, whole)) {
				t.Fatalf("rank %d's full seed: got %v, oracle %v", rank, got, want)
			}
		}
		for len(prog) >= 2 {
			code, rank := prog[0]%9, int32(prog[1]%ranks)
			prog = prog[2:]
			p := peers[rank]
			switch {
			case code <= 1 && p == nil: // cold or warm hello
				p = &peer{rank: rank, plat: h.plat, plans: plans}
				if err := h.register(p, code == 1); err != nil {
					t.Fatal(err)
				}
				peers[rank] = p
				o.hello(rank, code == 1)
				if code == 0 {
					delete(allow, rank)
				}
			case code == 2 && p != nil && len(prog) > 0: // apply
				n := 1 + int(prog[0]%4)
				prog = prog[1:]
				var spans []indextable.Span
				var ups []wire.Update
				for ; n > 0 && len(prog) >= 3; n-- {
					e := int(prog[0]) % h.table.Len()
					entry := h.table.Entry(e)
					first := int(prog[1]) % entry.Count
					count := 1 + int(prog[2])%(entry.Count-first)
					prog = prog[3:]
					s := indextable.Span{Entry: e, First: first, Count: count}
					spans = append(spans, s)
					ups = append(ups, wire.Update{Entry: int32(e), First: int32(first), Count: int32(count), Data: make([]byte, h.table.SpanBytes(s))})
					for x := range elemSet([]indextable.Span{s}) {
						lastWriter[x] = rank
					}
				}
				request(rank)
				if err := h.applyUpdates(p, &wire.Message{Seq: seqs[rank], Updates: ups}); err != nil {
					t.Fatal(err)
				}
				o.apply(rank, spans)
			case code == 3 && p != nil: // a lock or barrier request, replied to
				request(rank)
				seed := p.seed
				check(rank, seed, updateSpans(h.peekPending(p, seqs[rank])), o.reply(rank))
			case code == 4 && p != nil && p.replied: // the same request replayed
				seed := p.seed
				check(rank, seed, updateSpans(h.peekPending(p, seqs[rank])), o.reply(rank))
			case code == 5 && p != nil: // a request with no reply to commit
				request(rank)
			case code == 6 && p != nil:
				h.removePeer(p)
				delete(peers, rank)
				o.disconnect(rank)
				delete(allow, rank)
			case code == 7:
				h.mu.Lock()
				err := h.importLocked(h.table, make([]byte, h.layout.Size))
				h.mu.Unlock()
				if err != nil {
					t.Fatal(err)
				}
				o.restore()
				for x := range elemSet(o.whole()) {
					lastWriter[x] = -1
				}
			case code == 8:
				img, err := h.Image()
				if err != nil {
					t.Fatal(err)
				}
				if h, err = NewHomeFromImage(testGThV(), platform.LinuxX86, opts, img); err != nil {
					t.Fatal(err)
				}
				clear(peers)
				union := map[[2]int]bool{}
				for _, spans := range img.Pending {
					maps.Copy(union, elemSet(spans))
				}
				clear(allow)
				for rank := range o.handoff() {
					allow[rank] = union
				}
			}
			h.mu.Lock()
			tracked := o.tracked()
			for rank := range h.seen {
				if !tracked[rank] || len(h.seen) != len(tracked) {
					t.Fatalf("tracked ranks %v, oracle %v", h.seen, tracked)
				}
			}
			for e, runs := range h.runs {
				for i, r := range runs {
					if r.count <= 0 || r.first < 0 || r.first+r.count > h.table.Entry(e).Count || i > 0 && runs[i-1].first+runs[i-1].count > r.first {
						t.Fatalf("entry %d runs not sorted, disjoint and in range: %+v", e, runs)
					}
				}
			}
			h.mu.Unlock()
		}
	})
}
