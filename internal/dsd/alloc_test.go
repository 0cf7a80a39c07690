package dsd

import (
	"runtime"
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// allocCluster is one home and one thread over a transport.Pipe, the shape
// of the benchmark's release workloads, on int A[n].
func allocCluster(t *testing.T, homeP *platform.Platform, n int) (*Thread, *Var) {
	t.Helper()
	gthv := tag.Struct{Name: "GThV_t", Fields: []tag.Field{{Name: "A", T: tag.IntArray(n)}}}
	h, err := NewHome(gthv, homeP, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, b := transport.Pipe()
	go h.ServeConn(b)
	th, err := Connect(a, platform.LinuxX86, 0, gthv, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { th.Close() })
	return th, th.Globals().MustVar("A")
}

// TestAllocBudgets holds the release path to the allocation counts that make
// a release cost O(dirty bytes): an empty Lock+Unlock is a handful of frames,
// stores inside a critical section allocate nothing, and a steady-state
// release, sparse or dense, allocates only the home's two small reply
// frames: the thread encodes into the buffers its earlier frames used, and
// the home decodes into the arrays its earlier requests used. A release
// that allocated its payload would run a GC cycle every few ops.
func TestAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured, not -short")
	}
	const n = 262144 // 1 MiB of 4-byte ints, bench/'s release.dense array

	t.Run("empty-release", func(t *testing.T) {
		th, _ := allocCluster(t, platform.LinuxX86, 64)
		op := func() {
			if err := th.Lock(0); err != nil {
				t.Fatal(err)
			}
			if err := th.Unlock(0); err != nil {
				t.Fatal(err)
			}
		}
		op()
		got := testing.AllocsPerRun(200, op)
		t.Logf("empty Lock+Unlock: %.1f allocs", got)
		if got > 8 {
			t.Errorf("empty Lock+Unlock: %.1f allocs, budget 8", got)
		}
	})

	t.Run("stores", func(t *testing.T) {
		th, a := allocCluster(t, platform.SolarisSPARC, n)
		if err := th.Lock(0); err != nil {
			t.Fatal(err)
		}
		j := int64(0)
		stores := func() {
			j++
			for i := 0; i < n; i += 256 {
				if err := a.SetInt(i+int(j)%256, j); err != nil {
					t.Fatal(err)
				}
			}
		}
		stores()
		if got := testing.AllocsPerRun(20, stores); got != 0 {
			t.Errorf("1024 SetInt stores: %.1f allocs, budget 0", got)
		}
		if err := th.Unlock(0); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("sparse-release", func(t *testing.T) {
		th, a := allocCluster(t, platform.SolarisSPARC, n)
		j := int64(0)
		op := func() {
			j++
			if err := th.Lock(0); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i += 256 {
				if err := a.SetInt(i+int(j)%256, j); err != nil {
					t.Fatal(err)
				}
			}
			if err := th.Unlock(0); err != nil {
				t.Fatal(err)
			}
		}
		op()
		op()
		got := testing.AllocsPerRun(20, op)
		t.Logf("sparse release of 1024 stores: %.1f allocs", got)
		if got > 4 {
			t.Errorf("sparse release of 1024 stores: %.1f allocs, budget 4", got)
		}
	})

	for _, tc := range []struct {
		name  string
		homeP *platform.Platform
	}{{"dense-release", platform.LinuxX86}, {"dense-release-het", platform.SolarisSPARC}} {
		t.Run(tc.name, func(t *testing.T) {
			th, a := allocCluster(t, tc.homeP, n)
			vals := make([]int64, n)
			j := int64(0)
			op := func() {
				j++
				for i := range vals {
					vals[i] = int64(i) + j
				}
				if err := th.Lock(0); err != nil {
					t.Fatal(err)
				}
				if err := a.SetInts(0, vals); err != nil {
					t.Fatal(err)
				}
				if err := th.Unlock(0); err != nil {
					t.Fatal(err)
				}
			}
			op()
			op()
			const runs = 10
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				op()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("dense 1 MiB release: %d B, %d allocs per op", bytes, (after.Mallocs-before.Mallocs)/runs)
			if bytes >= 4<<10 {
				t.Errorf("dense 1 MiB release: %d B allocated per op, budget < 4 KiB", bytes)
			}
		})
	}

	t.Run("grant-apply-het", func(t *testing.T) {
		// A dense release by one x86 thread to a SPARC home reaches a second
		// x86 thread in its next grant, byte-swapped back at the receiver.
		gthv := tag.Struct{Name: "GThV_t", Fields: []tag.Field{{Name: "A", T: tag.IntArray(n)}}}
		h, err := NewHome(gthv, platform.SolarisSPARC, 2, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var ths [2]*Thread
		for r := range ths {
			a, b := transport.Pipe()
			go h.ServeConn(b)
			if ths[r], err = Connect(a, platform.LinuxX86, int32(r), gthv, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			defer ths[r].Close()
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i) - n/2
		}
		w := ths[0]
		if err := w.Lock(0); err != nil {
			t.Fatal(err)
		}
		if err := w.Globals().MustVar("A").SetInts(0, vals); err != nil {
			t.Fatal(err)
		}
		if err := w.Unlock(0); err != nil {
			t.Fatal(err)
		}
		r := ths[1]
		if err := r.Lock(0); err != nil {
			t.Fatal(err)
		}
		// Replay a copy of the grant: the one in r.in views a frame buffer
		// the next receive may reuse.
		grant := wire.Message{Kind: r.in.Kind}
		for _, u := range r.in.Updates {
			u.Data = append([]byte(nil), u.Data...)
			grant.Updates = append(grant.Updates, u)
		}
		if got := wire.UpdateBytes(grant.Updates); got != 4*n {
			t.Fatalf("grant carries %d bytes, want the whole %d-byte array", got, 4*n)
		}
		if err := r.Unlock(0); err != nil {
			t.Fatal(err)
		}
		apply := func() {
			if err := r.applyIncoming(&grant); err != nil {
				t.Fatal(err)
			}
		}
		apply()
		if got := testing.AllocsPerRun(20, apply); got != 0 {
			t.Errorf("applying a 1 MiB SPARC grant on x86: %.1f allocs, budget 0", got)
		}
		for _, i := range []int{0, 1, n/2 - 1, n - 1} {
			if got, err := r.Globals().MustVar("A").Int(i); err != nil || got != vals[i] {
				t.Errorf("A[%d] = %d (%v), want %d", i, got, err, vals[i])
			}
		}
	})
}

// TestFrameBufs: a reply frees the buffer of the frame sent before it, so a
// steady cycle of small and large frames allocates nothing, and a frame
// whose send or reply failed, or that is still unanswered, is never reused,
// since a stub may still be reading it.
func TestFrameBufs(t *testing.T) {
	small := &wire.Message{Kind: wire.KindLockReq, Rank: 1}
	big := &wire.Message{Kind: wire.KindUnlockReq, Rank: 1, Updates: []wire.Update{{Entry: 0, First: 0, Count: 1 << 14, Tag: "(4,16384)", Data: make([]byte, 1<<16)}}}
	var f frameBufs
	op := func() {
		// Lock and its grant, then Unlock and its reply.
		for _, m := range []*wire.Message{small, nil, big, nil} {
			if m == nil {
				f.answered()
			} else if _, err := f.encode(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 3; i++ {
		op()
	}
	if got := testing.AllocsPerRun(20, op); got != 0 {
		t.Errorf("steady Lock/Unlock frames: %.1f allocs, want 0", got)
	}
	if f.inFlight || cap(f.buf) == 0 {
		t.Errorf("after a reply: in flight %v, buffer cap %d; want a free buffer", f.inFlight, cap(f.buf))
	}
	lost, err := f.encode(big)
	if err != nil {
		t.Fatal(err)
	}
	f.abandon()
	again, err := f.encode(small)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] == &lost[0] {
		t.Fatal("an abandoned frame's buffer was reused")
	}
	next, err := f.encode(small)
	if err != nil {
		t.Fatal(err)
	}
	if &next[0] == &again[0] {
		t.Fatal("an unanswered frame's buffer was reused")
	}
	var none *frameBufs
	if _, err := none.encode(small); err != nil {
		t.Fatal(err)
	}
	none.answered()
	none.abandon()
}
