package dsd

import (
	"math/rand"
	"sync"
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
)

// TestQuickRandomWorkloads is the full-stack property test: random thread
// counts on random platform mixes perform random read-modify-write
// critical sections against one shared array. Because every mutation is an
// in-lock increment, the final master state is the seed state plus the sum
// of all deltas regardless of interleaving — any lost update, misconverted
// byte, misapplied span or double-applied diff breaks the equality.
func TestQuickRandomWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized integration test")
	}
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run("", func(t *testing.T) {
			t.Parallel()
			runRandomWorkload(t, int64(1000+trial))
		})
	}
}

func runRandomWorkload(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const arrLen = 512
	gthv := tag.Struct{Name: "GThV_t", Fields: []tag.Field{
		{Name: "A", T: tag.IntArray(arrLen)},
		{Name: "rounds", T: tag.Scalar{T: platform.CLongLong}},
	}}
	plats := platform.All()
	nthreads := 2 + r.Intn(3)
	homePlat := plats[r.Intn(len(plats))]
	opts := DefaultOptions()
	// Randomize the pipeline knobs too.
	opts.Coalesce = r.Intn(2) == 0
	if r.Intn(2) == 0 {
		opts.WholeArrayThreshold = 0
	}
	if r.Intn(2) == 0 {
		opts.Protocol = ProtocolInvalidate
	}

	home, err := NewHome(gthv, homePlat, nthreads, opts)
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]*Thread, nthreads)
	for i := range threads {
		th, err := home.LocalThread(int32(i), plats[r.Intn(len(plats))], opts)
		if err != nil {
			t.Fatal(err)
		}
		threads[i] = th
	}

	// Pre-plan every thread's operations so the expected final state is
	// computable up front.
	const iters = 15
	type op struct {
		idx   int
		delta int64
	}
	plans := make([][][]op, nthreads)
	expect := make([]int64, arrLen)
	var expectRounds int64
	for ti := range plans {
		tr := rand.New(rand.NewSource(seed*31 + int64(ti)))
		plans[ti] = make([][]op, iters)
		for it := 0; it < iters; it++ {
			n := 1 + tr.Intn(30)
			ops := make([]op, n)
			for k := range ops {
				idx := tr.Intn(arrLen)
				delta := int64(int32(tr.Uint32()))
				ops[k] = op{idx: idx, delta: delta}
				expect[idx] = int64(int32(expect[idx] + delta)) // C int wraps
			}
			plans[ti][it] = ops
			expectRounds++
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, nthreads)
	for ti, th := range threads {
		wg.Add(1)
		go func(ti int, th *Thread) {
			defer wg.Done()
			a := th.Globals().MustVar("A")
			rounds := th.Globals().MustVar("rounds")
			for _, ops := range plans[ti] {
				if err := th.Lock(0); err != nil {
					errCh <- err
					return
				}
				for _, o := range ops {
					v, err := a.Int(o.idx)
					if err != nil {
						errCh <- err
						return
					}
					if err := a.SetInt(o.idx, v+o.delta); err != nil {
						errCh <- err
						return
					}
				}
				rv, err := rounds.Int(0)
				if err != nil {
					errCh <- err
					return
				}
				if err := rounds.SetInt(0, rv+1); err != nil {
					errCh <- err
					return
				}
				if err := th.Unlock(0); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- th.Join()
		}(ti, th)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	home.Wait()

	g := home.Globals()
	got, err := g.MustVar("A").Ints(0, arrLen)
	if err != nil {
		t.Fatal(err)
	}
	for i := range expect {
		if got[i] != expect[i] {
			t.Errorf("seed %d: A[%d] = %d, want %d", seed, i, got[i], expect[i])
		}
	}
	gotRounds, err := g.MustVar("rounds").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if gotRounds != expectRounds {
		t.Errorf("seed %d: rounds = %d, want %d", seed, gotRounds, expectRounds)
	}
}
