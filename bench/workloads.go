package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
)

// sizes are the workload dimensions. fullSizes is what the benchmark
// runs; the tests run the same code at about a hundredth of it.
type sizes struct {
	arrayLen int // elements of int A[]
	stride   int // release.sparse.het stores to every stride-th element
	accounts int // contend.transfer accounts, apps.TransferStripe per lock
	planLen  int // planned transfers per rank; the plan is cycled
	luN      int // app.lu matrix dimension
	warmDiv  int // divides every workload's warm-up op count
}

// fullSizes: the array is 1 MiB on the ILP32 platforms. The issue asked for
// LU N=255; at 1.4 s per run that gives five ops in a measured phase and a
// median that does not repeat, so the matrix is N=127 (0.17 s per run).
var fullSizes = sizes{arrayLen: 262144, stride: 256, accounts: 1024, planLen: 1 << 16, luN: 127, warmDiv: 1}

// instance is one built workload: a cluster filled with its initial state
// plus the generated inputs. All inputs come from the seed; the program
// under test sees only them.
type instance interface {
	// prep generates op j's inputs for a worker. It runs outside the
	// timed op (closed-loop think time).
	prep(worker, j int)
	// op runs op j. trs is nil on untraced runs, else one tracer per rank.
	op(worker, j int, trs []*tracer) error
	// eq1 is the program's cumulative Eq. 1 accounting.
	eq1() eq1
	// finish joins the threads, compares the home's final state with a
	// sequential model of done[w] ops per worker, and closes the cluster.
	finish(done []int) error
	// replay describes one release of the workload for the layer replays.
	replay() *replaySpec
}

// workloadDef names a workload and says why it is in the set.
type workloadDef struct {
	name string
	why  string
	// workers is the number of closed-loop clients; ranks the number of
	// dsd threads (app.lu has one client driving two ranks per op).
	workers, ranks int
	warm           int // warm-up ops per worker at full size
	build          func(seed int64, sz sizes, meter *wireMeter) (instance, error)
}

var workloads = []workloadDef{
	{
		name: "sync.empty", workers: 1, ranks: 1, warm: 5000,
		why: "Lock+Unlock with no stores: the protocol floor, all dsd/wire/transport, no vmem/indextable/convert work",
		build: func(seed int64, sz sizes, m *wireMeter) (instance, error) {
			return newArrayInstance(syncEmpty, platform.LinuxX86, seed, sz, m)
		},
	},
	{
		name: "release.dense.hom", workers: 1, ranks: 1, warm: 4,
		why: "rewrite the whole 1 MiB array per release, x86 home: vmem.Diff and indextable.MapRanges dominate, convert is a memcpy",
		build: func(seed int64, sz sizes, m *wireMeter) (instance, error) {
			return newArrayInstance(dense, platform.LinuxX86, seed, sz, m)
		},
	},
	{
		name: "release.dense.het", workers: 1, ranks: 1, warm: 4,
		why: "same release against a SPARC home: adds a 1 MiB byte-swap per op, isolating t_conv from the homogeneous fast path",
		build: func(seed int64, sz sizes, m *wireMeter) (instance, error) {
			return newArrayInstance(dense, platform.SolarisSPARC, seed, sz, m)
		},
	},
	{
		name: "release.sparse.het", workers: 1, ranks: 1, warm: 10,
		why: "1024 scattered single-element stores per release: Var.Set write path, tags and per-update wire cost over mostly clean pages",
		build: func(seed int64, sz sizes, m *wireMeter) (instance, error) {
			return newArrayInstance(sparse, platform.SolarisSPARC, seed, sz, m)
		},
	},
	{
		name: "contend.transfer", workers: 2, ranks: 2, warm: 5000,
		why:   "two threads moving money under striped locks: home lock table, pending-update queues and Lock-side apply on the path",
		build: newTransferInstance,
	},
	{
		name: "app.lu", workers: 1, ranks: 2, warm: 1,
		why:   "LU factorisation, a barrier per elimination step, to a solution verified bit for bit (paper Fig. 11)",
		build: newLUInstance,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- sync.empty, release.dense.*, release.sparse.het: one thread, int A[] ---

type arrayKind int

const (
	syncEmpty arrayKind = iota
	dense
	sparse
)

type arrayInstance struct {
	kind arrayKind
	seed int64
	sz   sizes
	hp   *platform.Platform
	cl   *cluster
	th   *dsd.Thread
	a    *dsd.Var
	// offs is the sparse store plan: op j stores to elements
	// k*stride + offs[j%len(offs)], a seeded permutation of the stride.
	offs []int
	// idx and vals hold the current op's stores, filled by prep.
	idx  []int
	vals []int64
}

func arrayGThV(n int) tag.Struct {
	return tag.Struct{Name: "GThV_t", Fields: []tag.Field{{Name: "A", T: tag.IntArray(n)}}}
}

func newArrayInstance(kind arrayKind, homeP *platform.Platform, seed int64, sz sizes, meter *wireMeter) (instance, error) {
	cl, err := newCluster(arrayGThV(sz.arrayLen), homeP, platform.LinuxX86, 1, meter)
	if err != nil {
		return nil, err
	}
	a := &arrayInstance{kind: kind, seed: seed, sz: sz, hp: homeP, cl: cl, th: cl.threads[0]}
	a.a = a.th.Globals().MustVar("A")
	switch kind {
	case dense:
		a.vals = make([]int64, sz.arrayLen)
	case sparse:
		a.offs = rand.New(rand.NewSource(seed)).Perm(sz.stride)
		a.idx = make([]int, sz.arrayLen/sz.stride)
		a.vals = make([]int64, len(a.idx))
	}
	fill := make([]int64, sz.arrayLen)
	for i := range fill {
		fill[i] = seed + int64(i)
	}
	err = a.th.Lock(0)
	if err == nil {
		err = a.a.SetInts(0, fill)
	}
	if err == nil {
		err = a.th.Unlock(0)
	}
	if err != nil {
		cl.close()
		return nil, fmt.Errorf("initial fill: %w", err)
	}
	return a, nil
}

// value is what op j stores into element i: counter-like data, so
// consecutive ops change mostly the low byte of every element they touch.
func (a *arrayInstance) value(i, j int) int64 { return a.seed + int64(i) + int64(j) + 1 }

func (a *arrayInstance) prep(_, j int) {
	switch a.kind {
	case dense:
		for i := range a.vals {
			a.vals[i] = a.value(i, j)
		}
	case sparse:
		off := a.offs[j%len(a.offs)]
		for k := range a.idx {
			a.idx[k] = k*a.sz.stride + off
			a.vals[k] = a.value(a.idx[k], j)
		}
	}
}

func (a *arrayInstance) op(_, _ int, trs []*tracer) error {
	var tr *tracer
	if trs != nil {
		tr = trs[0]
	}
	tr.begin(a.th)
	if err := a.th.Lock(0); err != nil {
		return err
	}
	tr.mark(kindAcquire)
	switch a.kind {
	case dense:
		if err := a.a.SetInts(0, a.vals); err != nil {
			return err
		}
		tr.mark(kindWrite)
	case sparse:
		for k, i := range a.idx {
			if err := a.a.SetInt(i, a.vals[k]); err != nil {
				return err
			}
		}
		tr.mark(kindWrite)
	}
	tr.preRelease()
	if err := a.th.Unlock(0); err != nil {
		return err
	}
	tr.mark(kindRelease)
	tr.end()
	return nil
}

func (a *arrayInstance) eq1() eq1 { return a.cl.eq1() }

// model replays done ops sequentially on a plain array. C int is 32 bits
// on every platform here, so stored values wrap to int32.
func (a *arrayInstance) model(done int) []int32 {
	m := make([]int32, a.sz.arrayLen)
	for i := range m {
		m[i] = int32(a.seed + int64(i))
	}
	for j := 0; j < done; j++ {
		a.prep(0, j)
		switch a.kind {
		case dense:
			for i, v := range a.vals {
				m[i] = int32(v)
			}
		case sparse:
			for k, i := range a.idx {
				m[i] = int32(a.vals[k])
			}
		}
	}
	return m
}

func (a *arrayInstance) finish(done []int) error {
	defer a.cl.close()
	if err := a.cl.joinAll(); err != nil {
		return err
	}
	got, err := a.cl.home.Globals().MustVar("A").Ints(0, a.sz.arrayLen)
	if err != nil {
		return err
	}
	for i, w := range a.model(done[0]) {
		if got[i] != int64(w) {
			return fmt.Errorf("home A[%d] = %d, sequential model has %d after %d ops", i, got[i], w, done[0])
		}
	}
	return nil
}

func (a *arrayInstance) replay() *replaySpec {
	r := &replaySpec{gthv: arrayGThV(a.sz.arrayLen), homeP: a.hp, threadP: platform.LinuxX86}
	if a.kind == syncEmpty {
		return r
	}
	// Both parities store to the same elements: op 0's, with op 0's and
	// op 1's values.
	a.prep(0, 0)
	for j := range r.stores {
		switch a.kind {
		case dense:
			vals := make([]int64, len(a.vals))
			for i := range vals {
				vals[i] = a.value(i, j)
			}
			r.stores[j] = []store{{name: "A", ints: vals}}
		case sparse:
			for _, i := range a.idx {
				r.stores[j] = append(r.stores[j], store{name: "A", first: i, ints: []int64{a.value(i, j)}})
			}
		}
	}
	return r
}

// --- contend.transfer: two threads, striped locks ---

type transfer struct {
	from, to int
	amount   int64
}

// planTransfers is one rank's seeded plan. from and to always lie in
// different lock stripes, so every transfer takes two locks.
func planTransfers(seed int64, rank, accounts, n int) []transfer {
	r := rand.New(rand.NewSource(seed*7919 + int64(rank)))
	plan := make([]transfer, n)
	for i := range plan {
		from := r.Intn(accounts)
		to := r.Intn(accounts)
		for to/apps.TransferStripe == from/apps.TransferStripe {
			to = r.Intn(accounts)
		}
		plan[i] = transfer{from: from, to: to, amount: int64(1 + r.Intn(100))}
	}
	return plan
}

type transferInstance struct {
	seed int64
	sz   sizes
	cl   *cluster
	bal  []*dsd.Var
	plan [][]transfer
}

func newTransferInstance(seed int64, sz sizes, meter *wireMeter) (instance, error) {
	const ranks = 2
	cl, err := newCluster(apps.TransferGThV(sz.accounts), platform.SolarisSPARC, platform.LinuxX86, ranks, meter)
	if err != nil {
		return nil, err
	}
	t := &transferInstance{seed: seed, sz: sz, cl: cl}
	for rank, th := range cl.threads {
		t.bal = append(t.bal, th.Globals().MustVar("balances"))
		t.plan = append(t.plan, planTransfers(seed, rank, sz.accounts, sz.planLen))
	}
	// Rank 0 funds the accounts; the barrier hands rank 1 the balances.
	err = onRanks(ranks, func(rank int) error {
		th := cl.threads[rank]
		if rank == 0 {
			if err := th.Lock(0); err != nil {
				return err
			}
			if err := t.bal[0].SetInts(0, apps.TransferInitial(sz.accounts, seed)); err != nil {
				return err
			}
			if err := th.Unlock(0); err != nil {
				return err
			}
		}
		return th.Barrier(0)
	})
	if err != nil {
		cl.close()
		return nil, fmt.Errorf("initial fill: %w", err)
	}
	return t, nil
}

// onRanks runs f for every rank concurrently and returns the first error.
func onRanks(n int, f func(rank int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for rank := 0; rank < n; rank++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[rank] = f(rank)
		}()
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", rank, err)
		}
	}
	return nil
}

func (t *transferInstance) prep(_, _ int) {}

// op is one transfer: both stripe locks in ascending order (mutex 0 is
// the fill lock, stripe s is mutex s+1), two reads, two writes, two
// unlocks. The reads are not marked, so they show up as unattributed.
func (t *transferInstance) op(w, j int, trs []*tracer) error {
	var tr *tracer
	if trs != nil {
		tr = trs[w]
	}
	th, bal := t.cl.threads[w], t.bal[w]
	x := t.plan[w][j%len(t.plan[w])]
	lo, hi := 1+x.from/apps.TransferStripe, 1+x.to/apps.TransferStripe
	if lo > hi {
		lo, hi = hi, lo
	}
	tr.begin(th)
	for _, l := range [2]int{lo, hi} {
		if err := th.Lock(l); err != nil {
			return err
		}
		tr.mark(kindAcquire)
	}
	bf, err := bal.Int(x.from)
	if err != nil {
		return err
	}
	bt, err := bal.Int(x.to)
	if err != nil {
		return err
	}
	tr.skip()
	if err := bal.SetInt(x.from, bf-x.amount); err != nil {
		return err
	}
	if err := bal.SetInt(x.to, bt+x.amount); err != nil {
		return err
	}
	tr.mark(kindWrite)
	for _, l := range [2]int{hi, lo} {
		tr.preRelease()
		if err := th.Unlock(l); err != nil {
			return err
		}
		tr.mark(kindRelease)
	}
	tr.end()
	return nil
}

func (t *transferInstance) eq1() eq1 { return t.cl.eq1() }

func (t *transferInstance) finish(done []int) error {
	defer t.cl.close()
	if err := t.cl.joinAll(); err != nil {
		return err
	}
	want := apps.TransferInitial(t.sz.accounts, t.seed)
	var total int64
	for _, b := range want {
		total += b
	}
	for w, n := range done {
		for j := 0; j < n; j++ {
			x := t.plan[w][j%len(t.plan[w])]
			want[x.from] -= x.amount
			want[x.to] += x.amount
		}
	}
	got, err := t.cl.home.Globals().MustVar("balances").Ints(0, t.sz.accounts)
	if err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("home balance[%d] = %d, sequential model has %d", i, got[i], want[i])
		}
		total -= got[i]
	}
	if total != 0 {
		return fmt.Errorf("total balance off by %d", -total)
	}
	return nil
}

func (t *transferInstance) replay() *replaySpec {
	r := &replaySpec{gthv: apps.TransferGThV(t.sz.accounts), homeP: platform.SolarisSPARC, threadP: platform.LinuxX86}
	x := t.plan[0][0]
	for j := range r.stores {
		r.stores[j] = []store{
			{name: "balances", first: x.from, ints: []int64{10000 - int64(j)*x.amount}},
			{name: "balances", first: x.to, ints: []int64{10000 + int64(j)*x.amount}},
		}
	}
	return r
}

// --- app.lu: one client, each op a whole two-rank factorisation ---

type luInstance struct {
	n     int
	a0    []float64     // the seeded input matrix
	want  []float64     // apps.LUSeq of it
	seq   time.Duration // what apps.LUSeq took: the base for the DSM slow-down
	meter *wireMeter
	acc   eq1 // Eq. 1 totals of the clusters already torn down
}

func newLUInstance(seed int64, sz sizes, meter *wireMeter) (instance, error) {
	l := &luInstance{n: sz.luN, a0: apps.GenLUMatrix(sz.luN, seed), meter: meter}
	l.want = append([]float64(nil), l.a0...)
	start := time.Now()
	apps.LUSeq(l.want, l.n)
	l.seq = time.Since(start)
	return l, nil
}

func (l *luInstance) prep(_, _ int) {}

// op builds a SPARC home with two x86 threads, factors the matrix and
// checks the home's copy against the sequential result.
func (l *luInstance) op(_, _ int, trs []*tracer) error {
	const ranks = 2
	cl, err := newCluster(apps.LUGThV(l.n), platform.SolarisSPARC, platform.LinuxX86, ranks, l.meter)
	if err != nil {
		return err
	}
	defer cl.close()
	err = onRanks(ranks, func(rank int) error {
		var tr *tracer
		if trs != nil {
			tr = trs[rank]
		}
		return luBody(cl.threads[rank], rank, ranks, l.n, l.a0, tr)
	})
	if err != nil {
		return err
	}
	cl.home.Wait()
	l.acc.add(cl.eq1())
	got, err := cl.home.Globals().MustVar("A").Float64s(0, l.n*l.n)
	if err != nil {
		return err
	}
	for i, w := range l.want {
		if got[i] != w {
			return fmt.Errorf("home A[%d] = %v, apps.LUSeq has %v", i, got[i], w)
		}
	}
	return nil
}

// luBody is one rank of the factorisation. It issues the same loads,
// stores and barriers as apps.LUThread; it is written here so that the
// benchmark can put spans around the dsd calls. Reads and arithmetic are
// not marked and make up the op's unattributed share.
func luBody(th *dsd.Thread, rank, nthreads, n int, a0 []float64, tr *tracer) error {
	g := th.Globals()
	vA, vN := g.MustVar("A"), g.MustVar("n")
	barrier := func() error {
		tr.skip()
		tr.preRelease()
		if err := th.Barrier(0); err != nil {
			return err
		}
		tr.mark(kindBarrier)
		return nil
	}
	tr.begin(th)
	if rank == 0 {
		if err := th.Lock(0); err != nil {
			return err
		}
		tr.mark(kindAcquire)
		if err := vA.SetFloat64s(0, a0); err != nil {
			return err
		}
		if err := vN.SetInt(0, int64(n)); err != nil {
			return err
		}
		tr.mark(kindWrite)
		tr.preRelease()
		if err := th.Unlock(0); err != nil {
			return err
		}
		tr.mark(kindRelease)
	}
	if err := barrier(); err != nil {
		return err
	}
	for k := 0; k < n-1; k++ {
		rowK, err := vA.Float64s(k*n+k, n-k)
		if err != nil {
			return err
		}
		pivot := rowK[0]
		for i := k + 1; i < n; i++ {
			if i%nthreads != rank {
				continue
			}
			rowI, err := vA.Float64s(i*n+k, n-k)
			if err != nil {
				return err
			}
			luRow(rowI, rowK, pivot)
			tr.skip()
			if err := vA.SetFloat64s(i*n+k, rowI); err != nil {
				return err
			}
			tr.mark(kindWrite)
		}
		if err := barrier(); err != nil {
			return err
		}
	}
	tr.preRelease()
	if err := th.Join(); err != nil {
		return err
	}
	tr.mark(kindRelease)
	tr.end()
	return nil
}

// luRow eliminates one row against the pivot row, in apps.LUSeq's order of
// operations so the result matches it bit for bit.
func luRow(rowI, rowK []float64, pivot float64) {
	l := rowI[0] / pivot
	rowI[0] = l
	for j := 1; j < len(rowI); j++ {
		rowI[j] -= l * rowK[j]
	}
}

func (l *luInstance) eq1() eq1 { return l.acc }

// finish has nothing left to do: every op verified its own run.
func (l *luInstance) finish([]int) error { return nil }

// replay is rank 1's release at the first elimination step: every odd row,
// alternating between its input and its eliminated values.
func (l *luInstance) replay() *replaySpec {
	r := &replaySpec{gthv: apps.LUGThV(l.n), homeP: platform.SolarisSPARC, threadP: platform.LinuxX86}
	n := l.n
	for i := 1; i < n; i += 2 {
		row := append([]float64(nil), l.a0[i*n:(i+1)*n]...)
		r.stores[0] = append(r.stores[0], store{name: "A", first: i * n, floats: row})
		done := append([]float64(nil), row...)
		luRow(done, l.a0[:n], l.a0[0])
		r.stores[1] = append(r.stores[1], store{name: "A", first: i * n, floats: done})
	}
	return r
}
