package apps

import (
	"fmt"
	"sync"
	"time"

	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/vmem"
	"hetdsm/internal/wal"
	"hetdsm/internal/wire"
)

// Pair is a platform pairing in the paper's notation: the home machine and
// the machine hosting the two migrated threads.
type Pair struct {
	// Label is the paper's two-letter name ("LL", "SS", "SL").
	Label string
	// Home is the home node's platform (thread 0 stays here).
	Home *platform.Platform
	// Remote hosts threads 1 and 2.
	Remote *platform.Platform
}

// Pairs returns the paper's three evaluation pairs: Linux/Linux,
// Solaris/Solaris and Solaris/Linux.
func Pairs() []Pair {
	return []Pair{
		{Label: "LL", Home: platform.LinuxX86, Remote: platform.LinuxX86},
		{Label: "SS", Home: platform.SolarisSPARC, Remote: platform.SolarisSPARC},
		{Label: "SL", Home: platform.SolarisSPARC, Remote: platform.LinuxX86},
	}
}

// ExtPairs returns the extension pairings beyond the paper's testbed:
// word-size heterogeneity (ILP32 vs LP64), where scalars must not only be
// byte-swapped but resized with sign extension and pointers change width.
func ExtPairs() []Pair {
	return []Pair{
		{Label: "S64L", Home: platform.SolarisSPARC64, Remote: platform.LinuxX86},
		{Label: "L64S", Home: platform.LinuxX8664, Remote: platform.SolarisSPARC},
		{Label: "S64L64", Home: platform.SolarisSPARC64, Remote: platform.LinuxX8664},
	}
}

// PairByLabel resolves a pair by its label, searching the paper pairs and
// the extension pairs.
func PairByLabel(label string) (Pair, bool) {
	for _, p := range append(Pairs(), ExtPairs()...) {
		if p.Label == label {
			return p, true
		}
	}
	return Pair{}, false
}

// Config describes one experiment run.
type Config struct {
	// Workload is "matmul" or "lu".
	Workload string
	// N is the matrix dimension.
	N int
	// Pair selects the platform pairing.
	Pair Pair
	// Threads is the worker count; the paper uses 3 (default when 0).
	Threads int
	// Opts tunes the DSD pipeline.
	Opts dsd.Options
	// Iters is the sweep count for the jacobi workload (default 10).
	Iters int
	// Verify compares the distributed result against a sequential run.
	Verify bool
	// Seed feeds the deterministic input generators.
	Seed int64
	// OnCluster, when non-nil, runs after the home and all threads are
	// built but before the workload starts — the hook dsmrun uses to
	// point a live diagnostics endpoint at the cluster.
	OnCluster func(home *dsd.Home, threads []*dsd.Thread)
	// CheckpointDir, with CheckpointEvery > 0, makes the home write a
	// coordinated cluster checkpoint there every CheckpointEvery barrier
	// generations (matmul and lu only).
	CheckpointDir   string
	CheckpointEvery int
	// Restore resumes from the cluster checkpoint in CheckpointDir: the
	// home image is converted receiver-makes-right onto Pair.Home and the
	// workload bodies rejoin at the checkpointed barrier generation.
	Restore bool
}

// Result is one experiment's measurements.
type Result struct {
	// Config echoes the run parameters.
	Config Config
	// Wall is the end-to-end wall time.
	Wall time.Duration
	// Agg is the cluster-wide Eq. 1 breakdown (home + all threads).
	Agg [stats.NumPhases]time.Duration
	// Home is the home-side breakdown alone; its Conv component is the
	// paper's t_conv ("time to update the copy at home node").
	Home [stats.NumPhases]time.Duration
	// ByPlatform groups the thread-side breakdowns by platform name —
	// the per-machine series of Figures 8 and 9.
	ByPlatform map[string][stats.NumPhases]time.Duration
	// UpdateBytes is the total payload volume that crossed the DSD.
	UpdateBytes uint64
	// PageFaults is the total number of software write traps taken across
	// all replicas — the mprotect/SEGV cost the paper's design amortizes
	// to one per page per window.
	PageFaults uint64
	// Verified reports whether the result matched the sequential run
	// (only meaningful when Config.Verify).
	Verified bool
	// Heat is the cluster-wide page-heat profile: every replica's
	// fault/diff counters merged page-wise, hottest page first, with
	// false-sharing suspects flagged.
	Heat vmem.HeatReport
}

// AggTotal returns Cshare: the sum of the aggregate components.
func (r *Result) AggTotal() time.Duration {
	var t time.Duration
	for _, d := range r.Agg {
		t += d
	}
	return t
}

// Run executes one experiment: a home on cfg.Pair.Home, thread 0 on the
// home platform, and threads 1..Threads-1 on the remote platform — the
// post-migration configuration of the paper's tests (three threads, two
// migrated).
func Run(cfg Config) (*Result, error) {
	if cfg.Threads == 0 {
		cfg.Threads = 3
	}
	if cfg.Threads < 1 {
		return nil, fmt.Errorf("apps: %d threads", cfg.Threads)
	}
	if cfg.N < 2 {
		return nil, fmt.Errorf("apps: matrix size %d too small", cfg.N)
	}
	if cfg.Opts.Base == 0 {
		cfg.Opts = dsd.DefaultOptions()
	}

	if (cfg.Restore || cfg.CheckpointEvery > 0) && cfg.Workload != "matmul" && cfg.Workload != "lu" {
		return nil, fmt.Errorf("apps: checkpoint/restore supports matmul and lu only, not %q", cfg.Workload)
	}

	// Restore resumes from a coordinated cluster cut; phase is the barrier
	// generation the cut was taken at and basePhase renumbers generations
	// of the resumed run so further cuts continue the logical count.
	var cut *wal.Cut
	var phase uint64
	if cfg.Restore {
		if cfg.CheckpointDir == "" {
			return nil, fmt.Errorf("apps: restore needs a checkpoint dir")
		}
		var err error
		if cut, err = wal.LoadCut(cfg.CheckpointDir); err != nil {
			return nil, err
		}
		if len(cut.Ranks) != cfg.Threads {
			return nil, fmt.Errorf("apps: checkpoint has %d ranks, run has %d threads",
				len(cut.Ranks), cfg.Threads)
		}
		phase = cut.Gen
	}

	var gthv tag.Struct
	var body func(th *dsd.Thread, rank int) error
	switch cfg.Workload {
	case "matmul":
		gthv = MatMulGThV(cfg.N)
		body = func(th *dsd.Thread, rank int) error {
			return MatMulThreadFrom(th, rank, cfg.Threads, cfg.N, cfg.Seed, cfg.Seed+1, phase)
		}
	case "lu":
		gthv = LUGThV(cfg.N)
		body = func(th *dsd.Thread, rank int) error {
			return LUThreadFrom(th, rank, cfg.Threads, cfg.N, cfg.Seed, phase)
		}
	case "jacobi":
		if cfg.Iters == 0 {
			cfg.Iters = 10
		}
		gthv = JacobiGThV(cfg.N)
		body = func(th *dsd.Thread, rank int) error {
			return JacobiThread(th, rank, cfg.Threads, cfg.N, cfg.Iters, cfg.Seed)
		}
	case "transfer":
		// N is the account count here; Iters the per-thread op count.
		if cfg.Iters == 0 {
			cfg.Iters = 100
		}
		if cfg.N%TransferStripe != 0 {
			return nil, fmt.Errorf("apps: transfer accounts %d must be a multiple of %d", cfg.N, TransferStripe)
		}
		gthv = TransferGThV(cfg.N)
		body = func(th *dsd.Thread, rank int) error {
			return TransferThread(th, rank, cfg.Threads, cfg.N, cfg.Iters, cfg.Seed)
		}
	default:
		return nil, fmt.Errorf("apps: unknown workload %q", cfg.Workload)
	}

	if cfg.CheckpointEvery > 0 {
		if cfg.CheckpointDir == "" {
			return nil, fmt.Errorf("apps: checkpointing needs a checkpoint dir")
		}
		rankPlats := make(map[int32]string, cfg.Threads)
		for rank := 0; rank < cfg.Threads; rank++ {
			p := cfg.Pair.Remote
			if rank == 0 {
				p = cfg.Pair.Home
			}
			rankPlats[int32(rank)] = p.Name
		}
		// A resumed run's local generation 1 is the resynchronization
		// barrier, which re-opens the checkpointed generation.
		var base uint64
		if cfg.Restore {
			base = phase - 1
		}
		dir := cfg.CheckpointDir
		cfg.Opts.CheckpointEvery = cfg.CheckpointEvery
		cfg.Opts.CheckpointSink = func(snap *wire.HomeImage, gen uint64) {
			// A failed or torn cut is never loadable (the manifest rename
			// commits it), so an error here only loses one checkpoint.
			_ = wal.WriteCut(dir, snap, gen+base, rankPlats)
		}
	}

	home, err := dsd.NewHome(gthv, cfg.Pair.Home, cfg.Threads, cfg.Opts)
	if err != nil {
		return nil, err
	}
	if cut != nil {
		if err := home.Restore(cut.Snap); err != nil {
			return nil, fmt.Errorf("apps: restoring checkpoint: %w", err)
		}
	}
	threads := make([]*dsd.Thread, cfg.Threads)
	for rank := 0; rank < cfg.Threads; rank++ {
		p := cfg.Pair.Remote
		if rank == 0 {
			p = cfg.Pair.Home
		}
		th, err := home.LocalThread(int32(rank), p, cfg.Opts)
		if err != nil {
			return nil, err
		}
		threads[rank] = th
	}
	if cfg.OnCluster != nil {
		cfg.OnCluster(home, threads)
	}

	start := time.Now()
	errs := make([]error, cfg.Threads)
	var wg sync.WaitGroup
	for rank, th := range threads {
		wg.Add(1)
		go func(rank int, th *dsd.Thread) {
			defer wg.Done()
			errs[rank] = body(th, rank)
		}(rank, th)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("apps: thread %d: %w", rank, err)
		}
	}
	home.Wait()
	wall := time.Since(start)

	res := &Result{
		Config:     cfg,
		Wall:       wall,
		Home:       home.Stats().Snapshot(),
		ByPlatform: make(map[string][stats.NumPhases]time.Duration),
	}
	var agg stats.Breakdown
	agg.Merge(home.Stats())
	res.UpdateBytes = home.Stats().Bytes(stats.Conv)
	for rank, th := range threads {
		res.PageFaults += th.Segment().Faults()
		res.Heat.Merge(th.Heat())
		agg.Merge(th.Stats())
		snap := th.Stats().Snapshot()
		key := th.Platform().Name
		cur := res.ByPlatform[key]
		for i := range cur {
			cur[i] += snap[i]
		}
		res.ByPlatform[key] = cur
		_ = rank
	}
	res.Agg = agg.Snapshot()

	if cfg.Verify {
		ok, err := verify(cfg, home.Globals())
		if err != nil {
			return nil, err
		}
		res.Verified = ok
		if !ok {
			return res, fmt.Errorf("apps: %s N=%d %s: distributed result does not match sequential",
				cfg.Workload, cfg.N, cfg.Pair.Label)
		}
	}
	return res, nil
}

func verify(cfg Config, g *dsd.Globals) (bool, error) {
	switch cfg.Workload {
	case "matmul":
		want := MatMulSeq(GenIntMatrix(cfg.N, cfg.Seed), GenIntMatrix(cfg.N, cfg.Seed+1), cfg.N)
		got, err := g.MustVar("C").Ints(0, cfg.N*cfg.N)
		if err != nil {
			return false, err
		}
		for i := range want {
			if got[i] != want[i] {
				return false, nil
			}
		}
		return true, nil
	case "lu":
		want := GenLUMatrix(cfg.N, cfg.Seed)
		LUSeq(want, cfg.N)
		got, err := g.MustVar("A").Float64s(0, cfg.N*cfg.N)
		if err != nil {
			return false, err
		}
		for i := range want {
			if got[i] != want[i] {
				return false, nil
			}
		}
		return true, nil
	case "transfer":
		want := TransferExpected(cfg.N, cfg.Iters, cfg.Threads, cfg.Seed)
		got, err := g.MustVar("balances").Ints(0, cfg.N)
		if err != nil {
			return false, err
		}
		for i := range want {
			if got[i] != want[i] {
				return false, nil
			}
		}
		return true, nil
	case "jacobi":
		want := JacobiSeq(GenJacobiGrid(cfg.N, cfg.Seed), cfg.N, cfg.Iters)
		// The final sweep wrote into B when Iters is odd, A when even.
		buf := "A"
		if cfg.Iters%2 == 1 {
			buf = "B"
		}
		got, err := g.MustVar(buf).Float64s(0, cfg.N*cfg.N)
		if err != nil {
			return false, err
		}
		for i := range want {
			if got[i] != want[i] {
				return false, nil
			}
		}
		return true, nil
	default:
		return false, fmt.Errorf("apps: unknown workload %q", cfg.Workload)
	}
}
