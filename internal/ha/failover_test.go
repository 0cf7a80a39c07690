package ha_test

import (
	"fmt"
	"testing"
	"time"

	"hetdsm/internal/apps"
	"hetdsm/internal/dsd"
	"hetdsm/internal/flight"
	"hetdsm/internal/ha"
	"hetdsm/internal/platform"
	"hetdsm/internal/tag"
	"hetdsm/internal/transport"
)

// haHarness is an in-process HA deployment: a primary home serving on
// "primary", a standby replicating on "replica" and ready to serve on
// "standby", and the replication stream between them.
type haHarness struct {
	nw       transport.Network
	primary  *dsd.Home
	ptrace   *flight.Ring
	standby  *ha.Standby
	repl     *ha.Replicator
	counters *ha.Counters
}

// haAddrs is the candidate list every HA client dials through.
var haAddrs = []string{"primary", "standby"}

// newHarness brings up primary, standby and the replication stream, waits
// for the bootstrap record, and starts the failure detector.
func newHarness(t *testing.T, nw transport.Network, gthv tag.Struct, nthreads int, standbyPlat *platform.Platform) *haHarness {
	t.Helper()
	ptrace := flight.New(1 << 16)
	opts := dsd.DefaultOptions()
	opts.StickyLocks = true
	opts.Events = ptrace
	primary, err := dsd.NewHome(gthv, platform.LinuxX86, nthreads, opts)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := nw.Listen("primary")
	if err != nil {
		t.Fatal(err)
	}
	go primary.Serve(pl)

	counters := &ha.Counters{}
	backup := ha.NewBackup(gthv)
	backup.Events = flight.New(1024)
	standby, err := ha.NewStandby(nw, backup, ha.StandbyConfig{
		PrimaryAddr:       "primary",
		ReplicaAddr:       "replica",
		ServeAddr:         "standby",
		Platform:          standbyPlat,
		Opts:              dsd.DefaultOptions(),
		HeartbeatInterval: 3 * time.Millisecond,
		FailoverTimeout:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	standby.Counters = counters

	repConn, err := nw.Dial("replica")
	if err != nil {
		t.Fatal(err)
	}
	repl := ha.NewReplicator(repConn, counters)
	if err := primary.StartReplication(repl); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "bootstrap record", backup.Ready)
	standby.Start()
	t.Cleanup(standby.Stop)
	return &haHarness{nw: nw, primary: primary, ptrace: ptrace, standby: standby, repl: repl, counters: counters}
}

// kill simulates the primary process dying: every connection (including the
// replication stream) is severed at once.
func (h *haHarness) kill() {
	h.primary.Kill()
	h.repl.Close()
}

// promotedHome waits for failover and returns the promoted home.
func (h *haHarness) promotedHome(t *testing.T) *dsd.Home {
	t.Helper()
	select {
	case <-h.standby.Promoted():
	case <-time.After(30 * time.Second):
		t.Fatal("standby never promoted")
	}
	home, err := h.standby.Home()
	if err != nil {
		t.Fatalf("failover failed: %v", err)
	}
	t.Cleanup(home.Close)
	return home
}

// runBody dials an HA client and runs body on it, reporting the result and
// folding the thread's reconnect count into the harness counters.
func (h *haHarness) runBody(gthv tag.Struct, p *platform.Platform, rank int32,
	body func(th *dsd.Thread) error, errs chan<- error) {
	th, err := dsd.DialHA(h.nw, haAddrs, p, rank, gthv, dsd.DefaultOptions())
	if err != nil {
		errs <- fmt.Errorf("rank %d dial: %w", rank, err)
		return
	}
	err = body(th)
	h.counters.Reconnects.Add(th.Reconnects())
	if err != nil {
		errs <- fmt.Errorf("rank %d: %w", rank, err)
		return
	}
	errs <- nil
}

// collectErrs waits for n body results, failing on the first error.
func collectErrs(t *testing.T, errs <-chan error, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("workload hung after the failover")
		}
	}
}

// barrierEvents counts barrier arrivals and generation openings recorded by
// the primary.
func (h *haHarness) barrierEvents() (arrivals, opens int) {
	return len(h.ptrace.Filter(flight.KindBarrierArrive)), len(h.ptrace.Filter(flight.KindBarrierOpen))
}

// assertFailoverCounters checks that the chaos run actually exercised the
// failover machinery.
func (h *haHarness) assertFailoverCounters(t *testing.T) {
	t.Helper()
	if got := h.counters.Failovers.Load(); got != 1 {
		t.Errorf("failovers = %d, want 1", got)
	}
	if h.counters.Suspicions.Load() == 0 {
		t.Error("no suspicion recorded")
	}
	if h.counters.Reconnects.Load() == 0 {
		t.Error("no client reconnected; the failover path was not exercised")
	}
	if h.counters.RepRecords.Load() == 0 || h.counters.RepAcks.Load() == 0 {
		t.Error("replication stream never flowed")
	}
}

// TestFailoverMatMulMidRun kills the primary home while a heterogeneous
// matmul is between its two barriers and checks the run completes with the
// correct product on the promoted (big-endian!) standby.
//
// A fourth "gate" thread participates in every barrier but holds its second
// arrival until the test releases it. The second barrier therefore cannot
// open before the kill, which makes "the home died mid-run" deterministic
// rather than a race against the compute loop.
func TestFailoverMatMulMidRun(t *testing.T) {
	const (
		n        = 8
		workers  = 3
		seedA    = int64(41)
		seedB    = int64(42)
		nthreads = workers + 1 // workers + gate
	)
	gthv := apps.MatMulGThV(n)
	nw := transport.NewInproc()
	h := newHarness(t, nw, gthv, nthreads, platform.SolarisSPARC)

	plats := []*platform.Platform{platform.LinuxX86, platform.SolarisSPARC, platform.LinuxX86}
	errs := make(chan error, nthreads)
	for rank := 0; rank < workers; rank++ {
		rank := rank
		go h.runBody(gthv, plats[rank], int32(rank), func(th *dsd.Thread) error {
			return apps.MatMulThread(th, rank, workers, n, seedA, seedB)
		}, errs)
	}
	hold := make(chan struct{})
	go h.runBody(gthv, platform.SolarisSPARC, workers, func(th *dsd.Thread) error {
		if err := th.Barrier(0); err != nil {
			return err
		}
		<-hold
		if err := th.Barrier(0); err != nil {
			return err
		}
		return th.Join()
	}, errs)

	// Wait until the first barrier opened (inputs published) and all three
	// workers have arrived at the second barrier — i.e. their C rows are
	// applied at the primary and the threads are parked waiting for the
	// gate. Killing now is guaranteed to be mid-run.
	waitFor(t, 10*time.Second, "workers parked at the final barrier", func() bool {
		arrivals, opens := h.barrierEvents()
		return opens >= 1 && arrivals >= nthreads+workers
	})
	h.kill()
	close(hold)

	collectErrs(t, errs, nthreads)
	home := h.promotedHome(t)
	home.Wait() // every rank joined at the promoted home

	got, err := home.Globals().MustVar("C").Ints(0, n*n)
	if err != nil {
		t.Fatal(err)
	}
	want := apps.MatMulSeq(apps.GenIntMatrix(n, seedA), apps.GenIntMatrix(n, seedB), n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("C[%d] = %d, want %d (result diverged after failover)", i, got[i], want[i])
		}
	}
	h.assertFailoverCounters(t)
}

// TestFailoverLUMidRun is the same chaos scenario over the LU factorization,
// whose n-1 elimination steps give the failover a long barrier chain to land
// in: the gate holds step 3's barrier, so three generations complete on the
// primary and the rest run on the promoted standby. LU doubles are bit-exact
// across platforms, so the factorization must equal LUSeq exactly.
func TestFailoverLUMidRun(t *testing.T) {
	const (
		n        = 8
		workers  = 3
		seed     = int64(7)
		holdStep = 2
		nthreads = workers + 1
	)
	gthv := apps.LUGThV(n)
	nw := transport.NewInproc()
	h := newHarness(t, nw, gthv, nthreads, platform.SolarisSPARC)

	plats := []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86, platform.SolarisSPARC}
	errs := make(chan error, nthreads)
	for rank := 0; rank < workers; rank++ {
		rank := rank
		go h.runBody(gthv, plats[rank], int32(rank), func(th *dsd.Thread) error {
			return apps.LUThread(th, rank, workers, n, seed)
		}, errs)
	}
	hold := make(chan struct{})
	go h.runBody(gthv, platform.LinuxX86, workers, func(th *dsd.Thread) error {
		if err := th.Barrier(0); err != nil { // init barrier
			return err
		}
		for k := 0; k < n-1; k++ {
			if k == holdStep {
				<-hold
			}
			if err := th.Barrier(0); err != nil {
				return err
			}
		}
		return th.Join()
	}, errs)

	// holdStep generations have opened beyond the init barrier; the
	// workers' arrivals for the held generation are in. Kill mid-chain.
	waitFor(t, 10*time.Second, "workers parked at the held elimination step", func() bool {
		arrivals, opens := h.barrierEvents()
		return opens >= 1+holdStep && arrivals >= (1+holdStep)*nthreads+workers
	})
	h.kill()
	close(hold)

	collectErrs(t, errs, nthreads)
	home := h.promotedHome(t)
	home.Wait()

	got, err := home.Globals().MustVar("A").Float64s(0, n*n)
	if err != nil {
		t.Fatal(err)
	}
	want := apps.GenLUMatrix(n, seed)
	apps.LUSeq(want, n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("A[%d] = %g, want %g (LU diverged after failover)", i, got[i], want[i])
		}
	}
	h.assertFailoverCounters(t)
}

// TestTransientPartitionReplay runs the lock-heavy transfer workload over a
// transport that randomly severs connections. The home stays alive the whole
// time: every failure is a transient partition, so sticky locks plus
// sequence-number replay must carry each thread through — reconnect with
// backoff, re-send the in-flight request, and have the home apply it at most
// once. Balance conservation catches any double-applied transfer.
func TestTransientPartitionReplay(t *testing.T) {
	const (
		nAccounts = 64
		nOps      = 40
		workers   = 3
		seed      = int64(20060814)
	)
	gthv := apps.TransferGThV(nAccounts)
	flaky := transport.NewFaults(transport.NewInproc(), transport.FaultPlan{P: 0.02, Seed: 1})

	opts := dsd.DefaultOptions()
	opts.StickyLocks = true
	home, err := dsd.NewHome(gthv, platform.LinuxX86, workers, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := flaky.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go home.Serve(l)

	plats := []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86, platform.SolarisSPARC}
	errs := make(chan error, workers)
	var reconnects [workers]uint64
	for rank := 0; rank < workers; rank++ {
		rank := rank
		go func() {
			th, err := dsd.DialHA(flaky, []string{"home"}, plats[rank], int32(rank), gthv, dsd.DefaultOptions())
			if err != nil {
				errs <- fmt.Errorf("rank %d dial: %w", rank, err)
				return
			}
			err = apps.TransferThread(th, rank, workers, nAccounts, nOps, seed)
			reconnects[rank] = th.Reconnects()
			if err != nil {
				errs <- fmt.Errorf("rank %d: %w", rank, err)
				return
			}
			errs <- nil
		}()
	}
	collectErrs(t, errs, workers)
	home.Wait()

	got, err := home.Globals().MustVar("balances").Ints(0, nAccounts)
	if err != nil {
		t.Fatal(err)
	}
	want := apps.TransferExpected(nAccounts, nOps, workers, seed)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("balances[%d] = %d, want %d (a replayed transfer applied twice?)", i, got[i], want[i])
		}
	}
	if flaky.Counts().Kills == 0 {
		t.Error("flaky transport never dropped anything; partition path untested")
	}
	var total uint64
	for _, r := range reconnects {
		total += r
	}
	if total == 0 {
		t.Error("no thread reconnected; replay-after-partition path untested")
	}
}
