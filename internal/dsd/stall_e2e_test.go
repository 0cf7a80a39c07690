package dsd

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hetdsm/internal/leakcheck"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
)

// The chaos e2e deployment: a home on a real TCP listener, rank 0 dialing
// straight TCP, rank 1 dialing through its own Faults wrapper so the test
// can freeze exactly that rank's established connection. Fresh dials bypass
// the freeze — a wedged connection is a per-socket fault (full socket
// buffer, dead NAT entry), so redial-and-replay recovers where waiting
// cannot.
type stallCluster struct {
	home   *Home
	ths    [2]*Thread
	faults *transport.Faults
}

func newStallCluster(t *testing.T, opTimeout time.Duration) *stallCluster {
	t.Helper()
	opts := DefaultOptions()
	opts.StickyLocks = true
	opts.OpTimeout = opTimeout

	h, err := NewHome(testGThV(), platform.LinuxX86, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var tcp transport.TCP
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)

	bo := transport.Backoff{
		Base: time.Millisecond, Max: 10 * time.Millisecond,
		Factor: 2, Jitter: 0.3, Attempts: 2000, Seed: 1,
	}
	c := &stallCluster{home: h, faults: transport.NewFaults(tcp, transport.FaultPlan{})}
	c.ths[0], err = DialHABackoff(tcp, []string{l.Addr()}, platform.LinuxX86, 0, testGThV(), opts, bo)
	if err != nil {
		t.Fatal(err)
	}
	c.ths[1], err = DialHABackoff(c.faults, []string{l.Addr()}, platform.SolarisSPARC, 1, testGThV(), opts, bo)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *stallCluster) close() {
	for _, th := range c.ths {
		th.Close()
	}
	c.home.Close()
}

// The workload is a 4x4 distributed matmul over the shared structure:
// matrix A in "A"[0..15], matrix B in "A"[16..31], result C in "B"[0..15].
// Rank r computes rows 2r and 2r+1, each row inside Lock(0) so the inputs
// arrive with the grant and the row ships with the release.
const mmN = 4

func mmA(i, j int) int64 { return int64(i*mmN + j + 1) }
func mmB(i, j int) int64 { return int64((i + 1) * (j + 2)) }

func mmExpected() [mmN][mmN]int64 {
	var want [mmN][mmN]int64
	for i := 0; i < mmN; i++ {
		for j := 0; j < mmN; j++ {
			for k := 0; k < mmN; k++ {
				want[i][j] += mmA(i, k) * mmB(k, j)
			}
		}
	}
	return want
}

// worker drives one rank's share of the matmul. onFirstCS, when non-nil,
// runs inside the rank's first row critical section, after the lock is held
// and before anything is computed — the stall hook.
func (c *stallCluster) worker(rank int, onFirstCS func()) error {
	th := c.ths[rank]
	g := th.Globals()
	if rank == 0 {
		if err := th.Lock(0); err != nil {
			return fmt.Errorf("rank 0 init lock: %w", err)
		}
		in := g.MustVar("A")
		for i := 0; i < mmN; i++ {
			for j := 0; j < mmN; j++ {
				if err := in.SetInt(i*mmN+j, mmA(i, j)); err != nil {
					return err
				}
				if err := in.SetInt(16+i*mmN+j, mmB(i, j)); err != nil {
					return err
				}
			}
		}
		if err := th.Unlock(0); err != nil {
			return fmt.Errorf("rank 0 init unlock: %w", err)
		}
	}
	if err := th.Barrier(0); err != nil {
		return fmt.Errorf("rank %d barrier 0: %w", rank, err)
	}
	for row := rank * 2; row < rank*2+2; row++ {
		if err := th.Lock(0); err != nil {
			return fmt.Errorf("rank %d row %d lock: %w", rank, row, err)
		}
		if onFirstCS != nil {
			onFirstCS()
			onFirstCS = nil
		}
		in, out := g.MustVar("A"), g.MustVar("B")
		for j := 0; j < mmN; j++ {
			var sum int64
			for k := 0; k < mmN; k++ {
				av, err := in.Int(row*mmN + k)
				if err != nil {
					return err
				}
				bv, err := in.Int(16 + k*mmN + j)
				if err != nil {
					return err
				}
				sum += av * bv
			}
			if err := out.SetInt(row*mmN+j, sum); err != nil {
				return err
			}
		}
		if err := th.Unlock(0); err != nil {
			return fmt.Errorf("rank %d row %d unlock: %w", rank, row, err)
		}
	}
	if err := th.Barrier(1); err != nil {
		return fmt.Errorf("rank %d barrier 1: %w", rank, err)
	}
	if rank == 0 {
		if err := th.Lock(0); err != nil {
			return fmt.Errorf("rank 0 verify lock: %w", err)
		}
		out := g.MustVar("B")
		want := mmExpected()
		for i := 0; i < mmN; i++ {
			for j := 0; j < mmN; j++ {
				got, err := out.Int(i*mmN + j)
				if err != nil {
					return err
				}
				if got != want[i][j] {
					return fmt.Errorf("C[%d][%d] = %d, want %d", i, j, got, want[i][j])
				}
			}
		}
		if err := th.Unlock(0); err != nil {
			return fmt.Errorf("rank 0 verify unlock: %w", err)
		}
	}
	return th.Join()
}

// run starts both workers and freezes rank 1's established connection while
// it holds the mutex mid-critical-section. It returns the workers' result
// channel (2 sends).
func (c *stallCluster) run() chan error {
	entered := make(chan struct{})
	release := make(chan struct{})
	done := make(chan error, 2)
	go func() { done <- c.worker(0, nil) }()
	go func() {
		done <- c.worker(1, func() {
			close(entered)
			<-release
		})
	}()
	<-entered
	c.faults.Freeze()
	close(release)
	return done
}

// The tentpole acceptance test: with the deadline plane on, the matmul
// completes over real TCP even though rank 1's connection is frozen — for
// longer than the op deadline — while it holds the mutex. The unlock hits
// its deadline, severs the wedged socket, redials a clean one, re-registers
// and replays under its original sequence number; the home's idempotency
// watermarks apply it once, rank 0 (whose lock wait also rides out deadline
// expiries) gets the grant, and the result verifies.
func TestStalledRankCompletesWithDeadlinePlane(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newStallCluster(t, 150*time.Millisecond)
	defer c.close()

	done := c.run()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("matmul did not complete with the deadline plane on")
		}
	}
	if c.ths[1].DeadlineExceeded() == 0 {
		t.Error("stalled rank never hit its op deadline")
	}
	if c.ths[1].Reconnects() == 0 {
		t.Error("stalled rank never redialed off the wedged socket")
	}
}

// The control run: the identical scenario with the deadline plane disabled
// wedges — rank 1's unlock blocks forever on the frozen socket and rank 0
// waits forever for the grant. Resuming the connection afterwards lets the
// same run drain and verify, proving the wedge was the frozen socket and
// nothing else in the harness.
func TestStalledRankDeadlocksWithoutDeadlinePlane(t *testing.T) {
	defer leakcheck.Check(t)()
	c := newStallCluster(t, 0)
	defer c.close()

	done := c.run()
	select {
	case err := <-done:
		t.Fatalf("run completed without the deadline plane (err=%v) — the stall did not wedge", err)
	case <-time.After(2 * time.Second):
	}

	c.faults.Resume()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("worker after resume: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("matmul did not complete after resume")
		}
	}
	if got := c.ths[1].DeadlineExceeded(); got != 0 {
		t.Errorf("deadline plane disabled but %d expiries counted", got)
	}
}

// TestArmedStallPlanEndsPromptly: a deadline as short as the stall plan's
// pauses must end every operation inside a bounded number of attempts.
// Two HA ranks run lock/unlock cycles over a network that adds up to
// 200 µs per frame and a 2 ms stall every 31 frames, with OpTimeout at
// 2 ms. Each operation either succeeds or fails with an error wrapping
// ErrDeadline (a rank stops at its first failure), and the whole run ends
// in seconds. A redial whose backoff sleeps past the attempt's deadline
// dooms every dial and hello of its cycle instead, and the run hangs.
func TestArmedStallPlanEndsPromptly(t *testing.T) {
	defer leakcheck.Check(t)()
	opts := DefaultOptions()
	opts.StickyLocks = true
	opts.OpTimeout = 2 * time.Millisecond
	nw := transport.NewFaults(transport.NewInproc(), transport.FaultPlan{
		Seed: 1, Latency: 200 * time.Microsecond, StallEvery: 31, StallFor: 2 * time.Millisecond,
	})
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	defer h.Kill()

	var ths [2]*Thread
	for rank := range ths {
		ths[rank], err = DialHA(nw, []string{"home"}, platform.LinuxX86, int32(rank), testGThV(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer ths[rank].Close()
	}
	done := make(chan error, len(ths))
	for rank, th := range ths {
		go func() {
			sum := th.Globals().MustVar("sum")
			for i := 0; i < 8; i++ {
				if err := th.Lock(0); err != nil {
					done <- fmt.Errorf("rank %d lock: %w", rank, err)
					return
				}
				if err := sum.SetInt(0, int64(i)); err != nil {
					done <- err
					return
				}
				if err := th.Unlock(0); err != nil {
					done <- fmt.Errorf("rank %d unlock: %w", rank, err)
					return
				}
			}
			done <- nil
		}()
	}
	watchdog := time.After(5 * time.Second)
	for range ths {
		select {
		case err := <-done:
			if err != nil && !errors.Is(err, transport.ErrDeadline) {
				t.Errorf("operation failed without a deadline: %v", err)
			}
		case <-watchdog:
			t.Fatal("armed stall run still going after 5s")
		}
	}
	if ths[0].DeadlineExceeded()+ths[1].DeadlineExceeded() == 0 {
		t.Error("no attempt hit its deadline: the stall plan never exercised the plane")
	}
}
