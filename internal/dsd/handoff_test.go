package dsd

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
)

// TestHomeHandoffMidRun moves the home node from a Linux machine to a
// SPARC machine while three heterogeneous threads hammer a lock-protected
// counter. Threads follow the redirect transparently; no increment is
// lost; the final master (at the NEW home, in big-endian layout) is exact.
func TestHomeHandoffMidRun(t *testing.T) {
	nw := transport.NewInproc()
	gthv := testGThV()
	opts := DefaultOptions()

	oldHome, err := NewHome(gthv, platform.LinuxX86, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := nw.Listen("home1")
	if err != nil {
		t.Fatal(err)
	}
	go oldHome.Serve(l1)
	defer oldHome.Close()

	plats := []*platform.Platform{platform.LinuxX86, platform.SolarisSPARC, platform.LinuxX8664}
	threads := make([]*Thread, 3)
	for i, p := range plats {
		th, err := Dial(nw, "home1", p, int32(i), gthv, opts)
		if err != nil {
			t.Fatal(err)
		}
		threads[i] = th
	}

	const perThread = 120
	var wg sync.WaitGroup
	errCh := make(chan error, len(threads))
	for _, th := range threads {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			sum := th.Globals().MustVar("sum")
			for i := 0; i < perThread; i++ {
				if err := th.Lock(0); err != nil {
					errCh <- err
					return
				}
				v, err := sum.Int(0)
				if err != nil {
					errCh <- err
					return
				}
				if err := sum.SetInt(0, v+1); err != nil {
					errCh <- err
					return
				}
				if err := th.Unlock(0); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- th.Join()
		}(th)
	}

	// Let the run get going, then hand the home over to a SPARC box.
	// Polling the idempotency watermarks — rather than sleeping a fixed
	// interval — guarantees the detach really lands mid-run: at least one
	// thread has committed an update by the time we pull the rug.
	trafficDeadline := time.Now().Add(5 * time.Second)
	for {
		oldHome.mu.Lock()
		started := false
		for _, seq := range oldHome.applied {
			if seq > 0 {
				started = true
				break
			}
		}
		oldHome.mu.Unlock()
		if started {
			break
		}
		if time.Now().After(trafficDeadline) {
			t.Fatal("workers never started committing updates")
		}
		runtime.Gosched()
	}
	state, err := oldHome.Detach(10 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	newHome, err := NewHomeFromImage(gthv, platform.SolarisSPARC, opts, state)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := nw.Listen("home2")
	if err != nil {
		t.Fatal(err)
	}
	go newHome.Serve(l2)
	defer newHome.Close()
	oldHome.RedirectTo("home2")

	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	newHome.Wait()

	got, err := newHome.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(perThread * len(threads)); got != want {
		t.Errorf("counter after handoff = %d, want %d", got, want)
	}
}

// TestHandoffCarriesPendingUpdates verifies a thread whose catch-up queue
// straddles the handoff still receives it: A writes under lock at the old
// home, the home moves, then B locks at the new home and must see A's
// write without a full-state reseed.
func TestHandoffCarriesPendingUpdates(t *testing.T) {
	nw := transport.NewInproc()
	gthv := testGThV()
	opts := DefaultOptions()
	oldHome, err := NewHome(gthv, platform.SolarisSPARC, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	l1, err := nw.Listen("h1")
	if err != nil {
		t.Fatal(err)
	}
	go oldHome.Serve(l1)
	defer oldHome.Close()

	a, err := Dial(nw, "h1", platform.LinuxX86, 0, gthv, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dial(nw, "h1", platform.SolarisSPARC, 1, gthv, opts)
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Globals().MustVar("sum").SetInt(0, 4242); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	// B has NOT synced yet: its catch-up spans sit in the pending queue.

	state, err := oldHome.Detach(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(state.Pending[1]) == 0 {
		t.Fatal("B's pending queue should have carried over")
	}
	newHome, err := NewHomeFromImage(gthv, platform.LinuxX8664, opts, state)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := nw.Listen("h2")
	if err != nil {
		t.Fatal(err)
	}
	go newHome.Serve(l2)
	defer newHome.Close()
	oldHome.RedirectTo("h2")

	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	v, err := b.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4242 {
		t.Errorf("B sees sum=%d after handoff, want 4242", v)
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Join(); err != nil {
		t.Fatal(err)
	}
	if err := b.Join(); err != nil {
		t.Fatal(err)
	}
	newHome.Wait()
}

func TestDetachErrors(t *testing.T) {
	nw := transport.NewInproc()
	gthv := testGThV()
	h, err := NewHome(gthv, platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("hx")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	defer h.Close()

	th, err := Dial(nw, "hx", platform.LinuxX86, 0, gthv, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	other, err := Dial(nw, "hx", platform.SolarisSPARC, 1, gthv, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A held lock prevents quiescence: Detach must time out.
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	// A second thread asks for a free mutex while the home is frozen. The
	// freeze parks it; the aborted detach must release it to be served.
	locked := make(chan error, 1)
	go func() {
		for frozen := false; !frozen; runtime.Gosched() {
			h.mu.Lock()
			frozen = h.frozen
			h.mu.Unlock()
		}
		locked <- other.Lock(1)
	}()
	if _, err := h.Detach(200 * time.Millisecond); err == nil {
		t.Fatal("detach with a held lock must time out")
	}
	select {
	case err := <-locked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lock requested during the failed detach was never granted")
	}
	if err := other.Unlock(1); err != nil {
		t.Fatal(err)
	}
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}
	// Now it succeeds; a second detach fails.
	if _, err := h.Detach(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Detach(time.Second); err == nil {
		t.Error("double detach must fail")
	}
}

func TestConnectThreadCannotFollowRedirect(t *testing.T) {
	// LocalThread (pipe-based) threads have no dialer; a redirect must
	// surface a clear error instead of hanging.
	gthv := testGThV()
	h, err := NewHome(gthv, platform.LinuxX86, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	th, err := h.LocalThread(0, platform.LinuxX86, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Detach(time.Second); err != nil {
		t.Fatal(err)
	}
	h.RedirectTo("nowhere")
	err = th.Lock(0)
	if err == nil || !strings.Contains(err.Error(), "cannot redial") {
		t.Errorf("pipe thread redirect error = %v", err)
	}
}
