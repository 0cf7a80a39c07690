package dsd

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// feedFrames opens a raw connection to the home and sends the given frames,
// returning whatever the home sends back until it closes the conn.
func feedFrames(t *testing.T, h *Home, frames [][]byte) [][]byte {
	t.Helper()
	client, server := transport.Pipe()
	done := make(chan struct{})
	go func() {
		h.ServeConn(server)
		close(done)
	}()
	for _, f := range frames {
		if err := client.SendFrame(f); err != nil {
			break
		}
	}
	// A hostile frame may accidentally decode as a valid message and leave
	// the home waiting for more input; bound the exchange by severing the
	// connection shortly after the frames are delivered.
	timer := time.AfterFunc(100*time.Millisecond, func() { client.Close() })
	defer timer.Stop()
	var replies [][]byte
	for {
		fr, err := client.RecvFrame()
		if err != nil {
			break
		}
		replies = append(replies, fr)
	}
	client.Close()
	<-done
	return replies
}

func encodeMsg(t *testing.T, m *wire.Message) []byte {
	t.Helper()
	b, err := wire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestHomeSurvivesGarbageFrames throws random byte soup at the home's
// protocol handler: it must drop the connection, never panic, and remain
// fully functional for well-behaved threads afterwards.
func TestHomeSurvivesGarbageFrames(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := r.Intn(200)
		frame := make([]byte, n)
		r.Read(frame)
		feedFrames(t, h, [][]byte{frame})
	}
	// Still healthy.
	th, err := h.LocalThread(0, platform.SolarisSPARC, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Globals().MustVar("sum").SetInt(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Join(); err != nil {
		t.Fatal(err)
	}
	h.Wait()
}

// TestHomeRejectsMalformedProtocol sends well-formed wire messages that
// violate the protocol: wrong first message, bogus spans, lying sizes. The
// home must reject each connection without corrupting the master.
func TestHomeRejectsMalformedProtocol(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	hello := func(rank int32) []byte {
		return encodeMsg(t, &wire.Message{
			Kind: wire.KindHello, Rank: rank,
			Platform: platform.SolarisSPARC.Name, Base: DefaultBase,
		})
	}

	cases := []struct {
		name   string
		frames [][]byte
	}{
		{"first message not hello", [][]byte{
			encodeMsg(t, &wire.Message{Kind: wire.KindLockReq, Rank: 9}),
		}},
		{"hello with unknown platform", [][]byte{
			encodeMsg(t, &wire.Message{Kind: wire.KindHello, Rank: 9, Platform: "vax", Base: DefaultBase}),
		}},
		{"hello with unaligned base", [][]byte{
			encodeMsg(t, &wire.Message{Kind: wire.KindHello, Rank: 9, Platform: "linux-x86", Base: 12345}),
		}},
		{"update entry out of range", [][]byte{
			hello(9),
			encodeMsg(t, &wire.Message{
				Kind: wire.KindUnlockReq, Rank: 9, Platform: platform.SolarisSPARC.Name, Base: DefaultBase,
				Updates: []wire.Update{{Entry: 99, First: 0, Count: 1, Tag: "(4,1)", Data: []byte{0, 0, 0, 1}}},
			}),
		}},
		{"update span exceeds entry", [][]byte{
			hello(9),
			encodeMsg(t, &wire.Message{
				Kind: wire.KindUnlockReq, Rank: 9, Platform: platform.SolarisSPARC.Name, Base: DefaultBase,
				Updates: []wire.Update{{Entry: 1, First: 60, Count: 10, Tag: "(4,10)", Data: make([]byte, 40)}},
			}),
		}},
		{"update with wrong element size", [][]byte{
			hello(9),
			encodeMsg(t, &wire.Message{
				Kind: wire.KindUnlockReq, Rank: 9, Platform: platform.SolarisSPARC.Name, Base: DefaultBase,
				Updates: []wire.Update{{Entry: 1, First: 0, Count: 2, Tag: "(8,2)", Data: make([]byte, 16)}},
			}),
		}},
		{"negative span", [][]byte{
			hello(9),
			encodeMsg(t, &wire.Message{
				Kind: wire.KindUnlockReq, Rank: 9, Platform: platform.SolarisSPARC.Name, Base: DefaultBase,
				Updates: []wire.Update{{Entry: 1, First: -4, Count: 1, Tag: "(4,1)", Data: []byte{1, 2, 3, 4}}},
			}),
		}},
		{"migrate message to DSD port", [][]byte{
			hello(9),
			encodeMsg(t, &wire.Message{
				Kind: wire.KindMigrate, Rank: 9, Platform: platform.SolarisSPARC.Name,
				State: &wire.ThreadState{PC: 1, FrameTag: "(4,1)(0,0)", Frame: []byte{0, 0, 0, 0}},
			}),
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			feedFrames(t, h, c.frames)
		})
	}

	// The master must be untouched and the home functional.
	th, err := h.LocalThread(0, platform.LinuxX86, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	v, err := th.Globals().MustVar("A").Int(60)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Errorf("master corrupted: A[60] = %d", v)
	}
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Join(); err != nil {
		t.Fatal(err)
	}
}

// TestThreadSurvivesHomeCrash verifies a thread gets a clean error, not a
// hang, when its home disappears mid-protocol.
func TestThreadSurvivesHomeCrash(t *testing.T) {
	nw := transport.NewInproc()
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)

	th, err := Dial(nw, "home", platform.SolarisSPARC, 0, testGThV(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	// Home dies while the thread holds the lock.
	h.Close()
	th.Close() // sever the pipe as a crashed process would

	errCh := make(chan error, 1)
	go func() { errCh <- th.Unlock(0) }()
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("unlock against a dead home succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("unlock against a dead home hung")
	}
}

// TestCleanErrorsUnderLinkFailures drives full workload attempts over links
// that die at every possible operation count. Whatever the cut point, the
// DSM must fail with an error (or succeed) — never hang, never panic, and
// the home must stay usable for the next attempt.
func TestCleanErrorsUnderLinkFailures(t *testing.T) {
	for failEvery := 1; failEvery <= 40; failEvery += 3 {
		failEvery := failEvery
		t.Run(fmt.Sprintf("fail-every-%d", failEvery), func(t *testing.T) {
			t.Parallel()
			inner := transport.NewInproc()
			nw := transport.NewFaults(inner, transport.FaultPlan{Every: failEvery})
			h, err := NewHome(testGThV(), platform.LinuxX86, 1, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			l, err := nw.Listen("home")
			if err != nil {
				t.Fatal(err)
			}
			go h.Serve(l)
			defer h.Close()

			done := make(chan error, 1)
			go func() {
				th, err := Dial(nw, "home", platform.SolarisSPARC, 0, testGThV(), DefaultOptions())
				if err != nil {
					done <- err
					return
				}
				defer th.Close()
				sum := th.Globals().MustVar("sum")
				for i := 0; i < 5; i++ {
					if err := th.Lock(0); err != nil {
						done <- err
						return
					}
					v, err := sum.Int(0)
					if err != nil {
						done <- err
						return
					}
					if err := sum.SetInt(0, v+1); err != nil {
						done <- err
						return
					}
					if err := th.Unlock(0); err != nil {
						done <- err
						return
					}
				}
				done <- th.Join()
			}()
			select {
			case <-done:
				// Error or success: both fine; hanging is not.
			case <-time.After(30 * time.Second):
				t.Fatalf("fail-every-%d: workload hung", failEvery)
			}
		})
	}
}

// TestDeadHolderLockRecovered: a thread dies holding a mutex; the home must
// recover the lock so other threads are not deadlocked forever.
func TestDeadHolderLockRecovered(t *testing.T) {
	nw := transport.NewInproc()
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(l)
	defer h.Close()

	dying, err := Dial(nw, "home", platform.SolarisSPARC, 0, testGThV(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := Dial(nw, "home", platform.LinuxX86, 1, testGThV(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := dying.Lock(0); err != nil {
		t.Fatal(err)
	}
	// The survivor queues behind the lock, then the holder crashes.
	got := make(chan error, 1)
	go func() { got <- survivor.Lock(0) }()
	// Wait until the survivor's request is actually queued at the home —
	// a fixed sleep under-waits on a loaded single-core runner.
	enqueueDeadline := time.Now().Add(5 * time.Second)
	for {
		h.mu.Lock()
		ls := h.locks[0]
		queued := ls != nil && len(ls.waiters) > 0
		h.mu.Unlock()
		if queued {
			break
		}
		if time.Now().After(enqueueDeadline) {
			t.Fatal("survivor never enqueued behind the held lock")
		}
		runtime.Gosched()
	}
	dying.Close()

	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("survivor lock failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lock never recovered from the dead holder")
	}
	if err := survivor.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := survivor.Join(); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffUnderFlakyTransport interleaves a home handoff with links that
// die at every possible operation count: the worker's traffic, the Detach
// quiescence wait, the successor handshakes and the redirects all run over
// the failing transport. Whatever the cut point, Detach must return within
// its own timeout (success or a clean error, never a hang), a successful
// handoff must leave the successor serving, and the worker must either
// finish or fail with an error.
func TestHandoffUnderFlakyTransport(t *testing.T) {
	for failEvery := 2; failEvery <= 32; failEvery += 5 {
		failEvery := failEvery
		t.Run(fmt.Sprintf("fail-every-%d", failEvery), func(t *testing.T) {
			t.Parallel()
			inner := transport.NewInproc()
			nw := transport.NewFaults(inner, transport.FaultPlan{Every: failEvery})
			h, err := NewHome(testGThV(), platform.LinuxX86, 1, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			l, err := nw.Listen("home")
			if err != nil {
				t.Fatal(err)
			}
			go h.Serve(l)
			defer h.Close()

			done := make(chan error, 1)
			go func() {
				th, err := Dial(nw, "home", platform.SolarisSPARC, 0, testGThV(), DefaultOptions())
				if err != nil {
					done <- err
					return
				}
				defer th.Close()
				sum := th.Globals().MustVar("sum")
				for i := 0; i < 10; i++ {
					if err := th.Lock(0); err != nil {
						done <- err
						return
					}
					v, err := sum.Int(0)
					if err != nil {
						done <- err
						return
					}
					if err := sum.SetInt(0, v+1); err != nil {
						done <- err
						return
					}
					if err := th.Unlock(0); err != nil {
						done <- err
						return
					}
				}
				done <- th.Join()
			}()

			// Detach mid-workload. Quiescence may never come (the worker
			// may be wedged in a retry loop or hold the lock when its link
			// died), so an error is as acceptable as a handoff — but the
			// call must come back.
			detached := make(chan *wire.HomeImage, 1)
			go func() {
				state, err := h.Detach(500 * time.Millisecond)
				if err != nil {
					detached <- nil
					return
				}
				detached <- state
			}()
			select {
			case state := <-detached:
				if state != nil {
					h2, err := NewHomeFromImage(testGThV(), platform.SolarisSPARC, DefaultOptions(), state)
					if err != nil {
						t.Fatalf("fail-every-%d: handoff state rejected: %v", failEvery, err)
					}
					l2, err := nw.Listen("home2")
					if err != nil {
						t.Fatal(err)
					}
					go h2.Serve(l2)
					defer h2.Close()
					h.RedirectTo("home2")
				}
			case <-time.After(30 * time.Second):
				t.Fatalf("fail-every-%d: Detach hung past its own timeout", failEvery)
			}

			select {
			case <-done:
				// Error or success: both fine; hanging is not.
			case <-time.After(30 * time.Second):
				t.Fatalf("fail-every-%d: workload hung across the handoff", failEvery)
			}
		})
	}
}
