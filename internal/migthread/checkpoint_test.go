package migthread

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"hetdsm/internal/checkpoint"
	"hetdsm/internal/dsd"
	"hetdsm/internal/platform"
	"hetdsm/internal/transport"
	"hetdsm/internal/wire"
)

// TestWholeComputationCheckpointRecovery checkpoints a running computation
// mid-way (thread state via the migthread layer, globals image via the
// home), destroys the entire cluster, rebuilds it on DIFFERENT platforms,
// restores both halves from the portable blobs, and finishes. The final
// result is exact: heterogeneous crash recovery.
func TestWholeComputationCheckpointRecovery(t *testing.T) {
	const total, chunk = 100000, 500

	// --- original cluster: linux home, linux worker ---
	nw := transport.NewInproc()
	home, err := dsd.NewHome(testGThV(), platform.LinuxX86, 1, dsd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	hl, err := nw.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go home.Serve(hl)

	n1 := NewNode("orig", platform.LinuxX86, nw, "home", testGThV(), dsd.DefaultOptions())

	// The work marks progress into the shared array so the globals
	// checkpoint is observably mid-flight.
	captured := make(chan *checkpoint.Checkpoint, 1)
	gotIt := make(chan struct{})
	var once sync.Once
	w := &sumWork{Total: total, Chunk: chunk}
	w.hook = func(pc int64) {
		if pc == 20 {
			// RequestCheckpoint blocks until the thread's next safe
			// point, so it must come from outside the thread.
			once.Do(func() {
				go func() {
					defer close(gotIt)
					ck, err := n1.RequestCheckpoint(4)
					if err != nil {
						t.Errorf("checkpoint: %v", err)
						close(captured)
						return
					}
					captured <- ck
				}()
			})
		}
		if pc >= 20 {
			// Throttle until the capture lands so the thread cannot
			// finish first.
			select {
			case <-gotIt:
			default:
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	if _, err := n1.StartThread(4, w, RoleLocal); err != nil {
		t.Fatal(err)
	}

	ck, ok := <-captured
	if !ok || ck == nil {
		t.Fatal("no checkpoint captured")
	}
	if ck.PC < 20 {
		t.Fatalf("checkpoint at pc %d, want >= 20", ck.PC)
	}
	// Pair it with the home's globals image, and serialize both to one
	// blob as a real checkpointer would.
	img, err := home.Image()
	if err != nil {
		t.Fatal(err)
	}
	ck.Globals, ck.GlobalsTag = img.Image, img.Tag
	var blobBuf bytes.Buffer
	if err := ck.Save(&blobBuf); err != nil {
		t.Fatal(err)
	}
	blob := blobBuf.Bytes()

	// --- "crash": abandon the original cluster entirely ---
	// (The original thread keeps running in the background; its home is
	// independent of the new one, so it cannot interfere.)
	home.Close()

	// --- recovery on the OPPOSITE platforms from the blob ---
	loaded, err := checkpoint.Load(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	nw2 := transport.NewInproc()
	home2, err := dsd.NewHome(testGThV(), platform.SolarisSPARC, 1, dsd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := home2.Restore(&wire.HomeImage{
		Platform: loaded.Platform, Base: dsd.DefaultBase,
		Image: loaded.Globals, Tag: loaded.GlobalsTag, Nthreads: 1,
	}); err != nil {
		t.Fatal(err)
	}
	hl2, err := nw2.Listen("home")
	if err != nil {
		t.Fatal(err)
	}
	go home2.Serve(hl2)
	defer home2.Close()

	n2 := NewNode("recovered", platform.SolarisSPARC, nw2, "home", testGThV(), dsd.DefaultOptions())
	if _, err := n2.StartFromCheckpoint(4, &sumWork{Total: total, Chunk: chunk}, loaded); err != nil {
		t.Fatal(err)
	}
	if err := n2.WaitAll(); err != nil {
		t.Fatal(err)
	}
	home2.Wait()

	got, err := home2.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(total) * (total + 1) / 2; got != want {
		t.Errorf("recovered result = %d, want %d", got, want)
	}
	role, _ := n2.Role(4)
	if role != RoleDone {
		t.Errorf("recovered slot role = %v", role)
	}

	// Let the original finish too so goroutines drain.
	_ = n1.WaitAll()
}

func TestRequestCheckpointErrors(t *testing.T) {
	_, _, n1, _ := rig(t)
	if _, err := n1.RequestCheckpoint(99); err == nil {
		t.Error("unknown slot must fail")
	}
	// A finished thread cannot be checkpointed.
	if _, err := n1.StartThread(0, &sumWork{Total: 10, Chunk: 10}, RoleLocal); err != nil {
		t.Fatal(err)
	}
	if err := n1.WaitAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.RequestCheckpoint(0); err == nil {
		t.Error("done slot must fail")
	}
}

func TestStartFromCheckpointValidates(t *testing.T) {
	_, _, n1, _ := rig(t)
	bad := &checkpoint.Checkpoint{Platform: "vax"}
	if _, err := n1.StartFromCheckpoint(5, &sumWork{Total: 10, Chunk: 10}, bad); err == nil {
		t.Error("invalid checkpoint accepted")
	}
}

func TestCheckpointDoesNotStopThread(t *testing.T) {
	_, home, n1, _ := rig(t)
	captured := make(chan struct{})
	var once sync.Once
	w := &sumWork{Total: 20000, Chunk: 100}
	w.hook = func(pc int64) {
		if pc == 3 {
			once.Do(func() {
				go func() {
					if _, err := n1.RequestCheckpoint(1); err != nil {
						t.Errorf("checkpoint: %v", err)
					}
					close(captured)
				}()
			})
		}
		if pc >= 3 {
			select {
			case <-captured:
			default:
				time.Sleep(2 * time.Millisecond)
			}
		}
	}
	if _, err := n1.StartThread(1, w, RoleLocal); err != nil {
		t.Fatal(err)
	}
	<-captured
	if err := n1.WaitAll(); err != nil {
		t.Fatal(err)
	}
	home.Wait()
	// The ORIGINAL thread finished normally after being checkpointed.
	if got, want := masterSum(t, home), int64(20000)*20001/2; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
}
