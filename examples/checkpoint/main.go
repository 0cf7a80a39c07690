// Heterogeneous crash recovery: a computation is checkpointed mid-run into
// a single portable blob — thread frame, logical PC and the full globals
// image, each tagged with CGT-RMR — the whole cluster is destroyed, and
// the blob restores onto the OPPOSITE architecture, which finishes the job
// with the exact result.
//
// Run with: go run ./examples/checkpoint
package main

import (
	"bytes"
	"fmt"
	"log"
	"sync"
	"time"

	"hetdsm"
)

// piWork approximates pi with the Leibniz series in chunks; its loop state
// (term index and accumulator) lives in the migratable frame.
type piWork struct {
	Terms int64
	Chunk int64
	hook  func(pc int64)
}

func (w *piWork) FrameType() hetdsm.Struct {
	return hetdsm.Struct{Name: "frame", Fields: []hetdsm.Field{
		{Name: "k", T: hetdsm.LongLong()},
		{Name: "acc", T: hetdsm.Double()},
	}}
}

func (w *piWork) Init(ctx *hetdsm.Ctx) error {
	if err := ctx.Frame().SetInt("k", 0); err != nil {
		return err
	}
	return ctx.Frame().SetFloat64("acc", 0)
}

func (w *piWork) Step(ctx *hetdsm.Ctx) (bool, error) {
	f := ctx.Frame()
	k, err := f.Int("k")
	if err != nil {
		return false, err
	}
	acc, err := f.Float64("acc")
	if err != nil {
		return false, err
	}
	for i := int64(0); i < w.Chunk && k < w.Terms; i++ {
		term := 1.0 / float64(2*k+1)
		if k%2 == 1 {
			term = -term
		}
		acc += term
		k++
	}
	if err := f.SetInt("k", k); err != nil {
		return false, err
	}
	if err := f.SetFloat64("acc", acc); err != nil {
		return false, err
	}
	if w.hook != nil {
		w.hook(ctx.PC())
	}
	if k < w.Terms {
		return false, nil
	}
	if err := ctx.T.Lock(0); err != nil {
		return false, err
	}
	if err := ctx.T.Globals().MustVar("pi").SetFloat64(0, 4*acc); err != nil {
		return false, err
	}
	if err := ctx.T.Unlock(0); err != nil {
		return false, err
	}
	return true, nil
}

func main() {
	gthv := hetdsm.Struct{Name: "GThV_t", Fields: []hetdsm.Field{
		{Name: "pi", T: hetdsm.Double()},
	}}
	const terms, chunk = 40_000_000, 200_000

	// --- phase 1: run on a little-endian x86 cluster, checkpoint mid-way.
	nw := hetdsm.NewInproc()
	home, err := hetdsm.NewHome(gthv, hetdsm.LinuxX86, 1, hetdsm.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	l, err := nw.Listen("home")
	if err != nil {
		log.Fatal(err)
	}
	go home.Serve(l)

	node := hetdsm.NewNode("x86-box", hetdsm.LinuxX86, nw, "home", gthv, hetdsm.DefaultOptions())
	captured := make(chan *hetdsm.Checkpoint, 1)
	var once sync.Once
	w := &piWork{Terms: terms, Chunk: chunk}
	w.hook = func(pc int64) {
		if pc >= 50 {
			once.Do(func() {
				go func() {
					ck, err := node.RequestCheckpoint(0)
					if err != nil {
						log.Fatal(err)
					}
					captured <- ck
				}()
			})
		}
		if pc >= 50 {
			select {
			case <-captured:
				// re-buffer below; just pace until capture lands
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}
	if _, err := node.StartThread(0, w, hetdsm.RoleLocal); err != nil {
		log.Fatal(err)
	}
	ck := <-captured
	captured <- ck // restore for the pacing select above
	img, err := home.Image()
	if err != nil {
		log.Fatal(err)
	}
	ck.Globals, ck.GlobalsTag = img.Image, img.Tag
	var blob bytes.Buffer
	if err := ck.Save(&blob); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpointed on %s at step %d: %d-byte blob (frame %dB + globals %dB, CRC-framed)\n",
		ck.Platform, ck.PC, blob.Len(), len(ck.Frame), len(ck.Globals))

	// --- phase 2: the machine "dies".
	home.Close()
	fmt.Println("x86 cluster destroyed; recovering on big-endian SPARC from the blob ...")

	// --- phase 3: restore on the opposite architecture and finish.
	loaded, err := hetdsm.LoadCheckpoint(&blob)
	if err != nil {
		log.Fatal(err)
	}
	nw2 := hetdsm.NewInproc()
	home2, err := hetdsm.NewHome(gthv, hetdsm.SolarisSPARC, 1, hetdsm.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	// The blob carries the globals half of the home's image; Restore adopts
	// only the master copy, so the rest of the image stays empty.
	if err := home2.Restore(&hetdsm.HomeImage{
		Platform: loaded.Platform, Base: hetdsm.DefaultOptions().Base,
		Image: loaded.Globals, Tag: loaded.GlobalsTag, Nthreads: 1,
	}); err != nil {
		log.Fatal(err)
	}
	l2, err := nw2.Listen("home")
	if err != nil {
		log.Fatal(err)
	}
	go home2.Serve(l2)
	defer home2.Close()

	node2 := hetdsm.NewNode("sparc-box", hetdsm.SolarisSPARC, nw2, "home", gthv, hetdsm.DefaultOptions())
	if _, err := node2.StartFromCheckpoint(0, &piWork{Terms: terms, Chunk: chunk}, loaded); err != nil {
		log.Fatal(err)
	}
	if err := node2.WaitAll(); err != nil {
		log.Fatal(err)
	}
	home2.Wait()

	got, err := home2.Globals().MustVar("pi").Float64(0)
	if err != nil {
		log.Fatal(err)
	}
	// Reference: the same series computed in one piece.
	ref := 0.0
	for k := int64(0); k < terms; k++ {
		term := 1.0 / float64(2*k+1)
		if k%2 == 1 {
			term = -term
		}
		ref += term
	}
	ref *= 4
	fmt.Printf("pi after recovery: %.12f (reference %.12f, bit-identical: %v)\n",
		got, ref, got == ref)
}
