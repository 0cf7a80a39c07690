package dsd

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"hetdsm/internal/platform"
	"hetdsm/internal/wire"
)

// busyHome builds a 3-thread home on p whose every image field is
// non-trivial: a dirty master including a pointer member, mutex 3 held by
// rank 0, rank 2 joined, rank 0's applied watermark past its release
// watermark, and a catch-up span pending for rank 1.
func busyHome(t *testing.T, p, remote *platform.Platform) *Home {
	t.Helper()
	opts := DefaultOptions()
	h, err := NewHome(testGThV(), p, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ths [3]*Thread
	for rank, tp := range []*platform.Platform{remote, p, remote} {
		if ths[rank], err = h.LocalThread(int32(rank), tp, opts); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(ths))
	for _, th := range ths {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			errs <- th.Barrier(0)
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := ths[2].Join(); err != nil {
		t.Fatal(err)
	}
	a := ths[0]
	g := a.Globals()
	target, err := g.MustVar("A").Addr(5)
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		a.Lock(0),
		g.MustVar("GThP").SetPtr(0, target),
		g.MustVar("A").SetInt(5, -12345),
		g.MustVar("sum").SetInt(0, 1<<20),
		g.MustVar("d").SetFloat64(2, 6.5),
		a.Unlock(0),
		a.Lock(3),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	return h
}

// viaWire pushes an image through the replication codec, as every route out
// of the process does.
func viaWire(t *testing.T, img *wire.HomeImage) *wire.HomeImage {
	t.Helper()
	rec, err := wire.DecodeReplication(wire.EncodeReplication(&wire.Replication{Event: wire.RepInit, Home: img}))
	if err != nil {
		t.Fatal(err)
	}
	return rec.Home
}

// portable renders everything in an image that must survive a platform
// change unchanged: all of it except the master's representation.
func portable(img *wire.HomeImage) string {
	c := *img
	c.Platform, c.Base, c.Image, c.Tag = "", 0, nil, ""
	return fmt.Sprintf("%+v", c)
}

// checkGlobals reads the master through the typed view; the pointer member
// must point at A[5] in this home's own address space.
func checkGlobals(t *testing.T, h *Home) {
	t.Helper()
	g := h.Globals()
	if v, err := g.MustVar("A").Int(5); err != nil || v != -12345 {
		t.Errorf("%s: A[5] = %d (%v), want -12345", h.Platform(), v, err)
	}
	if v, err := g.MustVar("sum").Int(0); err != nil || v != 1<<20 {
		t.Errorf("%s: sum = %d (%v), want %d", h.Platform(), v, err, 1<<20)
	}
	if v, err := g.MustVar("d").Float64(2); err != nil || v != 6.5 {
		t.Errorf("%s: d[2] = %g (%v), want 6.5", h.Platform(), v, err)
	}
	want, _ := g.MustVar("A").Addr(5)
	if v, err := g.MustVar("GThP").Ptr(0); err != nil || v != want {
		t.Errorf("%s: GThP = %#x (%v), want &A[5] = %#x", h.Platform(), v, err, want)
	}
}

// TestImageRoundTripAcrossPlatforms is the property the single HomeImage
// exists for: capture, encode, decode and rebuild on any other platform,
// then the same again back, and nothing but the master's byte
// representation changes.
func TestImageRoundTripAcrossPlatforms(t *testing.T) {
	for _, src := range platform.All() {
		for _, dst := range platform.All() {
			if src == dst {
				continue
			}
			t.Run(src.Name+"->"+dst.Name, func(t *testing.T) {
				h := busyHome(t, src, dst)
				defer h.Close()
				img1, err := h.Image()
				if err != nil {
					t.Fatal(err)
				}
				if len(img1.Held) != 1 || len(img1.Joined) != 1 || len(img1.Pending[1]) == 0 ||
					img1.Applied[0] <= img1.Released[0] || img1.Released[0] == 0 {
					t.Fatalf("source image is not busy enough: %s", portable(img1))
				}
				checkGlobals(t, h)

				there, err := NewHomeFromImage(testGThV(), dst, DefaultOptions(), viaWire(t, img1))
				if err != nil {
					t.Fatal(err)
				}
				defer there.Close()
				checkGlobals(t, there)
				img2, err := there.Image()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := portable(img2), portable(img1); got != want {
					t.Errorf("state changed on the way to %s:\n got %s\nwant %s", dst, got, want)
				}

				back, err := NewHomeFromImage(testGThV(), src, DefaultOptions(), viaWire(t, img2))
				if err != nil {
					t.Fatal(err)
				}
				defer back.Close()
				checkGlobals(t, back)
				img3, err := back.Image()
				if err != nil {
					t.Fatal(err)
				}
				if got, want := portable(img3), portable(img1); got != want {
					t.Errorf("state changed on the way back to %s:\n got %s\nwant %s", src, got, want)
				}
				if !bytes.Equal(img3.Image, img1.Image) {
					t.Errorf("master image differs after the round trip through %s", dst)
				}
			})
		}
	}
}
