package hetdsm

import (
	"sync"
	"testing"
)

// TestFacadeCounter exercises the doc-comment example: two heterogeneous
// threads increment a shared counter under the distributed lock.
func TestFacadeCounter(t *testing.T) {
	gthv := Struct{Name: "GThV_t", Fields: []Field{
		{Name: "counter", T: Int()},
	}}
	home, err := NewHome(gthv, LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := home.LocalThread(0, SolarisSPARC, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := home.LocalThread(1, LinuxX86, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const per = 50
	var wg sync.WaitGroup
	for _, th := range []*Thread{a, b} {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			v := th.Globals().MustVar("counter")
			for i := 0; i < per; i++ {
				if err := th.Lock(0); err != nil {
					t.Error(err)
					return
				}
				x, err := v.Int(0)
				if err != nil {
					t.Error(err)
					return
				}
				if err := v.SetInt(0, x+1); err != nil {
					t.Error(err)
					return
				}
				if err := th.Unlock(0); err != nil {
					t.Error(err)
					return
				}
			}
			if err := th.Join(); err != nil {
				t.Error(err)
			}
		}(th)
	}
	wg.Wait()
	home.Wait()
	v, err := home.Globals().MustVar("counter").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2*per {
		t.Errorf("counter = %d, want %d", v, 2*per)
	}
}

func TestFacadeExperiment(t *testing.T) {
	for _, pair := range PlatformPairs() {
		res, err := RunExperiment(ExperimentConfig{
			Workload: "matmul", N: 16, Pair: pair, Verify: true, Seed: 9,
		})
		if err != nil {
			t.Fatalf("%s: %v", pair.Label, err)
		}
		if !res.Verified {
			t.Errorf("%s: not verified", pair.Label)
		}
	}
}

func TestFacadePlatformLookup(t *testing.T) {
	if PlatformByName("linux-x86") != LinuxX86 {
		t.Error("PlatformByName mismatch")
	}
	if len(Platforms()) != 4 {
		t.Errorf("Platforms() = %d, want 4", len(Platforms()))
	}
}

// TestFacadeMigIO smoke-tests the migratable-I/O exports: shared FS,
// descriptor tables across platforms, and resumable sessions.
func TestFacadeMigIO(t *testing.T) {
	fs := NewSharedFS()
	fs.WriteFile("/f", []byte("hello world"))
	tb := NewFileTable(fs)
	fd, err := tb.Open("/f", ModeRead)
	if err != nil {
		t.Fatal(err)
	}
	f, err := tb.File(fd)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := f.Read(buf); err != nil {
		t.Fatal(err)
	}
	img, tagStr, err := tb.Capture(LinuxX86)
	if err != nil {
		t.Fatal(err)
	}
	tb2, err := RestoreFileTable(fs, SolarisSPARC, LinuxX86.Name, tagStr, img)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := tb2.File(fd)
	if err != nil {
		t.Fatal(err)
	}
	rest := make([]byte, 6)
	if _, err := f2.Read(rest); err != nil {
		t.Fatal(err)
	}
	if string(rest) != " world" {
		t.Errorf("restored read = %q", rest)
	}

	nw := NewInproc()
	srv, err := NewSessionServer(nw, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		ss, err := srv.Accept()
		if err != nil {
			return
		}
		_ = ss.Send([]byte("ping"))
	}()
	c, err := DialSession(nw, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(p) != "ping" {
		t.Errorf("session recv = %q", p)
	}
}

// TestFacadeCheckpointAndTrace smoke-tests the checkpoint and trace
// exports through a tiny traced run.
func TestFacadeCheckpointAndTrace(t *testing.T) {
	log := NewEventRing(64)
	opts := DefaultOptions()
	opts.Events = log
	gthv := Struct{Name: "G", Fields: []Field{{Name: "x", T: Int()}}}
	home, err := NewHome(gthv, SolarisSPARC, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	th, err := home.LocalThread(0, LinuxX86, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Globals().MustVar("x").SetInt(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := th.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := th.Join(); err != nil {
		t.Fatal(err)
	}
	home.Wait()
	if log.Total() == 0 {
		t.Error("trace recorded nothing")
	}
	img, err := home.Image()
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{Platform: img.Platform, Globals: img.Image, GlobalsTag: img.Tag}
	loaded, err := DecodeCheckpoint(ck.Encode())
	if err != nil {
		t.Fatal(err)
	}
	restored, err := loaded.RestoreGlobals(gthv, LinuxX8664)
	if err != nil {
		t.Fatal(err)
	}
	if v := LinuxX8664.Int(restored, 4); v != 7 {
		t.Errorf("restored x = %d, want 7", v)
	}
}

// TestFacadeInvalidateProtocol smoke-tests the protocol export.
func TestFacadeInvalidateProtocol(t *testing.T) {
	opts := DefaultOptions()
	opts.Protocol = ProtocolInvalidate
	gthv := Struct{Name: "G", Fields: []Field{{Name: "x", T: Int()}}}
	home, err := NewHome(gthv, LinuxX86, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := home.LocalThread(0, SolarisSPARC, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := home.LocalThread(1, LinuxX86, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Protocol() != ProtocolInvalidate {
		t.Fatal("protocol not adopted")
	}
	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Globals().MustVar("x").SetInt(0, 9); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	v, err := b.Globals().MustVar("x").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 9 {
		t.Errorf("fetched x = %d", v)
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}
