package dsd

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hetdsm/internal/platform"
	"hetdsm/internal/stats"
	"hetdsm/internal/tag"
	"hetdsm/internal/trace"
	"hetdsm/internal/transport"
)

// testGThV is a small shared structure exercising pointers, arrays and
// scalars.
func testGThV() tag.Struct {
	return tag.Struct{
		Name: "GThV_t",
		Fields: []tag.Field{
			{Name: "GThP", T: tag.Pointer{}},
			{Name: "A", T: tag.IntArray(64)},
			{Name: "B", T: tag.IntArray(64)},
			{Name: "sum", T: tag.Int()},
			{Name: "d", T: tag.DoubleArray(8)},
		},
	}
}

// cluster builds a home plus one local thread per platform in plats, all
// over in-process pipes.
func cluster(t *testing.T, homePlat *platform.Platform, plats []*platform.Platform) (*Home, []*Thread) {
	t.Helper()
	h, err := NewHome(testGThV(), homePlat, len(plats), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	threads := make([]*Thread, len(plats))
	for i, p := range plats {
		th, err := h.LocalThread(int32(i), p, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		threads[i] = th
	}
	return h, threads
}

func TestLockUnlockPropagatesHeterogeneous(t *testing.T) {
	_, ths := cluster(t, platform.LinuxX86, []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86})
	a, b := ths[0], ths[1]

	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	sum := a.Globals().MustVar("sum")
	if err := sum.SetInt(0, -12345); err != nil {
		t.Fatal(err)
	}
	arr := a.Globals().MustVar("A")
	for i := 0; i < 10; i++ {
		if err := arr.SetInt(i, int64(i*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}

	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	got, err := b.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != -12345 {
		t.Errorf("sum at B = %d, want -12345 (endianness conversion broken?)", got)
	}
	bArr := b.Globals().MustVar("A")
	for i := 0; i < 10; i++ {
		v, err := bArr.Int(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64(i*i) {
			t.Errorf("A[%d] at B = %d, want %d", i, v, i*i)
		}
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestDoublePropagation(t *testing.T) {
	_, ths := cluster(t, platform.SolarisSPARC, []*platform.Platform{platform.LinuxX86, platform.SolarisSPARC})
	a, b := ths[0], ths[1]
	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	d := a.Globals().MustVar("d")
	if err := d.SetFloat64s(0, []float64{3.14159, -2.5, 1e-300, 1e300}); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	got, err := b.Globals().MustVar("d").Float64s(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3.14159, -2.5, 1e-300, 1e300}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("d[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestMutualExclusionCounter(t *testing.T) {
	plats := []*platform.Platform{
		platform.LinuxX86, platform.SolarisSPARC, platform.LinuxX86, platform.SolarisSPARC,
	}
	_, ths := cluster(t, platform.LinuxX86, plats)
	const perThread = 25
	var wg sync.WaitGroup
	errs := make(chan error, len(ths))
	for _, th := range ths {
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			sum := th.Globals().MustVar("sum")
			for i := 0; i < perThread; i++ {
				if err := th.Lock(0); err != nil {
					errs <- err
					return
				}
				v, err := sum.Int(0)
				if err != nil {
					errs <- err
					return
				}
				if err := sum.SetInt(0, v+1); err != nil {
					errs <- err
					return
				}
				if err := th.Unlock(0); err != nil {
					errs <- err
					return
				}
			}
			errs <- th.Join()
		}(th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// After all joins, the master copy holds the exact count: no lost
	// updates despite four heterogeneous writers.
	want := int64(perThread * len(ths))
	home := ths[0] // any thread could check; read master directly instead
	_ = home
	hG, err := hGlobalsSum(t, ths)
	if err != nil {
		t.Fatal(err)
	}
	if hG != want {
		t.Errorf("final counter = %d, want %d", hG, want)
	}
}

// hGlobalsSum reads the final counter through a fresh thread (which, as a
// late joiner, receives the full current state on its first acquire).
func hGlobalsSum(t *testing.T, ths []*Thread) (int64, error) {
	t.Helper()
	return readBack(ths[0])
}

func readBack(th *Thread) (int64, error) {
	if err := th.Lock(1); err != nil {
		return 0, err
	}
	v, err := th.Globals().MustVar("sum").Int(0)
	if err != nil {
		return 0, err
	}
	return v, th.Unlock(1)
}

func TestBarrierPropagation(t *testing.T) {
	plats := []*platform.Platform{platform.LinuxX86, platform.SolarisSPARC, platform.SolarisSPARC}
	_, ths := cluster(t, platform.LinuxX86, plats)
	var wg sync.WaitGroup
	errs := make(chan error, len(ths))
	for r, th := range ths {
		wg.Add(1)
		go func(r int, th *Thread) {
			defer wg.Done()
			a := th.Globals().MustVar("A")
			// Phase 1: each thread writes its slice of A.
			for i := r * 20; i < (r+1)*20; i++ {
				if err := a.SetInt(i, int64(1000+i)); err != nil {
					errs <- err
					return
				}
			}
			if err := th.Barrier(0); err != nil {
				errs <- err
				return
			}
			// Phase 2: every thread sees every slice.
			for i := 0; i < 60; i++ {
				v, err := a.Int(i)
				if err != nil {
					errs <- err
					return
				}
				if v != int64(1000+i) {
					errs <- fmt.Errorf("rank %d: A[%d] = %d, want %d", r, i, v, 1000+i)
					return
				}
			}
			errs <- th.Join()
		}(r, th)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestPointerTranslation(t *testing.T) {
	// Thread A (sparc, base X) stores the address of A[3]; thread B
	// (linux, different base) must read the address of ITS A[3].
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	optA := DefaultOptions()
	optA.Base = 0x70000000
	a, err := h.LocalThread(0, platform.SolarisSPARC, optA)
	if err != nil {
		t.Fatal(err)
	}
	optB := DefaultOptions()
	optB.Base = 0x20000000
	b, err := h.LocalThread(1, platform.LinuxX86, optB)
	if err != nil {
		t.Fatal(err)
	}

	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	aArr := a.Globals().MustVar("A")
	addr, err := aArr.Addr(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Globals().MustVar("GThP").SetPtr(0, addr); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}

	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	got, err := b.Globals().MustVar("GThP").Ptr(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Globals().MustVar("A").Addr(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("translated pointer = %#x, want %#x", got, want)
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestJoinReleasesWait(t *testing.T) {
	h, ths := cluster(t, platform.LinuxX86, []*platform.Platform{platform.LinuxX86, platform.SolarisSPARC})
	for _, th := range ths {
		if err := th.Join(); err != nil {
			t.Fatal(err)
		}
	}
	h.Wait() // must not hang
}

func TestLateJoinerReceivesFullState(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.LocalThread(0, platform.LinuxX86, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Globals().MustVar("sum").SetInt(0, 777); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	// A heterogeneous thread connects only now.
	late, err := h.LocalThread(2, platform.SolarisSPARC, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := late.Lock(0); err != nil {
		t.Fatal(err)
	}
	v, err := late.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 777 {
		t.Errorf("late joiner sees sum = %d, want 777", v)
	}
	if err := late.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	h, ths := cluster(t, platform.LinuxX86, []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86})
	a, b := ths[0], ths[1]
	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	arr := a.Globals().MustVar("A")
	vals := make([]int64, 64)
	for i := range vals {
		vals[i] = int64(i)
	}
	if err := arr.SetInts(0, vals); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}

	// The releasing thread paid index/tag/pack.
	for _, p := range []stats.Phase{stats.Index, stats.Tag, stats.Pack} {
		if a.Stats().Count(p) == 0 {
			t.Errorf("releasing thread has no %v samples", p)
		}
	}
	// The home paid unpack and conversion, and B paid unpack+conv on its
	// grant.
	if h.Stats().Bytes(stats.Conv) == 0 {
		t.Error("home recorded no conversion bytes")
	}
	if b.Stats().Bytes(stats.Conv) == 0 {
		t.Error("grantee recorded no conversion bytes")
	}
}

func TestTCPTransportEndToEnd(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var nw transport.TCP
	l, err := nw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	go h.Serve(l)

	a, err := Dial(nw, l.Addr(), platform.SolarisSPARC, 0, testGThV(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Dial(nw, l.Addr(), platform.LinuxX86, 1, testGThV(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Globals().MustVar("sum").SetInt(0, 42); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	v, err := b.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Errorf("over TCP: sum = %d, want 42", v)
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestAblationOptionsStillCorrect(t *testing.T) {
	for _, mode := range []struct {
		name string
		mod  func(*Options)
	}{
		{"no-coalesce", func(o *Options) { o.Coalesce = false }},
		{"no-whole-array", func(o *Options) { o.WholeArrayThreshold = 0 }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			opts := DefaultOptions()
			mode.mod(&opts)
			h, err := NewHome(testGThV(), platform.LinuxX86, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			a, err := h.LocalThread(0, platform.SolarisSPARC, opts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := h.LocalThread(1, platform.LinuxX86, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Lock(0); err != nil {
				t.Fatal(err)
			}
			arr := a.Globals().MustVar("A")
			for i := 0; i < 64; i += 3 { // strided writes: many spans
				if err := arr.SetInt(i, int64(7*i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := a.Unlock(0); err != nil {
				t.Fatal(err)
			}
			if err := b.Lock(0); err != nil {
				t.Fatal(err)
			}
			bArr := b.Globals().MustVar("A")
			for i := 0; i < 64; i += 3 {
				v, err := bArr.Int(i)
				if err != nil {
					t.Fatal(err)
				}
				if v != int64(7*i) {
					t.Errorf("%s: A[%d] = %d, want %d", mode.name, i, v, 7*i)
				}
			}
			if err := b.Unlock(0); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFlushPropagatesWithoutLock(t *testing.T) {
	_, ths := cluster(t, platform.LinuxX86, []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86})
	a, b := ths[0], ths[1]
	// Writes outside any critical section, then Flush.
	if err := a.Globals().MustVar("sum").SetInt(0, 99); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	v, err := b.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Errorf("after flush: sum = %d, want 99", v)
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestRankReregistrationAfterClose(t *testing.T) {
	// A migrated thread gives up its connection; the same rank must be
	// able to re-register from a different platform and see full state.
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.LocalThread(0, platform.LinuxX86, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Globals().MustVar("sum").SetInt(0, 31); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-register rank 0 from SPARC; may need a moment for the stub to
	// notice the close.
	var a2 *Thread
	for i := 0; i < 500; i++ {
		a2, err = h.LocalThread(0, platform.SolarisSPARC, DefaultOptions())
		if err == nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		t.Fatalf("re-registration never succeeded: %v", err)
	}
	if err := a2.Lock(0); err != nil {
		t.Fatal(err)
	}
	v, err := a2.Globals().MustVar("sum").Int(0)
	if err != nil {
		t.Fatal(err)
	}
	if v != 31 {
		t.Errorf("reincarnated thread sees sum = %d, want 31", v)
	}
	if err := a2.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestTracingRecordsProtocol(t *testing.T) {
	log := trace.NewLog(256)
	opts := DefaultOptions()
	opts.Trace = log
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.LocalThread(0, platform.SolarisSPARC, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.LocalThread(1, platform.LinuxX86, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	if err := a.Globals().MustVar("sum").SetInt(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for _, th := range []*Thread{a, b} {
		go func(th *Thread) {
			if err := th.Barrier(0); err != nil {
				done <- err
				return
			}
			done <- th.Join()
		}(th)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	h.Wait()

	if got := len(log.Filter(trace.KindHello)); got != 2 {
		t.Errorf("hello events = %d, want 2", got)
	}
	grants := log.Filter(trace.KindLockGrant)
	if len(grants) != 1 {
		t.Errorf("lock-grant events = %d, want 1", len(grants))
	}
	unlocks := log.Filter(trace.KindUnlock)
	if len(unlocks) != 1 || unlocks[0].Bytes == 0 {
		t.Errorf("unlock events = %v", unlocks)
	}
	if got := len(log.Filter(trace.KindBarrierArrive)); got != 2 {
		t.Errorf("barrier arrivals = %d, want 2", got)
	}
	if got := len(log.Filter(trace.KindBarrierOpen)); got != 1 {
		t.Errorf("barrier opens = %d, want 1", got)
	}
	if got := len(log.Filter(trace.KindJoin)); got != 2 {
		t.Errorf("joins = %d, want 2", got)
	}
	// B received A's update at some point: an apply with bytes on B's side.
	applied := false
	for _, e := range log.Filter(trace.KindApply) {
		if e.Rank == 1 && e.Bytes > 0 {
			applied = true
		}
	}
	if !applied {
		t.Error("no apply event recorded at thread B")
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := NewHome(testGThV(), platform.LinuxX86, 0, DefaultOptions()); err == nil {
		t.Error("zero threads must fail")
	}
	bad := DefaultOptions()
	bad.Base = 0
	if _, err := NewHome(testGThV(), platform.LinuxX86, 1, bad); err == nil {
		t.Error("zero base must fail")
	}
	bad = DefaultOptions()
	bad.Base = 4097 // unaligned
	if _, err := NewHome(testGThV(), platform.LinuxX86, 1, bad); err == nil {
		t.Error("unaligned base must fail")
	}
	bad = DefaultOptions()
	bad.WholeArrayThreshold = 2
	if _, err := NewHome(testGThV(), platform.LinuxX86, 1, bad); err == nil {
		t.Error("threshold > 1 must fail")
	}
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.LocalThread(0, platform.LinuxX86, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Duplicate rank is rejected by the home: the handshake fails and the
	// pipe closes.
	if _, err := h.LocalThread(0, platform.LinuxX86, DefaultOptions()); err == nil {
		t.Error("duplicate rank must fail")
	}
}

func TestUnknownHomePlatformRejected(t *testing.T) {
	h, err := NewHome(testGThV(), platform.LinuxX86, 1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// A platform not registered in platform.ByName: the home cannot build
	// a table for it and must reject the hello.
	exotic := platform.New("vax", "V", platform.Little, platform.ILP32, 4096, true)
	if _, err := h.LocalThread(0, exotic, DefaultOptions()); err == nil {
		t.Error("unknown platform must be rejected")
	}
}

func TestUnsignedAccessors(t *testing.T) {
	gthv := tag.Struct{Name: "G", Fields: []tag.Field{
		{Name: "u", T: tag.Scalar{T: platform.CUInt}},
	}}
	h, err := NewHome(gthv, platform.LinuxX86, 2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a, err := h.LocalThread(0, platform.SolarisSPARC, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.LocalThread(1, platform.LinuxX86, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Lock(0); err != nil {
		t.Fatal(err)
	}
	u := a.Globals().MustVar("u")
	if err := u.SetUint(0, 0xFFFF0001); err != nil {
		t.Fatal(err)
	}
	if got, _ := u.Uint(0); got != 0xFFFF0001 {
		t.Errorf("local Uint = %#x", got)
	}
	if err := a.Unlock(0); err != nil {
		t.Fatal(err)
	}
	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	// Conversion of the unsigned value across endianness is exact and
	// does NOT sign-extend.
	got, err := b.Globals().MustVar("u").Uint(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0xFFFF0001 {
		t.Errorf("converted Uint = %#x, want 0xFFFF0001", got)
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalsAccessorErrors(t *testing.T) {
	_, ths := cluster(t, platform.LinuxX86, []*platform.Platform{platform.LinuxX86})
	g := ths[0].Globals()
	if _, err := g.Var("missing"); err == nil {
		t.Error("unknown var must fail")
	}
	a := g.MustVar("A")
	if err := a.SetInt(64, 1); err == nil {
		t.Error("out-of-range index must fail")
	}
	if _, err := a.Int(-1); err == nil {
		t.Error("negative index must fail")
	}
	if err := a.SetInts(60, make([]int64, 10)); err == nil {
		t.Error("overflowing bulk write must fail")
	}
	if _, err := a.Float64(0); err == nil {
		t.Error("Float64 on int var must fail")
	}
	if err := a.SetPtr(0, 1); err == nil {
		t.Error("SetPtr on int var must fail")
	}
	p := g.MustVar("GThP")
	if _, err := p.Ptr(0); err != nil {
		t.Errorf("Ptr on pointer var: %v", err)
	}
	if a.Len() != 64 || a.Name() != "A" || a.ElemSize() != 4 {
		t.Errorf("metadata wrong: %d %s %d", a.Len(), a.Name(), a.ElemSize())
	}
}

// TestKitchenSinkTypes propagates every supported C scalar type across
// every heterogeneous pairing in one shared structure.
func TestKitchenSinkTypes(t *testing.T) {
	gthv := tag.Struct{Name: "GThV_t", Fields: []tag.Field{
		{Name: "c", T: tag.Char()},
		{Name: "s", T: tag.Scalar{T: platform.CShort}},
		{Name: "i", T: tag.Int()},
		{Name: "u", T: tag.Scalar{T: platform.CUInt}},
		{Name: "l", T: tag.Long()},
		{Name: "ll", T: tag.LongLong()},
		{Name: "f", T: tag.Scalar{T: platform.CFloat}},
		{Name: "d", T: tag.Double()},
		{Name: "p", T: tag.Pointer{}},
		{Name: "ca", T: tag.Array{Elem: tag.Char(), N: 13}},
		{Name: "da", T: tag.DoubleArray(5)},
	}}
	plats := platform.All()
	for _, homePlat := range plats {
		for _, remotePlat := range plats {
			h, err := NewHome(gthv, homePlat, 2, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			a, err := h.LocalThread(0, remotePlat, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			b, err := h.LocalThread(1, homePlat, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Lock(0); err != nil {
				t.Fatal(err)
			}
			g := a.Globals()
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s->%s: %v", remotePlat, homePlat, err)
				}
			}
			must(g.MustVar("c").SetInt(0, -7))
			must(g.MustVar("s").SetInt(0, -30000))
			must(g.MustVar("i").SetInt(0, -2000000000))
			must(g.MustVar("u").SetUint(0, 0xFEDCBA98))
			must(g.MustVar("l").SetInt(0, -123456)) // fits ILP32 long
			must(g.MustVar("ll").SetInt(0, -9e15))
			must(g.MustVar("f").SetFloat32(0, 1.5))
			must(g.MustVar("d").SetFloat64(0, -2.25e100))
			for k, ch := range "hello, world" {
				must(g.MustVar("ca").SetInt(k, int64(ch)))
			}
			must(g.MustVar("da").SetFloat64s(0, []float64{1, -2, 4e-300, 8e300, 0}))
			must(a.Unlock(0))

			must(b.Lock(0))
			gb := b.Globals()
			check := func(name string, got, want interface{}) {
				t.Helper()
				if got != want {
					t.Errorf("%s->%s: %s = %v, want %v", remotePlat, homePlat, name, got, want)
				}
			}
			vi, _ := gb.MustVar("c").Int(0)
			check("c", vi, int64(-7))
			vi, _ = gb.MustVar("s").Int(0)
			check("s", vi, int64(-30000))
			vi, _ = gb.MustVar("i").Int(0)
			check("i", vi, int64(-2000000000))
			vu, _ := gb.MustVar("u").Uint(0)
			check("u", vu, uint64(0xFEDCBA98))
			vi, _ = gb.MustVar("l").Int(0)
			check("l", vi, int64(-123456))
			vi, _ = gb.MustVar("ll").Int(0)
			check("ll", vi, int64(-9e15))
			vf, _ := gb.MustVar("f").Float32(0)
			check("f", vf, float32(1.5))
			vd, _ := gb.MustVar("d").Float64(0)
			check("d", vd, -2.25e100)
			for k, ch := range "hello, world" {
				vi, _ = gb.MustVar("ca").Int(k)
				check("ca", vi, int64(ch))
			}
			ds, err := gb.MustVar("da").Float64s(0, 5)
			must(err)
			for k, want := range []float64{1, -2, 4e-300, 8e300, 0} {
				check("da", ds[k], want)
			}
			must(b.Unlock(0))
		}
	}
}

// TestBatchUpdateBuildup validates the mechanism behind the paper's Figure
// 9 spike: "a series of updates can build up at the home node, resulting in
// a rather large batch update being transferred". One thread releases many
// times while another stays away; the absentee's next grant arrives as one
// merged batch.
func TestBatchUpdateBuildup(t *testing.T) {
	_, ths := cluster(t, platform.LinuxX86, []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86})
	a, b := ths[0], ths[1]
	// A performs many small critical sections.
	arr := a.Globals().MustVar("A")
	for round := 0; round < 16; round++ {
		if err := a.Lock(0); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 4; k++ {
			if err := arr.SetInt(round*4+k, int64(round*100+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Unlock(0); err != nil {
			t.Fatal(err)
		}
	}
	// B's single acquire receives the whole accumulation, coalesced.
	beforeConv := b.Stats().Bytes(stats.Conv)
	beforeCount := b.Stats().Count(stats.Conv)
	if err := b.Lock(0); err != nil {
		t.Fatal(err)
	}
	batchBytes := b.Stats().Bytes(stats.Conv) - beforeConv
	batchApplies := b.Stats().Count(stats.Conv) - beforeCount
	if batchBytes < 64*4 {
		t.Errorf("batch only %d bytes; 16 rounds x 16 bytes expected", batchBytes)
	}
	if batchApplies != 1 {
		t.Errorf("batch arrived in %d applications, want 1 merged grant", batchApplies)
	}
	for i := 0; i < 64; i++ {
		v, err := b.Globals().MustVar("A").Int(i)
		if err != nil {
			t.Fatal(err)
		}
		if v != int64((i/4)*100+i%4) {
			t.Errorf("A[%d] = %d", i, v)
		}
	}
	if err := b.Unlock(0); err != nil {
		t.Fatal(err)
	}
}
