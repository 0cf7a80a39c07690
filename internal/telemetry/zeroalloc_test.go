package telemetry

import (
	"testing"
	"time"

	"hetdsm/internal/flight"
)

// TestDisabledPathZeroAlloc pins the central promise of the package: a
// node built without -metrics-addr holds nil handles everywhere, and
// every operation on them is a no-op that allocates nothing.
func TestDisabledPathZeroAlloc(t *testing.T) {
	var (
		r *Registry
		c *Counter
		g *Gauge
		h *Histogram
		l *flight.Ring
	)
	start := time.Unix(0, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(1)
		h.Observe(0.001)
		l.Note("n", flight.KindLockGrant, 1, 0, 64, "")
		l.Span("n", StageShip, 1, 1, 0xbeef, 0x77, start, time.Millisecond, 64)
		_ = c.Value()
		_ = h.Quantile(0.99)
	})
	if allocs != 0 {
		t.Errorf("disabled handles allocated %v per op set, want 0", allocs)
	}
	// Handing out handles from a nil registry is also free.
	allocs = testing.AllocsPerRun(1000, func() {
		_ = r.Counter("x", "")
		_ = r.Histogram("x", "")
	})
	if allocs != 0 {
		t.Errorf("nil registry handle creation allocated %v, want 0", allocs)
	}
}

// TestEnabledObserveLockFree guards the hot path on the enabled side:
// counter increments and histogram observations stay allocation-free.
func TestEnabledObserveLockFree(t *testing.T) {
	r := New()
	c := r.Counter("x_total", "")
	h := r.Histogram("x_seconds", "")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		h.Observe(0.002)
	})
	if allocs != 0 {
		t.Errorf("enabled Observe/Inc allocated %v per run, want 0", allocs)
	}
}

// TestEnabledEventsZeroAlloc guards the installed event ring: recording
// every kind of moment and every release stage's span allocates nothing,
// so turning the ring on never adds garbage to the hot path.
func TestEnabledEventsZeroAlloc(t *testing.T) {
	r := flight.New(256)
	start := time.Unix(0, 0)
	stages := []string{StageIndex, StageTag, StagePack, StageShip, StageUnpack, StageConv,
		StageApply, StageWAL, StageReplicate}
	allocs := testing.AllocsPerRun(1000, func() {
		for k := flight.KindHello; k < flight.KindSpan; k++ {
			r.Note("home@linux-x86", k, 1, 2, 64, "solaris-sparc")
		}
		for _, st := range stages {
			r.Span("rank-1@linux-x86", st, 1, 9, 0xbeef, 0x77, start, time.Millisecond, 64)
		}
	})
	if allocs != 0 {
		t.Errorf("installed ring allocated %v per event set, want 0", allocs)
	}
}
