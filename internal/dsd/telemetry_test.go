package dsd

import (
	"strings"
	"testing"

	"hetdsm/internal/flight"
	"hetdsm/internal/platform"
	"hetdsm/internal/telemetry"
)

// TestTelemetryEndToEnd runs a small heterogeneous workload with the
// full observability stack on and checks every promised signal comes
// out: operation histograms, release spans mergeable across sender and
// home with a consistent (rank, seq), and a page-heat report.
func TestTelemetryEndToEnd(t *testing.T) {
	reg := telemetry.New()
	homeSpans := flight.New(256)
	senderSpans := flight.New(256)

	homeOpts := DefaultOptions()
	homeOpts.Metrics = reg
	homeOpts.Events = homeSpans
	h, err := NewHome(testGThV(), platform.LinuxX86, 2, homeOpts)
	if err != nil {
		t.Fatal(err)
	}

	thOpts := DefaultOptions()
	thOpts.Metrics = reg
	thOpts.Events = senderSpans
	plats := []*platform.Platform{platform.SolarisSPARC, platform.LinuxX86}
	ths := make([]*Thread, len(plats))
	for i, p := range plats {
		if ths[i], err = h.LocalThread(int32(i), p, thOpts); err != nil {
			t.Fatal(err)
		}
	}

	// A couple of lock/write/unlock rounds plus a barrier, so every
	// instrumented operation fires at least once.
	for round := 0; round < 2; round++ {
		for i, th := range ths {
			if err := th.Lock(0); err != nil {
				t.Fatal(err)
			}
			arr := th.Globals().MustVar("A")
			for j := 0; j < 8; j++ {
				if err := arr.SetInt(j, int64(round*100+i*10+j+1)); err != nil {
					t.Fatal(err)
				}
			}
			if err := th.Unlock(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	done := make(chan error, len(ths))
	for _, th := range ths {
		go func(th *Thread) { done <- th.Barrier(0) }(th)
	}
	for range ths {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Histograms: lock acquire and barrier wait carry samples.
	if n := reg.Histogram("dsm_lock_acquire_seconds", "").Count(); n < 4 {
		t.Errorf("lock-acquire samples = %d, want >= 4", n)
	}
	if n := reg.Histogram("dsm_barrier_wait_seconds", "").Count(); n < 2 {
		t.Errorf("barrier-wait samples = %d, want >= 2", n)
	}
	if n := reg.Histogram("dsm_release_roundtrip_seconds", "").Count(); n < 4 {
		t.Errorf("release round-trips = %d, want >= 4", n)
	}
	if reg.Histogram("dsm_release_diff_bytes", "").Sum() <= 0 {
		t.Error("no diff bytes observed")
	}
	if reg.Histogram("dsm_frame_sent_bytes", "").Count() == 0 {
		t.Error("thread frame sizes not observed")
	}
	if reg.Counter("dsm_home_applies_total", "").Value() == 0 {
		t.Error("home applies not counted")
	}
	if reg.Histogram("dsm_home_lock_acquire_seconds", "").Count() == 0 {
		t.Error("home lock waits not observed")
	}

	// The Prometheus exposition includes the lock-acquire quantiles the
	// acceptance criteria name.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"dsm_lock_acquire_seconds_p50",
		"dsm_lock_acquire_seconds_p99",
		"dsm_barrier_wait_seconds_p95",
		"# TYPE dsm_release_roundtrip_seconds histogram",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("/metrics output missing %q", want)
		}
	}

	// Spans: sender and home logs merge into per-release timelines, and
	// at least one unlock release shows the full seven-stage pipeline.
	rels := telemetry.MergeTimeline(telemetry.Spans(senderSpans), telemetry.Spans(homeSpans))
	if len(rels) == 0 {
		t.Fatal("no merged releases")
	}
	full := 0
	stages := []string{
		telemetry.StageIndex, telemetry.StageTag, telemetry.StagePack, telemetry.StageShip,
		telemetry.StageUnpack, telemetry.StageConv, telemetry.StageApply,
	}
	for _, r := range rels {
		if r.Seq == 0 {
			t.Fatalf("release with zero seq: %+v", r)
		}
		complete := true
		for _, st := range stages {
			sp, ok := r.Stage(st)
			if !ok {
				complete = false
				continue
			}
			// Every span of the release carries the same id.
			if sp.Rank != r.Rank || sp.Seq != r.Seq {
				t.Errorf("span id (%d,%d) != release id (%d,%d)", sp.Rank, sp.Seq, r.Rank, r.Seq)
			}
		}
		if complete {
			full++
		}
	}
	if full == 0 {
		t.Errorf("no release with all stages %v; got %+v", stages, rels)
	}

	// Page heat: the written pages show up, and two threads' reports
	// merge into a cluster view.
	agg := ths[0].Heat()
	agg.Merge(ths[1].Heat())
	if agg.TotalFaults == 0 || len(agg.Pages) == 0 {
		t.Errorf("empty merged heat report: %+v", agg)
	}
	if agg.PageSize == 0 {
		t.Error("heat report lost its page size")
	}
}
