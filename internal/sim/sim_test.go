package sim

import (
	"bytes"
	"context"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

// TestRunCleanProfile is the first smoke test: a homogeneous clean run
// must validate with zero violations.
func TestRunCleanProfile(t *testing.T) {
	res := Run(NewPlan(1, ProfileClean, "LL"))
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("clean run flagged:\n%s", res.Report())
	}
	if res.Events == 0 {
		t.Fatal("no events recorded")
	}
}

// TestRunHeterogeneousMixes runs each standard mix once on the clean
// profile; heterogeneous mixes route every value through internal/convert.
func TestRunHeterogeneousMixes(t *testing.T) {
	for _, mix := range Mixes() {
		mix := mix
		t.Run(mix, func(t *testing.T) {
			t.Parallel()
			res := Run(NewPlan(2, ProfileClean, mix))
			if !res.OK() {
				t.Fatalf("mix %s:\n%s", mix, res.Report())
			}
		})
	}
}

// TestRunFaultProfiles exercises each fault schedule once. The run's event
// ring must hold every event it recorded: a wrapped ring would make the
// trace cross-check vacuous.
func TestRunFaultProfiles(t *testing.T) {
	for _, prof := range Profiles() {
		prof := prof
		t.Run(string(prof), func(t *testing.T) {
			res := Run(NewPlan(3, prof, "SL"))
			if !res.OK() {
				t.Fatalf("profile %s:\n%s", prof, res.Report())
			}
			if res.Dropped != 0 {
				t.Fatalf("profile %s: event ring dropped %d events", prof, res.Dropped)
			}
		})
	}
}

// TestRunReplayIsByteIdentical is the determinism guarantee: the same
// plan run twice yields byte-identical canonical event traces, even on a
// fault profile where wall-clock timing varies run to run.
func TestRunReplayIsByteIdentical(t *testing.T) {
	for _, prof := range []Profile{ProfileClean, ProfilePartition} {
		prof := prof
		t.Run(string(prof), func(t *testing.T) {
			plan := NewPlan(7, prof, "Lsl")
			a := Run(plan)
			if !a.OK() {
				t.Fatalf("first run:\n%s", a.Report())
			}
			b := Run(plan)
			if !b.OK() {
				t.Fatalf("second run:\n%s", b.Report())
			}
			if !bytes.Equal(a.Canonical, b.Canonical) {
				t.Fatalf("replay diverged:\n--- first ---\n%s\n--- second ---\n%s", a.Canonical, b.Canonical)
			}
		})
	}
}

// TestRunSeedSweepShort is the short-mode sweep wired into go test: 8
// seeds across rotating profiles and mixes, all expected clean.
func TestRunSeedSweepShort(t *testing.T) {
	profiles := Profiles()
	mixes := Mixes()
	for seed := int64(0); seed < 8; seed++ {
		plan := NewPlan(seed, profiles[seed%int64(len(profiles))], mixes[seed%int64(len(mixes))])
		res := Run(plan)
		if !res.OK() {
			t.Errorf("seed sweep:\n%s", res.Report())
		}
	}
}

// TestRunNegativeModeIsDetected injects wire corruption and asserts the
// checker flags the run — the oracle's own test.
func TestRunNegativeModeIsDetected(t *testing.T) {
	plan := NewPlan(5, ProfileClean, "LL")
	plan.Negative = true
	res := Run(plan)
	if res.Err != nil {
		t.Fatalf("negative run failed to complete: %v", res.Err)
	}
	if res.Corrupted == 0 {
		t.Fatal("negative mode corrupted no frames")
	}
	if len(res.Violations) == 0 {
		t.Fatalf("corrupted run validated clean — the oracle is broken:\n%s", res.Report())
	}
	v := res.Violations[0]
	if len(v.Trace) == 0 {
		t.Fatalf("violation carries no minimized trace: %s", v)
	}
}

// TestRunNegativeRequiresClean rejects negative mode on fault profiles.
func TestRunNegativeRequiresClean(t *testing.T) {
	plan := NewPlan(1, ProfileFlaky, "LL")
	plan.Negative = true
	if res := Run(plan); res.Err == nil {
		t.Fatal("negative+flaky accepted")
	}
}

// TestRunLeavesNoGoroutines: Run tears its whole deployment down before it
// returns, on every profile (migrate at its default 4 shards). A serving
// goroutine left parked on a conn pins the run's home, its options and
// their 2^16-entry trace and span rings, so a sweep would grow with its
// seed count.
func TestRunLeavesNoGoroutines(t *testing.T) {
	for _, prof := range Profiles() {
		before := runtime.NumGoroutine()
		res := Run(NewPlan(1, prof, "SL"))
		if !res.OK() {
			t.Fatalf("%s:\n%s", prof, res.Report())
		}
		deadline := time.Now().Add(100 * time.Millisecond)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<20)
			t.Errorf("%s: %d goroutine(s) outlived Run:\n%s", prof, n-before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestAwaitGoroutines: the run-label wait sees goroutines started under
// the label, transitively, and only those.
func TestAwaitGoroutines(t *testing.T) {
	release := make(chan struct{})
	pprof.Do(context.Background(), pprof.Labels(runLabel, "test"), func(context.Context) {
		go func() {
			go func() { <-release }()
			<-release
		}()
	})
	if err := awaitGoroutines("test", 20*time.Millisecond); err == nil {
		t.Fatal("wait ignored live labelled goroutines")
	}
	if err := awaitGoroutines("tes", time.Millisecond); err != nil {
		t.Fatalf("a label prefix matched: %v", err)
	}
	close(release)
	if err := awaitGoroutines("test", 5*time.Second); err != nil {
		t.Fatal(err)
	}
}
