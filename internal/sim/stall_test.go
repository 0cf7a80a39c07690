package sim

import (
	"bytes"
	"strings"
	"testing"
)

// The stall family is pure timing: for a fixed seed the canonical per-rank
// trace under stall and dribble must be byte-identical to the clean run's —
// slow frames may move deadlines, never values.
func TestStallCanonicalMatchesClean(t *testing.T) {
	for _, seed := range []int64{1, 11, 42} {
		clean := Run(NewPlan(seed, ProfileClean, "SL"))
		if !clean.OK() {
			t.Fatalf("seed %d clean:\n%s", seed, clean.Report())
		}
		for _, prof := range []Profile{ProfileStall, ProfileDribble} {
			res := Run(NewPlan(seed, prof, "SL"))
			if !res.OK() {
				t.Fatalf("seed %d %s:\n%s", seed, prof, res.Report())
			}
			if !bytes.Equal(res.Canonical, clean.Canonical) {
				t.Fatalf("seed %d: %s trace diverged from clean:\n--- clean ---\n%s\n--- %s ---\n%s",
					seed, prof, clean.Canonical, prof, res.Canonical)
			}
			if len(res.FaultLog) == 0 {
				t.Fatalf("seed %d %s: no fault log entries", seed, prof)
			}
			last := res.FaultLog[len(res.FaultLog)-1]
			if !strings.Contains(last, "delayed") {
				t.Fatalf("seed %d %s: fault log missing delay summary: %q", seed, prof, last)
			}
		}
	}
}

// The stall profiles compose with the grammar workloads too: a chaos-mix
// trace on a homogeneous pair must still match its clean run for the same
// seed.
func TestStallGrammarCanonicalMatchesClean(t *testing.T) {
	mk := func(prof Profile) Plan {
		p := NewPlan(9, prof, "LL")
		p.Grammar = "chaos"
		return p
	}
	clean := Run(mk(ProfileClean))
	if !clean.OK() {
		t.Fatalf("chaos clean:\n%s", clean.Report())
	}
	for _, prof := range []Profile{ProfileStall, ProfileDribble} {
		res := Run(mk(prof))
		if !res.OK() {
			t.Fatalf("chaos %s:\n%s", prof, res.Report())
		}
		if !bytes.Equal(res.Canonical, clean.Canonical) {
			t.Fatalf("chaos %s trace diverged from clean", prof)
		}
	}
}

// The wedge profile freezes every rank's established conn mid-run under the
// armed deadline plane. Each rank must ride it out by severing and
// redialing, and since replays are deduplicated, the canonical trace must
// still match the clean run's.
func TestWedgeCanonicalMatchesClean(t *testing.T) {
	for _, seed := range []int64{1, 11, 42} {
		clean := Run(NewPlan(seed, ProfileClean, "SL"))
		if !clean.OK() {
			t.Fatalf("seed %d clean:\n%s", seed, clean.Report())
		}
		res := Run(NewPlan(seed, ProfileWedge, "SL"))
		if !res.OK() {
			t.Fatalf("seed %d wedge:\n%s", seed, res.Report())
		}
		if !bytes.Equal(res.Canonical, clean.Canonical) {
			t.Fatalf("seed %d: wedge trace diverged from clean:\n--- clean ---\n%s\n--- wedge ---\n%s",
				seed, clean.Canonical, res.Canonical)
		}
		if res.Reconnects < uint64(res.Plan.Threads) {
			t.Fatalf("seed %d: %d reconnects, want every one of %d ranks off its frozen conn:\n%s",
				seed, res.Reconnects, res.Plan.Threads, res.Report())
		}
	}
}
