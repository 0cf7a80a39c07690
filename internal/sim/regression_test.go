package sim

import (
	"bytes"
	"fmt"
	"path/filepath"
	"testing"
)

// corpusPath is the checked-in regression corpus TestRegressionSeeds
// replays and the dsmsim sweeper appends to.
var corpusPath = filepath.Join("testdata", "regression_seeds.json")

// TestRegressionSeeds replays every plan in the regression corpus — seeds
// that once exposed real bugs — and requires each to validate clean AND
// replay byte-identically. The corpus is append-only: minimizing a new
// failure means adding an entry (the sweeper does it automatically), so
// the bug's exact schedule stays under test forever.
func TestRegressionSeeds(t *testing.T) {
	entries, err := LoadCorpus(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("regression_seeds.json holds no entries")
	}
	for i, e := range entries {
		name := fmt.Sprintf("%d_seed%d_%s_%s", i, e.Seed, e.Profile, e.Mix)
		if e.Grammar != "" {
			name += "_" + e.Grammar
		}
		e := e
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			plan := e.Plan()
			a := Run(plan)
			if !a.OK() {
				t.Errorf("regression seed resurfaced:\n%s", a.Report())
			}
			if a.Dropped != 0 {
				t.Errorf("event ring dropped %d events: the trace cross-check was vacuous", a.Dropped)
			}
			b := Run(plan)
			if !bytes.Equal(a.Canonical, b.Canonical) {
				t.Errorf("replay of %s diverged from its first run", plan)
			}
		})
	}
}

// TestCorpusAppendRoundTrip is the oracle-to-corpus acceptance path: a
// negative-mode run (seeded wire corruption) must produce a violation, the
// sweeper's EntryForResult must capture it as a corpus entry, and
// replaying the reloaded entry must reproduce both the violation and the
// byte-identical canonical trace.
func TestCorpusAppendRoundTrip(t *testing.T) {
	plan := NewPlan(3, ProfileClean, "SL")
	plan.Negative = true
	res := Run(plan)
	if res.Err != nil {
		t.Fatalf("negative run errored instead of validating: %v", res.Err)
	}
	if len(res.Violations) == 0 || res.Corrupted == 0 {
		t.Fatalf("negative run produced no violation (%d corrupted frames):\n%s", res.Corrupted, res.Report())
	}

	path := filepath.Join(t.TempDir(), "regression_seeds.json")
	entry := EntryForResult(res)
	if entry.Note == "" || len(entry.Trace) == 0 {
		t.Errorf("corpus entry lost the violation context: note=%q trace=%d lines", entry.Note, len(entry.Trace))
	}
	added, err := AppendCorpus(path, entry)
	if err != nil || !added {
		t.Fatalf("appending the violation: added=%v err=%v", added, err)
	}
	// Idempotent: the same plan never lands twice.
	added, err = AppendCorpus(path, entry)
	if err != nil || added {
		t.Fatalf("duplicate plan was appended: added=%v err=%v", added, err)
	}

	entries, err := LoadCorpus(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("corpus holds %d entries, want 1", len(entries))
	}
	replay := Run(entries[0].Plan())
	if replay.Err != nil || len(replay.Violations) == 0 {
		t.Fatalf("corpus replay lost the violation:\n%s", replay.Report())
	}
	if !bytes.Equal(replay.Canonical, res.Canonical) {
		t.Error("corpus replay's canonical trace diverged from the original run")
	}
}

// TestCorpusEntryPlanFidelity pins that a grammar plan survives the
// entry round trip field-for-field.
func TestCorpusEntryPlanFidelity(t *testing.T) {
	plan := NewPlan(11, ProfileFlaky, "Lsl")
	plan.Grammar = "chaos"
	plan.Locks = 5
	plan.Threads = 4
	plan.Steps = 30
	e := EntryForResult(Result{Plan: plan.withDefaults()})
	if got, want := e.Plan().withDefaults(), plan.withDefaults(); got != want {
		t.Errorf("plan did not survive the corpus round trip:\n got %+v\nwant %+v", got, want)
	}
}
