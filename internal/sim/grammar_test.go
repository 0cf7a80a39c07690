package sim

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestGrammarDeterminism pins that identical seeds compile byte-identical
// programs for every builtin mix — the replay guarantee starts at the
// compiler.
func TestGrammarDeterminism(t *testing.T) {
	for _, name := range GrammarMixes() {
		m, err := MixByName(name)
		if err != nil {
			t.Fatalf("builtin mix %q failed to resolve: %v", name, err)
		}
		plan := NewPlan(7, ProfileClean, "SL")
		plan.Grammar = name
		plan = plan.withDefaults()
		lay := layoutFor(plan, m)
		p1 := compileProgram(plan, m, lay, rand.New(rand.NewSource(plan.Seed)))
		p2 := compileProgram(plan, m, lay, rand.New(rand.NewSource(plan.Seed)))
		if !reflect.DeepEqual(p1, p2) {
			t.Errorf("mix %q: two compiles of the same seed differ", name)
		}
	}
}

// TestGrammarMixesValidate runs every builtin mix clean on a heterogeneous
// platform mix and requires zero violations and byte-identical replay —
// every action the grammar can emit is validated by the checker.
func TestGrammarMixesValidate(t *testing.T) {
	for _, name := range GrammarMixes() {
		for _, pm := range []string{"SL", "Lsl"} {
			name, pm := name, pm
			t.Run(name+"_"+pm, func(t *testing.T) {
				t.Parallel()
				plan := NewPlan(5, ProfileClean, pm)
				plan.Grammar = name
				a := Run(plan)
				if !a.OK() {
					t.Fatalf("grammar %s on %s failed validation:\n%s", name, pm, a.Report())
				}
				b := Run(plan)
				if !bytes.Equal(a.Canonical, b.Canonical) {
					t.Errorf("grammar %s on %s: replay diverged", name, pm)
				}
			})
		}
	}
}

// TestGrammarUnderFaults exercises the richest mix under a non-clean
// profile: fault timing must not leak into the canonical trace.
func TestGrammarUnderFaults(t *testing.T) {
	for _, profile := range []Profile{ProfileFlaky, ProfileLostAck} {
		profile := profile
		t.Run(string(profile), func(t *testing.T) {
			t.Parallel()
			plan := NewPlan(9, profile, "SL")
			plan.Grammar = "chaos"
			a := Run(plan)
			if !a.OK() {
				t.Fatalf("chaos grammar under %s failed:\n%s", profile, a.Report())
			}
			b := Run(plan)
			if !bytes.Equal(a.Canonical, b.Canonical) {
				t.Errorf("chaos grammar under %s: replay diverged", profile)
			}
		})
	}
}

// TestGrammarPointerSurvivesRestart runs the pointer mix across a home
// crash and WAL restart: published pointers must survive the image import
// and record replay, and heterogeneous translation on either side of it.
func TestGrammarPointerSurvivesRestart(t *testing.T) {
	plan := NewPlan(4, ProfileHomeCrashRestart, "SL")
	plan.Grammar = "pointer"
	if res := Run(plan); !res.OK() {
		t.Fatalf("pointer grammar under homecrash-restart failed:\n%s", res.Report())
	}
}

// TestGrammarActionCoverage compiles the chaos mix across seeds and
// requires every one of the grammar's action kinds to appear — the
// vocabulary really is reachable, not just declared.
func TestGrammarActionCoverage(t *testing.T) {
	m, err := MixByName("chaos")
	if err != nil {
		t.Fatal(err)
	}
	var total [numActions]int
	for seed := int64(0); seed < 24; seed++ {
		plan := NewPlan(seed, ProfileClean, "LL")
		plan.Grammar = "chaos"
		plan = plan.withDefaults()
		lay := layoutFor(plan, m)
		prog := compileProgram(plan, m, lay, rand.New(rand.NewSource(seed)))
		for k := range total {
			total[k] += prog.counts[k]
		}
	}
	for k := actionKind(0); k < numActions; k++ {
		if total[k] == 0 {
			t.Errorf("action %q never compiled across 24 chaos seeds", actionNames[k])
		}
	}
	if numActions < 10 {
		t.Errorf("grammar vocabulary shrank to %d actions, want >= 10", int(numActions))
	}
}

// TestClassicLayoutUnchanged pins that the classic mix still builds the
// pre-grammar GThV shape — the index-table entry order every historical
// fault schedule depends on.
func TestClassicLayoutUnchanged(t *testing.T) {
	m, _ := MixByName("classic")
	plan := NewPlan(0, ProfileClean, "LL").withDefaults()
	lay := layoutFor(plan, m)
	g := lay.gthv()
	var names []string
	for _, f := range g.Fields {
		names = append(names, f.Name)
	}
	if got, want := strings.Join(names, ","), "a,b,slice,gen"; got != want {
		t.Fatalf("classic layout fields = %s, want %s", got, want)
	}
	if lay.ptrEntry() != -1 {
		t.Errorf("classic layout grew a pointer entry")
	}
}

// TestParseMix covers the spec parser's accept and reject paths.
func TestParseMix(t *testing.T) {
	m, err := ParseMix("cs:3,nested:2, ptr-pub:1")
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if m.Weights[actCS] != 3 || m.Weights[actNested] != 2 || m.Weights[actPtrPub] != 1 {
		t.Errorf("weights misparsed: %v", m.Weights)
	}
	if m.Locks != 4 {
		t.Errorf("nested spec got %d locks, want 4", m.Locks)
	}
	for _, bad := range []struct{ spec, wantErr string }{
		{"cs:0", "sum to zero"},
		{"warble:3", "unknown action"},
		{"cs", "not \"action:weight\""},
		{"cs:-1", "bad weight"},
		{"cs:x", "bad weight"},
	} {
		if _, err := ParseMix(bad.spec); err == nil || !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("ParseMix(%q) = %v, want error containing %q", bad.spec, err, bad.wantErr)
		}
	}
	if _, err := MixByName("warble"); err == nil || !strings.Contains(err.Error(), "unknown grammar") {
		t.Errorf("MixByName(warble) = %v, want unknown-grammar error", err)
	}
}

// TestPlanValidate covers the up-front flag-combination checks.
func TestPlanValidate(t *testing.T) {
	good := NewPlan(1, ProfileClean, "SL")
	good.Grammar = "nested"
	if err := good.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(*Plan)
		wantErr string
	}{
		{"negative_faulty", func(p *Plan) { p.Profile = ProfileFlaky; p.Negative = true }, "-negative requires the clean profile"},
		{"retired_profile", func(p *Plan) { p.Profile = "migrate" }, "unknown profile"},
		{"zero_weights", func(p *Plan) { p.Grammar = "cs:0,pair:0" }, "sum to zero"},
		{"bad_grammar", func(p *Plan) { p.Grammar = "nope" }, "unknown grammar"},
		{"locks_range", func(p *Plan) { p.Locks = 1 }, "-locks 1 out of range"},
		{"too_many_threads", func(p *Plan) { p.Threads = 99 }, "thread ceiling"},
		{"bad_mix", func(p *Plan) { p.Mix = "X" }, "mix"},
	} {
		p := NewPlan(1, ProfileClean, "SL")
		tc.mutate(&p)
		if err := p.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: Validate() = %v, want error containing %q", tc.name, err, tc.wantErr)
		}
	}
}

// FuzzGrammarPlan fuzzes the grammar compiler and replayer: any plan that
// passes Validate must run without infrastructure errors or violations,
// and must replay byte-identically. Seeded from the regression corpus's
// shape space.
func FuzzGrammarPlan(f *testing.F) {
	if entries, err := LoadCorpus(corpusPath); err == nil {
		for i, e := range entries {
			f.Add(e.Seed, uint8(i), uint8(i%3), uint8(3), uint8(10), uint8(0))
		}
	}
	f.Add(int64(42), uint8(5), uint8(1), uint8(2), uint8(8), uint8(4))
	// The seeds of the retired sharded corpus entries stay fuzz inputs.
	for i, seed := range []int64{0, 1, 2, 4} {
		f.Add(seed, uint8(i), uint8(i%3), uint8(3), uint8(10), uint8(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, gi, mi, threads, steps, locks uint8) {
		grammars := GrammarMixes()
		mixes := Mixes()
		plan := NewPlan(seed, ProfileClean, mixes[int(mi)%len(mixes)])
		plan.Grammar = grammars[int(gi)%len(grammars)]
		plan.Threads = 1 + int(threads)%4
		plan.Steps = 1 + int(steps)%12
		if locks%2 == 1 {
			plan.Locks = 2 + int(locks)%7
		}
		if err := plan.Validate(); err != nil {
			t.Skip()
		}
		a := Run(plan)
		if a.Err != nil {
			t.Fatalf("plan %s: infrastructure error: %v", plan, a.Err)
		}
		if len(a.Violations) > 0 {
			t.Fatalf("plan %s: violations:\n%s", plan, a.Report())
		}
		b := Run(plan)
		if !bytes.Equal(a.Canonical, b.Canonical) {
			t.Fatalf("plan %s: replay diverged", plan)
		}
	})
}
