// Command dsmsim sweeps the deterministic cluster simulator across seeds,
// fault profiles, and platform mixes, validating every run against the
// release-consistency checker. A violation prints its reproducer (seed +
// fault schedule + minimized event trace) and fails the sweep; -out saves
// the full reports as artifacts for CI upload.
//
// Usage:
//
//	dsmsim -seeds 64 -profile all -mix all         # CI sweep
//	dsmsim -seeds 64 -grammar all -corpus seeds.json # grammar sweep, auto-corpus
//	dsmsim -replay 41 -profile partition -mix Lsl  # reproduce one failure
//	dsmsim -seeds 8 -negative                      # oracle self-test
//
// -grammar selects a workload grammar mix: a builtin name (classic, nested,
// pointer, producer, hotcold, chaos), "all", or an inline weighted spec
// like "cs:3,nested:2,ptr-chase:1". -corpus names a regression-seed JSON
// file; any violation a clean sweep finds is appended there automatically
// so TestRegressionSeeds replays it forever.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"hetdsm/internal/sim"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 8, "number of seeds to sweep (seed 0..N-1)")
		profile  = flag.String("profile", "all", "fault profile (clean|flaky|partition|failover|handoff|lostack|homecrash-restart|stall|dribble|wedge|all)")
		mix      = flag.String("mix", "all", "platform mix (e.g. LL, SL, Lsl) or all")
		grammar  = flag.String("grammar", "classic", "workload grammar (classic|nested|pointer|producer|hotcold|chaos|all) or a weighted spec like cs:3,nested:2")
		locks    = flag.Int("locks", 0, "lock count for grammar workloads (0 = mix default)")
		corpus   = flag.String("corpus", "", "regression-seed JSON file; clean-sweep violations are appended automatically")
		negative = flag.Bool("negative", false, "corrupt wire frames and require the checker to notice")
		replay   = flag.Int64("replay", -1, "replay one seed (with -profile/-mix/-grammar) and verify byte-identical traces")
		spansOut = flag.String("spans-out", "", "with -replay: write the run's release spans as JSONL (dsmtrace -spans input)")
		out      = flag.String("out", "", "directory for violation-report artifacts")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulations")
		verbose  = flag.Bool("v", false, "print every run, not just failures")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *replay < 0 && *seeds <= 0 {
		fail(fmt.Errorf("dsmsim: -seeds %d sweeps nothing; pass a positive seed count", *seeds))
	}
	profiles, err := pickProfiles(*profile, *negative)
	if err != nil {
		fail(err)
	}
	mixes, err := pickMixes(*mix)
	if err != nil {
		fail(err)
	}
	grammars, err := pickGrammars(*grammar)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
	}

	if *replay >= 0 {
		if *profile == "all" || *mix == "all" || *grammar == "all" {
			fail(fmt.Errorf("dsmsim: -replay reproduces one plan; name one -profile, -mix, and -grammar (got -profile %s -mix %s -grammar %s)", *profile, *mix, *grammar))
		}
		os.Exit(replayOne(*replay, profiles, mixes, grammars, *negative, *locks, *out, *spansOut))
	}

	plans := make([]sim.Plan, 0, *seeds*len(profiles)*len(mixes)*len(grammars))
	for seed := int64(0); seed < int64(*seeds); seed++ {
		for _, p := range profiles {
			for _, m := range mixes {
				for _, g := range grammars {
					plan := sim.NewPlan(seed, p, m)
					plan.Negative = *negative
					plan.Grammar = g
					plan.Locks = *locks
					if err := plan.Validate(); err != nil {
						fail(fmt.Errorf("dsmsim: %w", err))
					}
					plans = append(plans, plan)
				}
			}
		}
	}
	os.Exit(sweep(plans, *negative, *workers, *verbose, *out, *corpus))
}

func pickProfiles(name string, negative bool) ([]sim.Profile, error) {
	if negative {
		// Negative mode corrupts wire frames on an otherwise-clean run; a
		// fault profile would blur whose failure the oracle is detecting.
		if name != "all" && name != string(sim.ProfileClean) {
			return nil, fmt.Errorf("dsmsim: -negative requires the clean profile, got -profile %s; drop one of the two flags", name)
		}
		return []sim.Profile{sim.ProfileClean}, nil
	}
	if name == "all" {
		return sim.Profiles(), nil
	}
	p := sim.Profile(name)
	if !sim.ValidProfile(p) {
		return nil, fmt.Errorf("dsmsim: unknown profile %q (want clean|flaky|partition|failover|handoff|lostack|homecrash-restart|stall|dribble|wedge|all)", name)
	}
	return []sim.Profile{p}, nil
}

func pickMixes(name string) ([]string, error) {
	if name == "all" {
		return sim.Mixes(), nil
	}
	if len(name) < 2 {
		return nil, fmt.Errorf("dsmsim: mix %q needs at least a home and one thread letter", name)
	}
	return []string{name}, nil
}

func pickGrammars(name string) ([]string, error) {
	if name == "all" {
		return sim.GrammarMixes(), nil
	}
	if _, err := sim.MixByName(name); err != nil {
		return nil, fmt.Errorf("dsmsim: %w", err)
	}
	return []string{name}, nil
}

// sweep runs every plan, bounded by the worker count, and reports the
// tally. Exit 0 only if every run matched its expectation (clean sweeps
// validate, negative sweeps are flagged). With corpus set, every clean-
// sweep violation is appended to the regression-seed file so the exact
// reproducer lands under TestRegressionSeeds.
func sweep(plans []sim.Plan, negative bool, workers int, verbose bool, out, corpus string) int {
	if workers < 1 {
		workers = 1
	}
	type outcome struct {
		res sim.Result
		bad bool
	}
	results := make([]outcome, len(plans))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, plan := range plans {
		wg.Add(1)
		go func(i int, plan sim.Plan) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := sim.Run(plan)
			bad := !res.OK()
			if negative {
				// The oracle must notice the corruption; a clean result or
				// an infrastructure error is the failure here.
				bad = res.Err != nil || len(res.Violations) == 0 || res.Corrupted == 0
			}
			if !bad {
				// Keep only what the tally prints, so a sweep's memory
				// does not grow with its plan count.
				res = sim.Result{Plan: res.Plan, Events: res.Events}
			}
			results[i] = outcome{res: res, bad: bad}
		}(i, plan)
	}
	wg.Wait()

	failed := 0
	for _, o := range results {
		if o.bad {
			failed++
			if negative && o.res.Err == nil && len(o.res.Violations) == 0 {
				fmt.Printf("NEGATIVE MISS: %s validated clean despite %d corrupted frames\n", o.res.Plan, o.res.Corrupted)
			} else {
				fmt.Printf("FAIL: %s\n%s", o.res.Plan, o.res.Report())
			}
			saveArtifact(out, o.res)
			if corpus != "" && !negative && len(o.res.Violations) > 0 {
				added, err := sim.AppendCorpus(corpus, sim.EntryForResult(o.res))
				switch {
				case err != nil:
					fmt.Fprintf(os.Stderr, "dsmsim: corpus append: %v\n", err)
				case added:
					fmt.Printf("corpus: recorded %s in %s\n", o.res.Plan, corpus)
				default:
					fmt.Printf("corpus: %s already present in %s\n", o.res.Plan, corpus)
				}
			}
		} else if verbose {
			fmt.Printf("ok: %s (%d events)\n", o.res.Plan, o.res.Events)
		}
	}
	mode := "violation-free"
	if negative {
		mode = "corruption-detecting"
	}
	fmt.Printf("dsmsim: %d/%d runs %s\n", len(plans)-failed, len(plans), mode)
	if failed > 0 {
		return 1
	}
	return 0
}

// replayOne runs a single plan twice and verifies the byte-identical
// canonical-trace guarantee, printing the full report.
func replayOne(seed int64, profiles []sim.Profile, mixes []string, grammars []string, negative bool, locks int, out, spansOut string) int {
	plan := sim.NewPlan(seed, profiles[0], mixes[0])
	plan.Negative = negative
	plan.Grammar = grammars[0]
	plan.Locks = locks
	if err := plan.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsim: %v\n", err)
		return 2
	}
	a := sim.Run(plan)
	fmt.Print(a.Report())
	saveArtifact(out, a)
	if spansOut != "" {
		if err := writeSpansJSONL(spansOut, a); err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: -spans-out: %v\n", err)
			return 1
		}
		fmt.Printf("spans: wrote %d to %s\n", len(a.Spans), spansOut)
	}
	b := sim.Run(plan)
	if !bytes.Equal(a.Canonical, b.Canonical) {
		fmt.Printf("REPLAY DIVERGED: second run of %s produced a different canonical trace\n", plan)
		return 1
	}
	fmt.Println("replay: byte-identical canonical trace")
	if negative {
		if a.Err != nil || len(a.Violations) == 0 {
			return 1
		}
		return 0
	}
	if !a.OK() {
		return 1
	}
	return 0
}

// saveArtifact writes the run's report and canonical trace for CI upload.
func saveArtifact(dir string, res sim.Result) {
	if dir == "" {
		return
	}
	name := fmt.Sprintf("seed%d-%s-%s", res.Plan.Seed, res.Plan.Profile, res.Plan.Mix)
	if res.Plan.Grammar != "" && res.Plan.Grammar != "classic" {
		name += "-" + sanitize(res.Plan.Grammar)
	}
	if res.Plan.Negative {
		name += "-negative"
	}
	report := res.Report() + "\n--- canonical trace ---\n" + string(res.Canonical)
	if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(report), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "dsmsim: artifact %s: %v\n", name, err)
	}
	// The black-box flight dump rides along as its own artifact so a CI
	// failure ships the protocol-event tail even without the full report.
	if res.FlightDump != "" {
		if err := os.WriteFile(filepath.Join(dir, name+"-flight.txt"), []byte(res.FlightDump), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dsmsim: flight artifact %s: %v\n", name, err)
		}
	}
}

// sanitize maps an inline grammar spec ("cs:3,nested:2") onto a safe
// artifact-file name fragment.
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// writeSpansJSONL exports a run's spans one JSON object per line — the
// same shape a node's /spans endpoint streams, so dsmtrace consumes both.
func writeSpansJSONL(path string, res sim.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range res.Spans {
		if err := enc.Encode(&res.Spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
