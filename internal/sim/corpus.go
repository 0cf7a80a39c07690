package sim

import (
	"encoding/json"
	"fmt"
	"os"
)

// CorpusEntry is one record of the structured regression-seed corpus
// (testdata/regression_seeds.json): a fully-specified plan that once
// exposed a real bug, plus the context a human needs to understand what it
// caught. TestRegressionSeeds replays every entry on every CI run; the
// dsmsim sweeper appends a new entry automatically whenever a sweep finds
// a violation, so every failure the fleet ever surfaces stays under test
// forever.
type CorpusEntry struct {
	// Note says what the entry caught, for humans.
	Note string `json:"note,omitempty"`
	// Seed..Negative reconstruct the plan exactly.
	Seed     int64  `json:"seed"`
	Profile  string `json:"profile"`
	Mix      string `json:"mix"`
	Grammar  string `json:"grammar,omitempty"`
	Locks    int    `json:"locks,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Steps    int    `json:"steps,omitempty"`
	Negative bool   `json:"negative,omitempty"`
	// Trace is the minimized violation trace captured when the entry was
	// appended — context for debugging, not replayed.
	Trace []string `json:"trace,omitempty"`
}

// Plan reconstructs the entry's plan.
func (e CorpusEntry) Plan() Plan {
	p := NewPlan(e.Seed, Profile(e.Profile), e.Mix)
	if e.Threads > 0 {
		p.Threads = e.Threads
	}
	if e.Steps > 0 {
		p.Steps = e.Steps
	}
	p.Grammar = e.Grammar
	p.Locks = e.Locks
	p.Negative = e.Negative
	return p
}

// EntryForResult builds the corpus record for a violating run: the exact
// plan plus the first violation's message and minimized trace.
func EntryForResult(res Result) CorpusEntry {
	p := res.Plan
	e := CorpusEntry{
		Seed:     p.Seed,
		Profile:  string(p.Profile),
		Mix:      p.Mix,
		Locks:    p.Locks,
		Threads:  p.Threads,
		Steps:    p.Steps,
		Negative: p.Negative,
	}
	if p.Grammar != "classic" {
		e.Grammar = p.Grammar
	}
	if len(res.Violations) > 0 {
		v := res.Violations[0]
		e.Note = v.Msg
		const traceCap = 20
		for i, ev := range v.Trace {
			if i == traceCap {
				e.Trace = append(e.Trace, fmt.Sprintf("... %d more", len(v.Trace)-traceCap))
				break
			}
			e.Trace = append(e.Trace, ev.String())
		}
	}
	return e
}

// LoadCorpus reads a corpus file (a JSON array of entries).
func LoadCorpus(path string) ([]CorpusEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []CorpusEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("sim: corpus %s: %w", path, err)
	}
	return entries, nil
}

// AppendCorpus adds entry to the corpus at path (creating the file if
// absent), unless an entry with an identical plan is already present. It
// reports whether the entry was added. The file is rewritten atomically
// enough for CI use — one pretty-printed JSON array, append-only in
// spirit: existing entries are never dropped or reordered.
func AppendCorpus(path string, entry CorpusEntry) (bool, error) {
	entries, err := LoadCorpus(path)
	if err != nil && !os.IsNotExist(err) {
		return false, err
	}
	want := entry.Plan()
	for _, e := range entries {
		if e.Plan() == want {
			return false, nil
		}
	}
	entries = append(entries, entry)
	data, err := json.MarshalIndent(entries, "", "  ")
	if err != nil {
		return false, err
	}
	return true, os.WriteFile(path, append(data, '\n'), 0o644)
}
