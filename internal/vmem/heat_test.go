package vmem

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// writeRound protects, writes, diffs and drops twins — one release
// window, the way the DSD layer drives a segment. The byte runs of each
// page's diff stand in for the release scan's element runs (byte-sized
// elements).
func writeRound(t *testing.T, s *Segment, writes map[int][]byte) {
	t.Helper()
	s.ProtectAll()
	for off, b := range writes {
		if err := s.Write(off, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range s.DirtyPages() {
		rs := s.DiffPage(p, DiffByte)
		n := 0
		for _, r := range rs {
			n += r.Len()
		}
		s.NoteDiff(p, len(rs), n)
	}
	s.DropTwins()
}

func TestHeatCounters(t *testing.T) {
	const pageSize = 256
	s := MustSegment(0x10000, 4*pageSize, pageSize)

	// Page 0: two rounds of one solid write each — hot, but not
	// fragmented. Page 2: one round, one write. Pages 1 and 3: untouched.
	// Each round writes different bytes so the twin diff sees real change.
	writeRound(t, s, map[int][]byte{
		0:            bytes.Repeat([]byte{0xAA}, 64),
		2 * pageSize: {1, 2, 3, 4},
	})
	writeRound(t, s, map[int][]byte{0: bytes.Repeat([]byte{0xBB}, 64)})

	r := s.Heat()
	if r.PageSize != pageSize {
		t.Errorf("PageSize = %d, want %d", r.PageSize, pageSize)
	}
	if len(r.Pages) != 2 {
		t.Fatalf("got %d active pages, want 2: %+v", len(r.Pages), r.Pages)
	}
	// Hottest first: page 0 has 2 faults, page 2 has 1.
	if r.Pages[0].Page != 0 || r.Pages[0].Faults != 2 {
		t.Errorf("hottest = %+v, want page 0 with 2 faults", r.Pages[0])
	}
	if r.Pages[1].Page != 2 || r.Pages[1].Faults != 1 {
		t.Errorf("second = %+v, want page 2 with 1 fault", r.Pages[1])
	}
	if r.Pages[0].DiffRuns != 2 || r.Pages[0].DiffBytes != 128 {
		t.Errorf("page 0 diff accounting = %+v, want 2 runs / 128 bytes", r.Pages[0])
	}
	if r.TotalFaults != 3 {
		t.Errorf("TotalFaults = %d, want 3", r.TotalFaults)
	}
	if r.TotalDiffBytes != 128+4 {
		t.Errorf("TotalDiffBytes = %d, want 132", r.TotalDiffBytes)
	}
	if r.TwinsMade != 3 {
		t.Errorf("TwinsMade = %d, want 3", r.TwinsMade)
	}
	for _, p := range r.Pages {
		if p.FalseSharingSuspect {
			t.Errorf("page %d flagged as false sharing despite solid writes", p.Page)
		}
	}
}

func TestHeatFalseSharingSuspect(t *testing.T) {
	const pageSize = 256
	s := MustSegment(0x10000, 2*pageSize, pageSize)

	// Page 0 takes many scattered 2-byte writes per round — several
	// distinct runs, each far below pageSize/8 — across three rounds.
	// That is the false-sharing signature.
	for round := 0; round < 3; round++ {
		writes := map[int][]byte{}
		for i := 0; i < 4; i++ {
			writes[i*50] = []byte{byte(round), byte(i)}
		}
		// Page 1 gets one solid half-page write: hot, not fragmented.
		writes[pageSize] = bytes.Repeat([]byte{byte(round + 1)}, pageSize/2)
		writeRound(t, s, writes)
	}

	r := s.Heat()
	byPage := map[int]PageHeat{}
	for _, p := range r.Pages {
		byPage[p.Page] = p
	}
	if !byPage[0].FalseSharingSuspect {
		t.Errorf("page 0 not flagged: %+v", byPage[0])
	}
	if byPage[1].FalseSharingSuspect {
		t.Errorf("page 1 wrongly flagged: %+v", byPage[1])
	}
}

func TestHeatMerge(t *testing.T) {
	a := HeatReport{
		PageSize:       256,
		TotalFaults:    3,
		TotalDiffBytes: 100,
		TwinsMade:      3,
		Pages: []PageHeat{
			{Page: 0, Faults: 2, DiffRuns: 2, DiffBytes: 80},
			{Page: 1, Faults: 1, DiffRuns: 1, DiffBytes: 20},
		},
	}
	b := HeatReport{
		PageSize:       256,
		TotalFaults:    5,
		TotalDiffBytes: 60,
		TwinsMade:      5,
		Pages: []PageHeat{
			{Page: 1, Faults: 4, DiffRuns: 16, DiffBytes: 40},
			{Page: 7, Faults: 1, DiffRuns: 1, DiffBytes: 20},
		},
	}
	a.Merge(b)
	if a.TotalFaults != 8 || a.TotalDiffBytes != 160 || a.TwinsMade != 8 {
		t.Errorf("totals after merge: %+v", a)
	}
	if len(a.Pages) != 3 {
		t.Fatalf("got %d pages, want 3", len(a.Pages))
	}
	// Page 1 now has 5 faults and leads the report.
	if a.Pages[0].Page != 1 || a.Pages[0].Faults != 5 || a.Pages[0].DiffBytes != 60 {
		t.Errorf("merged hottest = %+v", a.Pages[0])
	}
	// 17 runs over 60 bytes across 5 windows: avg run ~3.5 bytes — the
	// merged counters must re-trip the suspect heuristic.
	if !a.Pages[0].FalseSharingSuspect {
		t.Errorf("merged page 1 should be a false-sharing suspect: %+v", a.Pages[0])
	}

	hot := a.Hot(2)
	if len(hot) != 2 || hot[0].Page != 1 {
		t.Errorf("Hot(2) = %+v", hot)
	}
	if got := a.Hot(0); len(got) != 3 {
		t.Errorf("Hot(0) returned %d pages, want all 3", len(got))
	}
}

func TestHeatJSONShape(t *testing.T) {
	s := MustSegment(0, 512, 256)
	writeRound(t, s, map[int][]byte{0: {1, 2, 3}})
	raw, err := json.Marshal(s.Heat())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"page_size"`, `"total_faults"`, `"total_diff_bytes"`, `"twins_made"`, `"pages"`, `"faults"`, `"diff_runs"`, `"diff_bytes"`, `"false_sharing_suspect"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("heat JSON missing %s: %s", key, raw)
		}
	}
}
