package vmem

import "sort"

// PageHeat is one page's cumulative write-detection activity: how often
// it trapped, how many runs of changed elements the release scans found on
// it, and how many bytes those elements cover. The counters identify hot
// pages — and, via the run-size shape, probable false sharing. Runs are
// counted in elements, not bytes: a counter array whose every element
// changes only its low byte is one solid run, not one run per element.
type PageHeat struct {
	// Page is the page index within the segment.
	Page int `json:"page"`
	// Faults is the number of write traps the page took.
	Faults uint64 `json:"faults"`
	// DiffRuns is the number of changed-element runs its scans found.
	DiffRuns uint64 `json:"diff_runs"`
	// DiffBytes is the total bytes of the changed elements, on this page.
	DiffBytes uint64 `json:"diff_bytes"`
	// FalseSharingSuspect marks a fragmented-write page: repeatedly
	// trapped, diffed into several distinct runs per window on average,
	// yet with only a small fraction of the page actually modified —
	// the signature of unrelated objects sharing the page.
	FalseSharingSuspect bool `json:"false_sharing_suspect"`
}

// HeatReport is a segment's (or a whole node's, after Merge) page-heat
// profile; it marshals directly to JSON for the /heat endpoint.
type HeatReport struct {
	// PageSize is the page size the counters were collected under.
	PageSize int `json:"page_size"`
	// TotalFaults is the sum of Faults over all pages.
	TotalFaults uint64 `json:"total_faults"`
	// TotalDiffBytes is the sum of DiffBytes over all pages.
	TotalDiffBytes uint64 `json:"total_diff_bytes"`
	// TwinsMade is the number of twin pages ever copied, the memory-churn
	// half of the twin/diff scheme's cost.
	TwinsMade uint64 `json:"twins_made"`
	// Pages lists every page with activity, hottest (most faults, then
	// most diff runs) first.
	Pages []PageHeat `json:"pages"`
}

// falseSharingSuspect applies the fragmentation heuristic: at least two
// windows (faults), more than two runs per window on average, and an
// average run far smaller than the page.
func falseSharingSuspect(h PageHeat, pageSize int) bool {
	if h.Faults < 2 || h.DiffRuns < 2*h.Faults || h.DiffRuns == 0 {
		return false
	}
	avgRun := float64(h.DiffBytes) / float64(h.DiffRuns)
	return avgRun < float64(pageSize)/8
}

// NoteDiff adds one release scan's findings on page to its heat counters:
// runs of consecutive changed elements and the bytes they cover there.
func (s *Segment) NoteDiff(page, runs, bytes int) {
	s.heatDiffRuns[page] += uint64(runs)
	s.heatDiffBytes[page] += uint64(bytes)
}

// TakeFaults calls f once for every page that trapped since the previous
// TakeFaults, in first-trap order, with the number of traps it took, and
// starts a new window. A release piggybacks exactly these deltas, so an
// empty release costs nothing here however much of the segment is hot.
func (s *Segment) TakeFaults(f func(page int, faults uint64)) {
	for _, p := range s.touched {
		f(p, s.heatFaults[p]-s.shipped[p])
		s.shipped[p] = s.heatFaults[p]
	}
	s.touched = s.touched[:0]
}

// sortHeat orders hottest-first.
func sortHeat(pages []PageHeat) {
	sort.SliceStable(pages, func(i, j int) bool {
		if pages[i].Faults != pages[j].Faults {
			return pages[i].Faults > pages[j].Faults
		}
		if pages[i].DiffRuns != pages[j].DiffRuns {
			return pages[i].DiffRuns > pages[j].DiffRuns
		}
		return pages[i].Page < pages[j].Page
	})
}

// Heat returns the segment's page-heat report: every page that ever
// trapped or diffed, hottest first, with false-sharing suspects marked.
func (s *Segment) Heat() HeatReport {
	r := HeatReport{PageSize: s.pageSize, TwinsMade: s.twinsMade}
	for p := range s.heatFaults {
		h := PageHeat{
			Page:      p,
			Faults:    s.heatFaults[p],
			DiffRuns:  s.heatDiffRuns[p],
			DiffBytes: s.heatDiffBytes[p],
		}
		if h.Faults == 0 && h.DiffRuns == 0 {
			continue
		}
		h.FalseSharingSuspect = falseSharingSuspect(h, s.pageSize)
		r.TotalFaults += h.Faults
		r.TotalDiffBytes += h.DiffBytes
		r.Pages = append(r.Pages, h)
	}
	sortHeat(r.Pages)
	return r
}

// Merge folds another report into r page-wise — the cluster roll-up when
// several replicas share one page size. Suspect flags are recomputed on
// the merged counters.
func (r *HeatReport) Merge(o HeatReport) {
	if r.PageSize == 0 {
		r.PageSize = o.PageSize
	}
	byPage := make(map[int]int, len(r.Pages))
	for i, p := range r.Pages {
		byPage[p.Page] = i
	}
	for _, p := range o.Pages {
		if i, ok := byPage[p.Page]; ok {
			r.Pages[i].Faults += p.Faults
			r.Pages[i].DiffRuns += p.DiffRuns
			r.Pages[i].DiffBytes += p.DiffBytes
		} else {
			byPage[p.Page] = len(r.Pages)
			r.Pages = append(r.Pages, p)
		}
	}
	r.TotalFaults += o.TotalFaults
	r.TotalDiffBytes += o.TotalDiffBytes
	r.TwinsMade += o.TwinsMade
	for i := range r.Pages {
		r.Pages[i].FalseSharingSuspect = falseSharingSuspect(r.Pages[i], r.PageSize)
	}
	sortHeat(r.Pages)
}

// Hot returns the k hottest pages (all of them when k <= 0 or exceeds
// the page count).
func (r HeatReport) Hot(k int) []PageHeat {
	if k <= 0 || k > len(r.Pages) {
		k = len(r.Pages)
	}
	out := make([]PageHeat, k)
	copy(out, r.Pages[:k])
	return out
}
