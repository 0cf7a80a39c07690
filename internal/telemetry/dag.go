package telemetry

import "sort"

// Release is one release's merged cross-node timeline: every recorded
// stage of one causal trace, ordered by wall-clock start. Spans carrying
// a TraceID are grouped by it (so two home incarnations reusing a
// (rank, seq) pair stay distinct releases); legacy spans without one fall
// back to (rank, seq) grouping.
type Release struct {
	// TraceID is the causal trace id; 0 for legacy (rank, seq) groups.
	TraceID uint64 `json:"trace_id,omitempty"`
	// Rank and Seq identify the release on the wire.
	Rank int32  `json:"rank"`
	Seq  uint64 `json:"seq"`
	// Spans holds the stages in start order.
	Spans []Span `json:"spans"`
}

// Stage returns the release's first span of the named stage and whether
// one was recorded.
func (r *Release) Stage(stage string) (Span, bool) {
	for _, s := range r.Spans {
		if s.Stage == stage {
			return s, true
		}
	}
	return Span{}, false
}

// Nodes returns the distinct recording nodes of the release's spans, in
// first-appearance order — the set of machines the release touched.
func (r *Release) Nodes() []string {
	seen := make(map[string]bool, 4)
	var out []string
	for _, s := range r.Spans {
		if !seen[s.Node] {
			seen[s.Node] = true
			out = append(out, s.Node)
		}
	}
	return out
}

// Children returns the spans whose Parent is id, in start order.
func (r *Release) Children(id uint64) []Span {
	var out []Span
	for _, s := range r.Spans {
		if s.Parent == id && s.Parent != 0 {
			out = append(out, s)
		}
	}
	return out
}

// CriticalPath walks the span DAG from the latest-finishing span back
// along Parent edges to a root and returns the chain in causal order —
// the sequence of stages that bound the release's end-to-end latency.
// Returns nil when no span carries an id (legacy spans have no edges).
func (r *Release) CriticalPath() []Span {
	byID := make(map[uint64]Span, len(r.Spans))
	var last Span
	found := false
	for _, s := range r.Spans {
		if s.SpanID == 0 {
			continue
		}
		// Retries and replays collapse onto one deterministic id; keep the
		// widest recording so the path reflects the attempt that mattered.
		if prev, ok := byID[s.SpanID]; !ok || s.Dur > prev.Dur {
			byID[s.SpanID] = s
		}
		if !found || s.End() > last.End() {
			last = s
			found = true
		}
	}
	if !found {
		return nil
	}
	path := []Span{last}
	seen := map[uint64]bool{last.SpanID: true}
	for cur := last; cur.Parent != 0; {
		p, ok := byID[cur.Parent]
		if !ok || seen[p.SpanID] {
			break
		}
		seen[p.SpanID] = true
		path = append(path, p)
		cur = p
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// Latency returns the wall-clock nanoseconds from the release's earliest
// span start to its latest span end (0 for an empty release).
func (r *Release) Latency() int64 {
	if len(r.Spans) == 0 {
		return 0
	}
	lo, hi := r.Spans[0].Start, r.Spans[0].End()
	for _, s := range r.Spans[1:] {
		if s.Start < lo {
			lo = s.Start
		}
		if s.End() > hi {
			hi = s.End()
		}
	}
	return hi - lo
}

// MergeTimeline stitches spans from any number of logs (sender-side,
// home-side, WAL, standby) into per-release DAGs. Spans with a TraceID
// group by it; spans without one group by (rank, seq) as before. Spans
// with neither (Seq == 0 and no trace) are dropped. Releases are ordered
// by rank, then seq, then trace id — so duplicate (rank, seq) pairs from
// different home epochs appear as adjacent but distinct releases.
func MergeTimeline(logs ...[]Span) []Release {
	type key struct {
		trace uint64
		rank  int32
		seq   uint64
	}
	byID := make(map[key][]Span)
	for _, spans := range logs {
		for _, s := range spans {
			if s.TraceID == 0 && s.Seq == 0 {
				continue
			}
			k := key{trace: s.TraceID}
			if s.TraceID == 0 {
				k.rank, k.seq = s.Rank, s.Seq
			}
			byID[k] = append(byID[k], s)
		}
	}
	out := make([]Release, 0, len(byID))
	for k, spans := range byID {
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		rel := Release{TraceID: k.trace, Rank: k.rank, Seq: k.seq, Spans: spans}
		if k.trace != 0 {
			// Adopt the wire identity from the first span that has one.
			for _, s := range spans {
				if s.Seq != 0 {
					rel.Rank, rel.Seq = s.Rank, s.Seq
					break
				}
			}
		}
		out = append(out, rel)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}
