// Command dsmtrace is the cluster trace collector: it gathers release-
// pipeline spans and protocol events from running nodes (their /spans and
// /trace diagnostics endpoints) or from JSONL files (dsmsim -spans-out,
// -trace-out dumps), stitches the causal DAG of every release by trace
// context, and exports:
//
//   - a Chrome trace-event JSON file (-chrome) loadable in Perfetto or
//     chrome://tracing, one process lane per node, one thread lane per rank
//   - a text summary of the slowest releases with their critical paths
//   - a per-page fault-rate / diff-density CSV series (-series) derived
//     from the protocol-event ring
//
// Usage:
//
//	dsmtrace -nodes 127.0.0.1:9301,127.0.0.1:9302 -chrome out.json
//	dsmtrace -spans run.spans.jsonl -chrome out.json -top 5
//	dsmtrace -trace run.trace.jsonl -series pages.csv
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"hetdsm/internal/flight"
	"hetdsm/internal/telemetry"
)

func main() {
	var (
		nodes     = flag.String("nodes", "", "comma-separated diagnostics addresses (host:port) to scrape /spans and /trace from")
		spansIn   = flag.String("spans", "", "comma-separated span JSONL files (offline mode; dsmsim -spans-out output)")
		traceIn   = flag.String("trace", "", "comma-separated protocol-event JSONL files (offline mode; -trace-out output)")
		chromeOut = flag.String("chrome", "", "write the stitched DAG as Chrome trace-event JSON (Perfetto-loadable)")
		seriesOut = flag.String("series", "", "write per-page fault-rate/diff-density CSV derived from protocol events")
		bucket    = flag.Duration("bucket", time.Second, "series time-bucket width")
		top       = flag.Int("top", 10, "releases to summarize, slowest first (0 = all)")
		timeout   = flag.Duration("timeout", 5*time.Second, "HTTP scrape timeout")
	)
	flag.Parse()

	if *nodes == "" && *spansIn == "" && *traceIn == "" {
		fmt.Fprintln(os.Stderr, "dsmtrace: need -nodes, -spans, or -trace (see -h)")
		os.Exit(2)
	}

	var logs [][]telemetry.Span
	var events []flight.Line
	client := &http.Client{Timeout: *timeout}
	for _, addr := range splitList(*nodes) {
		spans, err := scrapeSpans(client, addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmtrace: scrape %s/spans: %v\n", addr, err)
			os.Exit(1)
		}
		logs = append(logs, spans)
		evs, err := scrapeTrace(client, addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmtrace: scrape %s/trace: %v\n", addr, err)
			os.Exit(1)
		}
		events = append(events, evs...)
	}
	for _, path := range splitList(*spansIn) {
		spans, err := readSpansFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmtrace: %s: %v\n", path, err)
			os.Exit(1)
		}
		logs = append(logs, spans)
	}
	for _, path := range splitList(*traceIn) {
		evs, err := readTraceFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dsmtrace: %s: %v\n", path, err)
			os.Exit(1)
		}
		events = append(events, evs...)
	}

	rels := telemetry.MergeTimeline(logs...)
	nspans := 0
	for _, l := range logs {
		nspans += len(l)
	}
	fmt.Printf("dsmtrace: %d releases stitched from %d sources (%d spans, %d protocol events)\n",
		len(rels), len(logs), nspans, len(events))

	if *chromeOut != "" {
		if err := writeChromeFile(*chromeOut, rels); err != nil {
			fmt.Fprintf(os.Stderr, "dsmtrace: -chrome: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("chrome trace: %s (load in Perfetto or chrome://tracing)\n", *chromeOut)
	}
	if len(rels) > 0 {
		summarize(os.Stdout, rels, *top)
	}
	if *seriesOut != "" {
		if len(events) == 0 {
			fmt.Fprintln(os.Stderr, "dsmtrace: -series needs protocol events (-nodes or -trace)")
			os.Exit(1)
		}
		if err := writeSeries(*seriesOut, events, *bucket); err != nil {
			fmt.Fprintf(os.Stderr, "dsmtrace: -series: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("page series: %s\n", *seriesOut)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func scrapeSpans(client *http.Client, addr string) ([]telemetry.Span, error) {
	body, err := get(client, addr, "/spans")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return decodeSpans(body)
}

func scrapeTrace(client *http.Client, addr string) ([]flight.Line, error) {
	body, err := get(client, addr, "/trace")
	if err != nil {
		return nil, err
	}
	defer body.Close()
	return decodeTrace(body)
}

func get(client *http.Client, addr, path string) (io.ReadCloser, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + path)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("status %s", resp.Status)
	}
	return resp.Body, nil
}

func readSpansFile(path string) ([]telemetry.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeSpans(f)
}

func readTraceFile(path string) ([]flight.Line, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return decodeTrace(f)
}

func decodeSpans(r io.Reader) ([]telemetry.Span, error) {
	var out []telemetry.Span
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var s telemetry.Span
		if err := dec.Decode(&s); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func decodeTrace(r io.Reader) ([]flight.Line, error) {
	var out []flight.Line
	dec := json.NewDecoder(bufio.NewReader(r))
	for {
		var e flight.Line
		if err := dec.Decode(&e); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
}

func writeChromeFile(path string, rels []telemetry.Release) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.WriteChromeTrace(f, rels); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints the slowest releases with their node sets and critical
// paths — the per-release answer to "where did the time go".
func summarize(w io.Writer, rels []telemetry.Release, top int) {
	byLatency := make([]telemetry.Release, len(rels))
	copy(byLatency, rels)
	sort.SliceStable(byLatency, func(i, j int) bool {
		return byLatency[i].Latency() > byLatency[j].Latency()
	})
	if top > 0 && len(byLatency) > top {
		byLatency = byLatency[:top]
		fmt.Fprintf(w, "slowest %d releases:\n", top)
	} else {
		fmt.Fprintln(w, "releases, slowest first:")
	}
	for _, rel := range byLatency {
		nodes := rel.Nodes()
		fmt.Fprintf(w, "  trace %016x rank %d seq %d: %v across %d nodes (%s)\n",
			rel.TraceID, rel.Rank, rel.Seq, time.Duration(rel.Latency()).Round(time.Microsecond),
			len(nodes), strings.Join(nodes, ", "))
		cp := rel.CriticalPath()
		if len(cp) == 0 {
			continue
		}
		parts := make([]string, 0, len(cp))
		for _, s := range cp {
			parts = append(parts, fmt.Sprintf("%s@%s %v", s.Stage, s.Node, time.Duration(s.Dur).Round(time.Microsecond)))
		}
		fmt.Fprintf(w, "    critical path: %s\n", strings.Join(parts, " -> "))
	}
}

// pageBucket keys the series: one page (lock/barrier index) in one time
// bucket.
type pageBucket struct {
	page   int32
	bucket int64
}

type pageStats struct {
	grants   int
	releases int
	bytes    int
}

// namesPage reports whether a moment's mutex operand is a lock, barrier or
// entry index; fences, epoch adoptions, restarts and checker verdicts carry
// epochs and counts there instead.
func namesPage(k flight.Kind) bool {
	switch k {
	case flight.KindFence, flight.KindEpochAdopt, flight.KindRestart, flight.KindViolation:
		return false
	}
	return true
}

// writeSeries derives per-page activity from the protocol-event ring:
// lock grants approximate the page fault rate (each grant precedes the
// acquirer's pull of the page) and unlock/flush bytes give the diff
// density each release shipped.
func writeSeries(path string, events []flight.Line, bucket time.Duration) error {
	if bucket <= 0 {
		bucket = time.Second
	}
	var t0 time.Time
	for _, e := range events {
		if t0.IsZero() || e.At.Before(t0) {
			t0 = e.At
		}
	}
	agg := make(map[pageBucket]*pageStats)
	for _, e := range events {
		if e.Mutex < 0 || !namesPage(e.Kind) {
			continue
		}
		key := pageBucket{page: e.Mutex, bucket: int64(e.At.Sub(t0) / bucket)}
		st := agg[key]
		if st == nil {
			st = &pageStats{}
			agg[key] = st
		}
		switch e.Kind {
		case flight.KindLockGrant:
			st.grants++
		case flight.KindUnlock, flight.KindFlush:
			st.releases++
			st.bytes += e.Bytes
		}
	}
	keys := make([]pageBucket, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].page != keys[j].page {
			return keys[i].page < keys[j].page
		}
		return keys[i].bucket < keys[j].bucket
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "page,t_ms,fault_rate_hz,releases,bytes,diff_density_bytes_per_release")
	secs := bucket.Seconds()
	for _, k := range keys {
		st := agg[k]
		density := 0.0
		if st.releases > 0 {
			density = float64(st.bytes) / float64(st.releases)
		}
		fmt.Fprintf(bw, "%d,%d,%.3f,%d,%d,%.1f\n",
			k.page, k.bucket*bucket.Milliseconds(), float64(st.grants)/secs,
			st.releases, st.bytes, density)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
