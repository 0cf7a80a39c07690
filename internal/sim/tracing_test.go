package sim

import (
	"bytes"
	"strings"
	"testing"

	"hetdsm/internal/telemetry"
)

// TestTracedReleaseCrossesThreeNodes: a seeded run with a write-ahead log
// must yield at least one release whose causal chain is stitched across
// three or more nodes (sender thread, home, WAL) with correct parent/child
// span ids at every hop — in particular the cross-node edge where the
// home's unpack span names the sender's ship span as its parent without
// the id ever crossing the wire.
func TestTracedReleaseCrossesThreeNodes(t *testing.T) {
	res := Run(NewPlan(5, ProfileHomeCrashRestart, "LL"))
	if !res.OK() {
		t.Fatalf("homecrash-restart run failed:\n%s", res.Report())
	}
	if len(res.Spans) == 0 {
		t.Fatal("run recorded no spans")
	}
	rels := telemetry.MergeTimeline(res.Spans)
	var wide *telemetry.Release
	for i := range rels {
		if rels[i].TraceID != 0 && len(rels[i].Nodes()) >= 3 {
			wide = &rels[i]
			break
		}
	}
	if wide == nil {
		t.Fatalf("no release spans 3 nodes; %d releases, widest %d nodes",
			len(rels), widest(rels))
	}
	// The cross-node edge: the home's unpack span must parent to the id
	// the sender derived for its own ship span.
	ship, ok := wide.Stage(telemetry.StageShip)
	if !ok {
		t.Fatalf("3-node release missing ship span: %+v", wide.Spans)
	}
	unpack, ok := wide.Stage(telemetry.StageUnpack)
	if !ok {
		t.Fatalf("3-node release missing unpack span: %+v", wide.Spans)
	}
	if unpack.Parent != ship.SpanID {
		t.Fatalf("unpack parent %x != ship span id %x", unpack.Parent, ship.SpanID)
	}
	// Every non-root edge must resolve inside the release — no span may
	// name a parent belonging to a different trace.
	ids := make(map[uint64]bool, len(wide.Spans))
	for _, s := range wide.Spans {
		ids[s.SpanID] = true
	}
	for _, s := range wide.Spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %s@%s has dangling parent %x", s.Stage, s.Node, s.Parent)
		}
	}
	// And the critical path must traverse at least sender → home.
	cp := wide.CriticalPath()
	if len(cp) < 3 {
		t.Fatalf("critical path too short: %d spans", len(cp))
	}
}

// TestFlightDumpCoversHomeRestart pins the black-box acceptance: the
// mid-run home kill must leave a restart event in the run's flight dump,
// alongside the steady-state grants and barriers that preceded it.
func TestFlightDumpCoversHomeRestart(t *testing.T) {
	res := Run(NewPlan(5, ProfileHomeCrashRestart, "LL"))
	if !res.OK() {
		t.Fatalf("homecrash-restart run failed:\n%s", res.Report())
	}
	if res.FlightDump == "" {
		t.Fatal("run produced no flight dump")
	}
	for _, want := range []string{"restart", "grant", "barrier-open"} {
		if !strings.Contains(res.FlightDump, want) {
			t.Fatalf("flight dump missing %q events:\n%s", want, res.FlightDump)
		}
	}
}

// TestFlightDumpOnWALRecovery runs the single-home crash-restart profile:
// the WAL reopen must note the restart with its replay count, proving the
// black box survives the incarnation change it documents.
func TestFlightDumpOnWALRecovery(t *testing.T) {
	res := Run(NewPlan(3, ProfileHomeCrashRestart, "LL"))
	if !res.OK() {
		t.Fatalf("homecrash run failed:\n%s", res.Report())
	}
	if !strings.Contains(res.FlightDump, "restart") {
		t.Fatalf("flight dump missing the WAL restart event:\n%s", res.FlightDump)
	}
}

// TestTracingPreservesDeterminism re-runs a traced plan and requires the
// canonical trace to stay byte-identical: span recording must never leak
// into the event stream the replay guarantee is built on.
func TestTracingPreservesDeterminism(t *testing.T) {
	plan := NewPlan(11, ProfileHomeCrashRestart, "SL")
	a := Run(plan)
	if !a.OK() {
		t.Fatalf("first run:\n%s", a.Report())
	}
	b := Run(plan)
	if !b.OK() {
		t.Fatalf("second run:\n%s", b.Report())
	}
	if !bytes.Equal(a.Canonical, b.Canonical) {
		t.Fatal("tracing broke canonical-trace determinism")
	}
}

func widest(rels []telemetry.Release) int {
	w := 0
	for i := range rels {
		if n := len(rels[i].Nodes()); n > w {
			w = n
		}
	}
	return w
}
