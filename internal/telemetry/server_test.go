package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetdsm/internal/flight"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
}

func TestDiagnosticsEndpoints(t *testing.T) {
	reg := New()
	reg.Counter("dsm_locks_total", "locks").Add(2)
	reg.Histogram("dsm_barrier_wait_seconds", "barrier wait").Observe(0.004)

	events := flight.New(8)
	events.Note("home", flight.KindLockGrant, 1, 0, 0, "")
	events.Span("rank-1", StageIndex, 1, 7, 0, 0, time.Unix(1, 0), time.Millisecond, 0)

	cfg := ServerConfig{
		Registry: reg,
		Stats:    func() map[string]any { return map[string]any{"total_seconds": 0.5} },
		Events:   events,
		Heat:     func() any { return map[string]any{"page_size": 4096} },
	}
	srv := httptest.NewServer(NewMux(cfg))
	defer srv.Close()

	code, body, ct := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(ct, "text/plain") {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"dsm_locks_total 2",
		"# TYPE dsm_barrier_wait_seconds histogram",
		"dsm_barrier_wait_seconds_p95",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body, ct = get(t, srv, "/stats")
	if code != http.StatusOK || !strings.Contains(ct, "application/json") {
		t.Fatalf("/stats status %d content type %q", code, ct)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/stats not JSON: %v", err)
	}
	if stats["total_seconds"] != 0.5 {
		t.Errorf("/stats = %v", stats)
	}

	code, body, _ = get(t, srv, "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	if !strings.Contains(body, `"kind":"lock-grant"`) || strings.Contains(body, "stage") {
		t.Errorf("/trace must hold the moment and no span: %s", body)
	}

	code, body, _ = get(t, srv, "/spans")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	if !strings.Contains(body, `"stage":"index"`) || strings.Contains(body, "lock-grant") {
		t.Errorf("/spans must hold the span and no moment: %s", body)
	}

	code, body, _ = get(t, srv, "/heat")
	if code != http.StatusOK {
		t.Fatalf("/heat status %d", code)
	}
	if !strings.Contains(body, "4096") {
		t.Errorf("/heat = %s", body)
	}

	code, body, _ = get(t, srv, "/")
	if code != http.StatusOK || !strings.Contains(body, "/metrics") {
		t.Errorf("index page: %d %s", code, body)
	}
	if code, _, _ := get(t, srv, "/nope"); code != http.StatusNotFound {
		t.Errorf("unknown route status %d, want 404", code)
	}
	if code, body, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK || body == "" {
		t.Errorf("pprof cmdline: %d %q", code, body)
	}
}

func TestDiagnosticsEmptyConfig(t *testing.T) {
	srv := httptest.NewServer(NewMux(ServerConfig{}))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/stats", "/trace", "/spans", "/heat"} {
		if code, _, _ := get(t, srv, path); code != http.StatusOK {
			t.Errorf("%s with empty config: status %d", path, code)
		}
	}
}

func TestListenAndServe(t *testing.T) {
	s, err := ListenAndServe("127.0.0.1:0", ServerConfig{Registry: New()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() == "" {
		t.Fatal("empty bound address")
	}
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	var nils *Server
	if nils.Addr() != "" || nils.Close() != nil {
		t.Error("nil Server must be inert")
	}
}
