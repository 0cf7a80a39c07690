package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"hetdsm/internal/flight"
)

// ServerConfig wires a node's diagnostics into the HTTP server. Every
// field is optional; a route whose source is nil serves an empty result.
type ServerConfig struct {
	// Registry backs /metrics (Prometheus text exposition format).
	Registry *Registry
	// Stats backs /stats: it returns the node's Eq. 1 breakdown document
	// (the same shape the -stats-json flags print), called per request so
	// a running node serves live numbers.
	Stats func() map[string]any
	// Events backs /trace and /spans: the node's event ring, whose
	// moments and spans each endpoint streams as JSONL.
	Events *flight.Ring
	// Heat backs /heat: it returns the node's page-heat report, called
	// per request.
	Heat func() any
}

// NewMux builds the diagnostics route table:
//
//	/metrics     Prometheus text exposition (counters, gauges,
//	             histogram buckets and p50/p95/p99 quantiles)
//	/stats       Eq. 1 breakdown JSON
//	/trace       the event ring's protocol moments as JSONL
//	/spans       the event ring's release-pipeline spans as JSONL
//	/heat        page-heat report JSON
//	/debug/pprof Go runtime profiles
func NewMux(cfg ServerConfig) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "hetdsm diagnostics")
		for _, route := range []string{"/metrics", "/stats", "/trace", "/spans", "/heat", "/debug/pprof/"} {
			fmt.Fprintln(w, " ", route)
		}
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cfg.Registry.WritePrometheus(w); err != nil {
			// The connection died mid-write; nothing to report to.
			return
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		var doc map[string]any
		if cfg.Stats != nil {
			doc = cfg.Stats()
		}
		if doc == nil {
			doc = map[string]any{}
		}
		writeJSON(w, doc)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = cfg.Events.WriteLines(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		_ = WriteSpans(w, cfg.Events)
	})
	mux.HandleFunc("/heat", func(w http.ResponseWriter, r *http.Request) {
		var doc any
		if cfg.Heat != nil {
			doc = cfg.Heat()
		}
		if doc == nil {
			doc = map[string]any{}
		}
		writeJSON(w, doc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// Server is a running diagnostics endpoint.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// ListenAndServe starts the diagnostics server on addr (host:port; an
// empty port picks a free one) and serves until Close.
func ListenAndServe(addr string, cfg ServerConfig) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           NewMux(cfg),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() { _ = srv.Serve(l) }()
	return &Server{l: l, srv: srv}, nil
}

// Addr returns the bound address (useful with a ":0" listen spec).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.l.Addr().String()
}

// Close stops serving. Safe on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
