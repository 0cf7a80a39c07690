package telemetry

import (
	"fmt"
	"os"

	"hetdsm/internal/flight"
)

// Kit bundles the per-node observability plumbing the binaries share: a
// metrics registry, the diagnostics HTTP server, and the on-exit JSONL
// dumps of the node's event ring. A nil *Kit is fully disabled — every
// accessor returns nil and every method is a no-op — so callers thread
// k.Registry() into dsd.Options unconditionally.
type Kit struct {
	reg      *Registry
	events   *flight.Ring
	srv      *Server
	addr     string
	traceOut string
	spanOut  string
}

// NewKit builds the observability stack a node was asked for over its
// event ring:
//
//   - metricsAddr != "": a registry and a diagnostics server on that
//     address (start it with Serve) whose /trace and /spans read events.
//   - traceOut != "": Close writes the ring's moments to the file as JSONL.
//   - spanOut != "": Close writes the ring's spans to the file as JSONL.
//
// When every address is empty NewKit returns nil, the disabled kit.
func NewKit(metricsAddr, traceOut, spanOut string, events *flight.Ring) *Kit {
	if metricsAddr == "" && traceOut == "" && spanOut == "" {
		return nil
	}
	k := &Kit{events: events, addr: metricsAddr, traceOut: traceOut, spanOut: spanOut}
	if metricsAddr != "" {
		k.reg = New()
	}
	return k
}

// Registry returns the metrics registry (nil when disabled).
func (k *Kit) Registry() *Registry {
	if k == nil {
		return nil
	}
	return k.reg
}

// Serve starts the diagnostics HTTP server when the kit was built with
// a metrics address. stats and heat back the /stats and /heat routes
// and may be nil.
func (k *Kit) Serve(stats func() map[string]any, heat func() any) error {
	if k == nil || k.addr == "" {
		return nil
	}
	srv, err := ListenAndServe(k.addr, ServerConfig{
		Registry: k.reg,
		Stats:    stats,
		Events:   k.events,
		Heat:     heat,
	})
	if err != nil {
		return err
	}
	k.srv = srv
	fmt.Fprintf(os.Stderr, "telemetry: diagnostics on http://%s/ (/metrics /stats /trace /spans /heat /debug/pprof)\n", srv.Addr())
	return nil
}

// Close writes the requested JSONL dumps and stops the server. The
// first error wins, but every step still runs.
func (k *Kit) Close() error {
	if k == nil {
		return nil
	}
	var first error
	dump := func(path string, write func(f *os.File) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = write(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil && first == nil {
			first = err
		}
	}
	dump(k.traceOut, func(f *os.File) error { return k.events.WriteLines(f) })
	dump(k.spanOut, func(f *os.File) error { return WriteSpans(f, k.events) })
	if err := k.srv.Close(); err != nil && first == nil {
		first = err
	}
	return first
}
