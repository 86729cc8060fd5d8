// Package httpkit is the one place a Sage HTTP tier gets its operational
// surface from: the Prometheus scrape endpoint, the trace export, the
// profiling endpoints, the server span around the tier's own routes, the
// JSON reply writer, and a listener hardened against stuck clients.
// The daemon, replica and gateway handlers and every sagectl listener
// are assembled through it, so a new tier cannot ship without one of
// the pieces or with its own variant of one.
package httpkit

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Handler fronts a tier's own handler with the shared surface:
//
//	GET /metrics         reg in the Prometheus text format
//	GET /debug/trace     tracer's snapshot plus reg's histogram exemplars
//	    /debug/pprof/*   net/http/pprof
//
// The /debug routes exist only with a non-nil tracer (sagectl's -debug);
// without one those paths reach next like any other. It is a path switch,
// not a ServeMux: a request for the tier's own API pays two string
// comparisons and no allocation on its way to next.
//
// With a tracer, next — and only next: a scrape is not a request — runs
// under the server span of tracer.Middleware (trace.FromContext).
func Handler(reg *metrics.Registry, tracer *trace.Tracer, next http.Handler) http.Handler {
	k := &kit{reg: reg, next: tracer.Middleware(next)}
	if tracer != nil {
		k.traces = tracer.DebugHandler(func() any { return reg.Exemplars() })
	}
	return k
}

type kit struct {
	reg    *metrics.Registry
	traces http.Handler // nil: the debug surface is off
	next   http.Handler
}

func (k *kit) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = k.reg.TextExpose(w)
	case k.traces != nil && path == "/debug/trace":
		k.traces.ServeHTTP(w, r)
	case k.traces != nil && strings.HasPrefix(path, "/debug/pprof/"):
		// Explicit routes, not the package's blank-import registration:
		// no Sage listener serves http.DefaultServeMux. Index also
		// serves the named profiles (heap, goroutine, ...).
		switch path[len("/debug/pprof/"):] {
		case "cmdline":
			pprof.Cmdline(w, r)
		case "profile":
			pprof.Profile(w, r)
		case "symbol":
			pprof.Symbol(w, r)
		case "trace":
			pprof.Trace(w, r)
		default:
			pprof.Index(w, r)
		}
	default:
		k.next.ServeHTTP(w, r)
	}
}

// WriteJSON answers with status code and v as the JSON body — the one
// reply writer behind every tier's status, error and result documents.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // past the status line an error can only cut the body short
}

// NewServer wraps a handler in an http.Server hardened against slow or
// stuck clients: a connection that trickles its headers, never sends its
// body, or never reads its response is bounded instead of pinning a
// goroutine and its buffers forever. (The gateway additionally bounds
// each *upstream* attempt with its own deadline.)
func NewServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}
