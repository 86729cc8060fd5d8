// Package httpkit is the one place a Sage HTTP tier gets its surface
// from: one ServeMux built from the tier's declared routes with each
// body capped, the Prometheus scrape endpoint, the trace export, the
// profiling endpoints, the server span around the tier's own routes,
// the JSON reply writer and reader, and a listener hardened against
// stuck clients. The daemon, replica and gateway handlers and every
// sagectl listener are assembled through it, so a new tier cannot ship
// without one of the pieces or with its own variant of one.
package httpkit

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// Route is one endpoint of a tier, declared once: its ServeMux pattern
// ("GET /path", or a bare path for any method), Body — the most
// request-body bytes it reads, 0 for none — and its handler.
type Route struct {
	Pattern string
	Body    int64
	Serve   http.HandlerFunc
}

// Mux serves routes from one ServeMux, each under tracer's server span
// (trace.FromContext; none with a nil tracer) and its Body budget. A
// body declared past a positive budget is 413 before the handler runs;
// any other is read through http.MaxBytesReader at the budget, whose
// error a handler answers with BodyError. A route without a budget
// reads no body: its handler answers on its own terms, and one that
// reads anyway (the gateway's proxy) fails at the first byte. A
// declared path asked with another method answers 405, any other 404.
func Mux(tracer *trace.Tracer, routes []Route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.Handle(rt.Pattern, tracer.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if rt.Body > 0 && r.ContentLength > rt.Body {
				BodyError(w, "", &http.MaxBytesError{Limit: rt.Body})
				return
			}
			if r.ContentLength != 0 { // -1: unknown until read
				r.Body = http.MaxBytesReader(w, r.Body, rt.Body)
			}
			rt.Serve(w, r)
		})))
	}
	return mux
}

// Handler is a tier's whole HTTP surface: Mux over its routes plus the
// shared ones,
//
//	GET /metrics         reg in the Prometheus text format
//	GET /debug/trace     tracer's snapshot plus reg's histogram exemplars
//	    /debug/pprof/*   net/http/pprof
//
// which run outside the server span (a scrape is not a request). The
// /debug routes exist only with a non-nil tracer (sagectl's -debug). A
// tier route that collides with a shared one panics here, at assembly.
func Handler(reg *metrics.Registry, tracer *trace.Tracer, routes []Route) http.Handler {
	mux := Mux(tracer, routes)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.TextExpose(w)
	})
	if tracer != nil {
		mux.Handle("GET /debug/trace", tracer.DebugHandler(func() any { return reg.Exemplars() }))
		// Explicit routes, not the package's blank-import registration:
		// no Sage listener serves http.DefaultServeMux. Index also
		// serves the named profiles (heap, goroutine, ...).
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// jsonContentType is every JSON reply's Content-Type value, shared by
// all of them instead of the fresh slice Header().Set makes per reply.
// Its len is its cap, so an Add appends to a copy, and net/http only
// reads it.
var jsonContentType = []string{"application/json"}

// WriteJSON answers with status code and v as the JSON body — the one
// reply writer behind every tier's status, error and result documents.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // past the status line an error can only cut the body short
}

// WriteEncodedJSON answers with status code and body, a JSON document
// the caller has already encoded (a cached reply, an append-encoded
// batch).
func WriteEncodedJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// BodyError answers a request whose body could not be read or decoded:
// 413 when the read ran past the route's Body budget, 400 saying what
// failed otherwise.
func BodyError(w http.ResponseWriter, what string, err error) {
	if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
		WriteJSON(w, http.StatusRequestEntityTooLarge, map[string]string{
			"error": fmt.Sprintf("request body exceeds the %d-byte limit", tooBig.Limit),
		})
		return
	}
	WriteJSON(w, http.StatusBadRequest, map[string]string{"error": what + ": " + err.Error()})
}

// Reply limits for ReadJSON: a replica's status, push ack or gap reply;
// GET /daemon/status, which lists every replica's watermarks; and GET
// /debug/trace, a tracer's whole snapshot.
const (
	StatusReplyBytes  = 1 << 20
	DaemonStatusBytes = 8 << 20
	TraceReplyBytes   = 32 << 20
)

// ReadJSON decodes one JSON document from a peer's reply into v,
// reading at most limit bytes — the one reader behind every client-side
// decode, so a peer that streams an endless body costs limit bytes and
// an error, never the reader's heap.
func ReadJSON(r io.Reader, limit int64, v any) error {
	lr := &io.LimitedReader{R: r, N: limit}
	err := json.NewDecoder(lr).Decode(v)
	if err != nil && lr.N == 0 {
		return fmt.Errorf("reply exceeds %d bytes: %w", limit, err)
	}
	return err
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
