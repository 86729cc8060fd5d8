// Package replica implements Sage's replicated serving tier: the last
// hop of Fig. 1, where accepted models — "bundled with [their] feature
// transformation operators" — are *pushed into serving*. One
// trainer-side Publisher owns the authoritative store and pushes its
// releases to N replica Servers; each replica atomically applies
// them into a local read-only store and answers the same HTTP API as
// the single-node server (shared handler code, so the two can never
// drift).
//
// # Push protocol
//
// Versions are assigned once, by the publisher's store, and carried
// inside the bundle. A push is POST /push with the bundle's canonical
// bytes (store.Bundle.CanonicalBytes) as the body — the same bytes the
// publisher's store journaled for the release; a release has no other
// serialization. The replica's reply
// reports its *applied-version watermark* for that model name —
// watermark = n always means versions 1..n are applied, because the
// replica refuses gaps. The protocol is idempotent:
//
//   - version == watermark+1 → applied, watermark advances.
//   - version <= watermark → duplicate. The replica compares the
//     pushed bytes with the applied release's and acks without
//     reapplying; a difference is a 409 — a release can never be
//     silently replaced.
//   - version > watermark+1 → 409 with the watermark. The replica fell
//     behind since it reported its status, and the publisher's next
//     reconcile catches it up (see Catching up).
//
// Every stored release carries the model it serves, built as the
// release is applied, so a release whose model does not build is
// refused like a divergent one: 409, counted rejected, the replica's
// watermarks untouched, and it is a permanent error (IsPermanent).
//
// Replica stores are read-only from the network's point of view: only
// /push mutates them, and application happens under the store's write
// lock, so a concurrent /predict sees either the old set of releases or
// the new one, never a half-applied bundle.
//
// # Catching up
//
// A replica falls behind by joining late, by restarting without its
// state, or by being unreachable while releases were made. There is one
// way to deliver, and it is also the way back: the publisher reconciles
// the replica — reads GET /replica/status and pushes, in order, every
// release of every name past the watermarks the replica reports.
// Nothing selects this and nothing is remembered between deliveries:
// every delivery is one reconcile (Publisher.Converge), and Publisher.Sync
// runs one of every replica at once. Retrying is the caller's: the
// daemon converges each replica from one goroutine of its own, which
// runs another reconcile a while after a failed one unless IsPermanent,
// so no replica ever has two of its requests in flight. The watermarks a
// publisher caches are what each replica last said, never an input.
//
// # On the wire
//
// /push can be gated behind a shared-secret bearer token (WithAuthToken
// on the server, WithAuth on the Publisher): the mutating endpoint then
// rejects unauthenticated bodies with 401 before reading them, while
// the read API stays open. A push body is the release's canonical
// bytes, never re-encoded: the replica answers a push that declares any
// Content-Encoding but identity 415 without reading its body, so it
// runs no decoder but DecodeCanonicalBundle, and one past the push
// row's budget 413, a permanent error too.
package replica

import (
	"crypto/subtle"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
)

// PushStatus is a replica's reply to one push (and one entry of the
// status listing): the applied-version watermark after the push, and
// whether this delivery changed it.
type PushStatus struct {
	Name    string `json:"name"`
	Version int    `json:"version"`
	// Applied is true when this delivery advanced the store; false for
	// an idempotent re-delivery.
	Applied bool `json:"applied"`
	// Watermark is the replica's applied version count for Name: all of
	// versions 1..Watermark are present.
	Watermark int `json:"watermark"`
}

// Status is the reply to GET /replica/status — the health and lag
// signal the gateway tier routes on: a replica whose watermarks trail
// the fleet is drained (not killed) until it catches up, and Inflight
// exposes the replica's current serving load for observability.
type Status struct {
	// Watermarks maps model name → applied version count.
	Watermarks map[string]int `json:"watermarks"`
	Generation uint64         `json:"generation"`
	// Models is the number of distinct model names applied.
	Models int `json:"models"`
	// Inflight is the number of serving-API requests currently being
	// handled (push and status traffic excluded).
	Inflight int64 `json:"inflight"`
}

// gapResponse is the 409 body for out-of-order pushes: it carries the
// watermark so the publisher knows where to resume.
type gapResponse struct {
	Error     string `json:"error"`
	Name      string `json:"name"`
	Watermark int    `json:"watermark"`
}

// Server is one serving replica: a local store that only /push can
// mutate, behind the exact same serving handlers as the single-node
// tier (store.Server — shared code, not a copy), plus the push and
// status endpoints of the replication protocol.
type Server struct {
	store *store.Store
	srv   *store.Server
	// authToken, when non-empty, gates POST /push behind
	// "Authorization: Bearer <token>".
	authToken string
	// reg is the replica's metric registry, served at GET /metrics.
	// GET /replica/status reads the same handles — the registry is the
	// single source of truth, there is no parallel bookkeeping.
	reg *metrics.Registry
	// inflight counts serving-API requests currently in progress
	// (push, status, and metrics traffic excluded); the
	// sage_replica_inflight_requests gauge and GET /replica/status
	// both read it.
	inflight atomic.Int64
	// Push outcome counters, pre-resolved per outcome so the push path
	// does no registry lookups.
	pushApplied      *metrics.Counter
	pushDuplicate    *metrics.Counter
	pushGap          *metrics.Counter
	pushRejected     *metrics.Counter
	pushUnauthorized *metrics.Counter
	pushBadBody      *metrics.Counter
	pushSec          *metrics.Histogram
	// tracer, when non-nil, runs every request under httpkit's server
	// span (continuing any incoming traceparent — the gateway's attempt
	// span) and turns on the /debug surface.
	tracer *trace.Tracer
}

// ServerOption configures a replica server.
type ServerOption func(*Server)

// WithAuthToken requires pushes to carry "Authorization: Bearer tok".
// An empty token leaves /push open (the default, for in-process tests
// and trusted networks). Only the mutating endpoint is gated; the read
// API a replica exists to serve stays public.
func WithAuthToken(tok string) ServerOption {
	return func(s *Server) { s.authToken = tok }
}

// WithTracer enables request tracing: every request runs under a
// server span continuing any incoming traceparent, and the handler
// serves GET /debug/trace and /debug/pprof/. A nil tracer (the default)
// leaves the serving path untraced and unchanged.
func WithTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// NewServer returns an empty replica. It serves nothing until a
// publisher pushes bundles into it.
func NewServer(opts ...ServerOption) *Server {
	st := store.New()
	reg := metrics.New()
	s := &Server{store: st, srv: store.NewServer(st), reg: reg}
	s.srv.Instrument(reg)
	reg.GaugeFunc("sage_replica_inflight_requests",
		"Serving-API requests currently in progress.",
		func() float64 { return float64(s.inflight.Load()) })
	outcome := func(o string) *metrics.Counter {
		return reg.Counter("sage_replica_pushes_total",
			"Push deliveries by outcome.", metrics.Label{Name: "outcome", Value: o})
	}
	s.pushApplied = outcome("applied")
	s.pushDuplicate = outcome("duplicate")
	s.pushGap = outcome("gap")
	s.pushRejected = outcome("rejected")
	s.pushUnauthorized = outcome("unauthorized")
	s.pushBadBody = outcome("bad_body")
	s.pushSec = reg.Histogram("sage_replica_push_seconds",
		"Latency of one POST /push delivery.", metrics.LatencyBuckets())
	reg.GaugeFunc("sage_replica_applied_versions_total",
		"Sum of applied-version watermarks across all model names.",
		func() float64 {
			total := 0
			for _, wm := range st.Watermarks() {
				total += wm
			}
			return float64(total)
		})
	reg.GaugeFunc("sage_replica_models",
		"Distinct model names applied.",
		func() float64 { return float64(len(st.Watermarks())) })
	for _, o := range opts {
		o(s)
	}
	return s
}

// Metrics exposes the replica's registry (tests scrape it without
// going through HTTP).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Store exposes the replica's local store (tests and diagnostics; the
// serving path never hands it out).
func (s *Server) Store() *store.Store { return s.store }

// Routes declares the replica's HTTP API: the single-node serving API
// (store.API, each request counted in flight) plus POST /push and GET
// /replica/status.
func (s *Server) Routes() []httpkit.Route {
	routes := s.srv.Routes()
	for i, rt := range routes {
		routes[i].Serve = func(w http.ResponseWriter, r *http.Request) {
			s.inflight.Add(1)
			defer s.inflight.Add(-1)
			rt.Serve(w, r)
		}
	}
	// 64 MiB bounds a bundle's canonical bytes: paper-scale models are a
	// few KB, the rest is room for wide released aggregates.
	return append(routes, httpkit.Route{Pattern: "POST /push", Body: 64 << 20, Serve: s.handlePush},
		httpkit.Route{Pattern: "GET /replica/status", Serve: s.handleStatus})
}

// Handler serves Routes with httpkit's shared surface (/metrics, /debug/*).
func (s *Server) Handler() http.Handler { return httpkit.Handler(s.reg, s.tracer, s.Routes()) }

// authorized checks the shared-secret bearer token in constant time.
func (s *Server) authorized(r *http.Request) bool {
	if s.authToken == "" {
		return true
	}
	got := r.Header.Get("Authorization")
	want := "Bearer " + s.authToken
	return subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1
}

// handlePush applies one pushed release: a body of its canonical bytes,
// read under the push row's budget. A declared coding is refused unread.
func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	defer s.pushSec.ObserveSinceExemplar(time.Now(), trace.CtxTraceID(r.Context()))
	if !s.authorized(r) {
		s.pushUnauthorized.Inc()
		w.Header().Set("WWW-Authenticate", `Bearer realm="sage-replica"`)
		httpkit.WriteJSON(w, http.StatusUnauthorized, map[string]string{"error": "push requires a valid bearer token"})
		return
	}
	for _, coding := range r.Header.Values("Content-Encoding") {
		if coding != "" && !strings.EqualFold(coding, "identity") {
			s.pushBadBody.Inc()
			httpkit.WriteJSON(w, http.StatusUnsupportedMediaType, map[string]string{"error": "a push body carries no Content-Encoding"})
			return
		}
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		s.pushBadBody.Inc()
		httpkit.BodyError(w, "reading bundle", err)
		return
	}
	b, err := store.DecodeCanonicalBundle(raw)
	if err != nil {
		s.pushBadBody.Inc()
		httpkit.WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	applied, err := s.store.Apply(*b)
	if err != nil {
		if gap, ok := err.(*store.VersionGapError); ok {
			s.pushGap.Inc()
			httpkit.WriteJSON(w, http.StatusConflict, gapResponse{
				Error: gap.Error(), Name: gap.Name, Watermark: gap.Watermark,
			})
			return
		}
		// A divergent release, an unversioned bundle or
		// one whose model does not build.
		s.pushRejected.Inc()
		httpkit.WriteJSON(w, http.StatusConflict, map[string]string{"error": err.Error()})
		return
	}
	if applied {
		s.pushApplied.Inc()
	} else {
		s.pushDuplicate.Inc()
	}
	httpkit.WriteJSON(w, http.StatusOK, PushStatus{
		Name: b.Name, Version: b.Version,
		Applied:   applied,
		Watermark: s.store.VersionCount(b.Name),
	})
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	wms := s.store.Watermarks()
	httpkit.WriteJSON(w, http.StatusOK, Status{
		Watermarks: wms,
		Generation: s.store.Generation(),
		Models:     len(wms),
		Inflight:   s.inflight.Load(),
	})
}
