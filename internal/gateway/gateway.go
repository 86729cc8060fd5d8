// gateway.go implements the proxy itself: backend bookkeeping, health
// probes, least-loaded routing with failover, and the HTTP surface.
// The design rationale and fault model live in doc.go.
package gateway

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/trace"
)

// maxResponseBytes bounds a buffered upstream response (buffered so
// completeness is verified before any byte reaches the client).
const maxResponseBytes = 64 << 20

// Config configures a Gateway.
type Config struct {
	// Backends are replica base URLs (e.g. "http://10.0.0.7:8081"). New
	// refuses one that is not an absolute http(s) URL with a host (see
	// replica.CheckEndpoints) and parses each once: every attempt and
	// probe builds its target from that parse.
	Backends []string
	// Transport performs upstream requests (default http.DefaultTransport;
	// tests inject faulty transports).
	Transport http.RoundTripper
	// AttemptTimeout bounds one proxied attempt (default 10s). A request
	// that fails over pays at most two attempts; the client's own
	// context cancellation is propagated under the per-attempt deadline.
	AttemptTimeout time.Duration
	// HealthInterval is the active health-probe period (default 2s).
	// One status probe is bounded by min(HealthInterval, 1s).
	HealthInterval time.Duration
	// LagVersions drains a backend whose total applied-version watermark
	// trails the fleet maximum by more than this many versions
	// (default 2). Drained backends are routed around, not failed.
	LagVersions int
	// Breaker tunes the per-backend circuit breakers.
	Breaker BreakerConfig
	// Limits bounds per-class in-flight admission.
	Limits Limits
	// Logf receives state-transition lines (default: discard).
	Logf func(format string, args ...any)
	// Tracer records request traces: a root span per request plus one
	// child span per routing attempt, so a failover shows up as two
	// attempt spans under one trace. Nil disables tracing — the serving
	// path is then byte-for-byte the untraced one.
	Tracer *trace.Tracer
}

func (c *Config) applyDefaults() {
	if c.Transport == nil {
		c.Transport = http.DefaultTransport
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 10 * time.Second
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.LagVersions <= 0 {
		c.LagVersions = 2
	}
	c.Breaker.applyDefaults()
	c.Limits.applyDefaults()
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// backend is one replica endpoint and the gateway's view of it.
type backend struct {
	url string
	// base is url as parsed by New, with an empty port trimmed from its
	// host as http.NewRequest trims it. rawPath is its path as written
	// in url, the prefix an escaped request path is appended to.
	base    url.URL
	rawPath string
	breaker *Breaker
	// inflight is this gateway's requests currently proxied to the
	// backend — the least-loaded routing key.
	inflight atomic.Int64
	// down: the last health probe could not reach the backend (false,
	// so routable, until a probe says otherwise).
	down atomic.Bool
	// draining: reachable but its watermarks trail the fleet (stale
	// reads would violate the canonical-bytes invariant).
	draining atomic.Bool
	// applied is the backend's total applied-version watermark from the
	// last successful probe.
	applied atomic.Int64
	// requests/failures live in the gateway's metric registry (labeled
	// by backend); the status report reads the same series.
	requests *metrics.Counter
	failures *metrics.Counter
	// transitions counts breaker state changes by destination state,
	// fed by the breaker's OnTransition hook.
	transitions [3]*metrics.Counter

	mu      sync.Mutex
	lastErr string
}

func (b *backend) noteError(err error) {
	b.failures.Inc()
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
}

func (b *backend) lastError() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastErr
}

// Gateway is the routing tier instance. Construct with New, optionally
// Start the active health loop, and serve Handler().
type Gateway struct {
	cfg      Config
	backends []*backend
	adm      *admission
	// rr breaks least-loaded ties round-robin.
	rr atomic.Uint64
	// reg is the gateway's metric registry, served at GET /metrics.
	// Every counter the status report exposes is a view over it.
	reg        *metrics.Registry
	proxied    *metrics.Counter
	retries    *metrics.Counter
	unroutable *metrics.Counter
	// reqSec is the per-route-class request latency histogram,
	// pre-resolved per class.
	reqSec [numClasses]*metrics.Histogram

	startOnce sync.Once
	stop      context.CancelFunc
	done      chan struct{}
}

// New returns a gateway over the given replica endpoints.
func New(cfg Config) (*Gateway, error) {
	cfg.applyDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("gateway: no backends configured")
	}
	if err := replica.CheckEndpoints(cfg.Backends); err != nil {
		return nil, fmt.Errorf("gateway: backends: %w", err)
	}
	reg := metrics.New()
	g := &Gateway{cfg: cfg, adm: newAdmission(cfg.Limits, reg), reg: reg, done: make(chan struct{})}
	g.proxied = reg.Counter("sage_gateway_proxied_total",
		"Requests successfully proxied to a backend.")
	g.retries = reg.Counter("sage_gateway_retries_total",
		"Failed attempts that triggered (or exhausted) failover.")
	g.unroutable = reg.Counter("sage_gateway_unroutable_total",
		"Requests no backend could serve.")
	for c := store.Class(0); c < numClasses; c++ {
		g.reqSec[c] = reg.Histogram("sage_gateway_request_seconds",
			"Gateway request latency by route class (all terminal outcomes).",
			metrics.LatencyBuckets(), metrics.Label{Name: "class", Value: c.String()})
	}
	for _, u := range cfg.Backends {
		base, err := url.Parse(u)
		if err != nil {
			return nil, fmt.Errorf("gateway: backends: %w", err)
		}
		base.Host = strings.TrimSuffix(base.Host, ":")
		b := &backend{url: u, base: *base, rawPath: base.RawPath, breaker: NewBreaker(cfg.Breaker)}
		if b.rawPath == "" {
			b.rawPath = base.EscapedPath()
		}
		lbl := metrics.Label{Name: "backend", Value: u}
		b.requests = reg.Counter("sage_gateway_backend_requests_total",
			"Attempts forwarded to the backend.", lbl)
		b.failures = reg.Counter("sage_gateway_backend_failures_total",
			"Forwarded attempts that failed (transport error or 5xx).", lbl)
		for _, to := range []BreakerState{BreakerClosed, BreakerOpen, BreakerHalfOpen} {
			b.transitions[to] = reg.Counter("sage_gateway_breaker_transitions_total",
				"Breaker state changes, by backend and destination state.",
				lbl, metrics.Label{Name: "to", Value: to.String()})
		}
		b.breaker.OnTransition(func(from, to BreakerState) {
			b.transitions[to].Inc()
			trace.Eventf(cfg.Logf, "gateway: event=breaker backend=%s from=%s to=%s", u, from, to)
		})
		reg.GaugeFunc("sage_gateway_breaker_state",
			"Breaker position: 0 closed, 1 open, 2 half-open.",
			func() float64 { return float64(b.breaker.State()) }, lbl)
		reg.GaugeFunc("sage_gateway_backend_applied_versions",
			"Backend's total applied-version watermark from the last probe.",
			func() float64 { return float64(b.applied.Load()) }, lbl)
		reg.GaugeFunc("sage_gateway_backend_inflight_requests",
			"Requests this gateway currently has in flight to the backend.",
			func() float64 { return float64(b.inflight.Load()) }, lbl)
		g.backends = append(g.backends, b)
	}
	return g, nil
}

// Metrics exposes the gateway's registry (tests scrape it without
// going through HTTP).
func (g *Gateway) Metrics() *metrics.Registry { return g.reg }

// Start runs one synchronous health-probe round (so routing decisions
// are informed from the first request) and then begins the periodic
// health loop. Idempotent.
func (g *Gateway) Start() {
	g.startOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		g.stop = cancel
		g.probeAll(ctx)
		go func() {
			defer close(g.done)
			ticker := time.NewTicker(g.cfg.HealthInterval)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					g.probeAll(ctx)
				}
			}
		}()
	})
}

// Stop halts the health loop (if started).
func (g *Gateway) Stop() {
	if g.stop != nil {
		g.stop()
		<-g.done
	}
}

// probeAll health-checks every backend concurrently, then recomputes
// fleet lag: reachable backends whose total applied watermark trails the
// fleet max by more than LagVersions are drained until they catch up.
func (g *Gateway) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range g.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			g.probe(ctx, b)
		}(b)
	}
	wg.Wait()

	// Fleet-lag pass. The newest watermark any live replica reports is
	// the fleet's serving frontier; a backend behind it would serve
	// stale (non-canonical) bytes.
	fleetMax := int64(-1)
	for _, b := range g.backends {
		if !b.down.Load() && b.applied.Load() > fleetMax {
			fleetMax = b.applied.Load()
		}
	}
	if fleetMax < 0 {
		return // whole fleet unreachable; nothing to compare against
	}
	for _, b := range g.backends {
		if b.down.Load() {
			continue
		}
		lagging := fleetMax-b.applied.Load() > int64(g.cfg.LagVersions)
		if lagging != b.draining.Load() {
			b.draining.Store(lagging)
			if lagging {
				trace.Eventf(g.cfg.Logf, "gateway: event=replica_drain backend=%s applied=%d fleet=%d", b.url, b.applied.Load(), fleetMax)
			} else {
				trace.Eventf(g.cfg.Logf, "gateway: event=replica_undrain backend=%s applied=%d", b.url, b.applied.Load())
			}
		}
	}
}

// probe fetches one backend's replica status.
func (g *Gateway) probe(ctx context.Context, b *backend) {
	ctx, cancel := context.WithTimeout(ctx, min(g.cfg.HealthInterval, time.Second))
	defer cancel()
	var target url.URL
	b.target(&target, &statusPath)
	resp, err := g.cfg.Transport.RoundTrip(newRequest(ctx, http.MethodGet, &target, make(http.Header)))
	if err != nil {
		g.markDown(b, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		g.markDown(b, fmt.Errorf("status probe: HTTP %d", resp.StatusCode))
		return
	}
	var st replica.Status
	if err := httpkit.ReadJSON(resp.Body, httpkit.StatusReplyBytes, &st); err != nil {
		g.markDown(b, fmt.Errorf("status probe: %w", err))
		return
	}
	total := int64(0)
	for _, wm := range st.Watermarks {
		total += int64(wm)
	}
	b.applied.Store(total)
	if b.down.Swap(false) {
		trace.Eventf(g.cfg.Logf, "gateway: event=replica_up backend=%s", b.url)
	}
}

func (g *Gateway) markDown(b *backend, err error) {
	if !b.down.Swap(true) {
		trace.Eventf(g.cfg.Logf, "gateway: event=replica_down backend=%s err=%v", b.url, err)
	}
	b.mu.Lock()
	b.lastErr = err.Error()
	b.mu.Unlock()
}

// pick chooses the next backend for one attempt: the least-loaded
// routable backend (ties broken round-robin) whose breaker admits the
// request. Health flags are advisory — if the strict pass leaves
// nothing (every backend down or draining by a possibly-stale probe
// view), a relaxed pass ignores them and lets the breakers, which are
// fed by request truth, decide. A fleet is never 503'd into silence by
// its own health checker.
func (g *Gateway) pick(exclude map[*backend]bool) *backend {
	// A candidate's load is read once: requests on other goroutines move
	// the counters while this one sorts and counts ties, and the tie
	// count is only ≥ 1 if both steps see the same numbers.
	type candidate struct {
		b    *backend
		load int64
	}
	// On the stack for fleets of up to len(room) backends.
	var room [8]candidate
	candidates := room[:0]
	for _, relaxed := range []bool{false, true} {
		candidates = candidates[:0]
		for _, b := range g.backends {
			if exclude[b] {
				continue
			}
			if !relaxed && (b.down.Load() || b.draining.Load()) {
				continue
			}
			candidates = append(candidates, candidate{b, b.inflight.Load()})
		}
		if len(candidates) == 0 {
			continue
		}
		// Least-loaded first; stable ties resolved round-robin.
		slices.SortStableFunc(candidates, func(a, b candidate) int {
			return cmp.Compare(a.load, b.load)
		})
		ties := 1
		for ties < len(candidates) && candidates[ties].load == candidates[0].load {
			ties++
		}
		offset := int(g.rr.Add(1) % uint64(ties))
		for i := range candidates {
			b := candidates[(offset+i)%len(candidates)].b
			if b.breaker.Allow() {
				return b
			}
		}
	}
	return nil
}

// Routes declares the gateway's HTTP API: the serving API (store.API),
// each row proxied under its own body budget and admission class, plus
// GET /gateway/status and the /push refusal. Any other path is the
// mux's 404, which spends no admission slot and no upstream hop.
func (g *Gateway) Routes() []httpkit.Route {
	routes := []httpkit.Route{
		{Pattern: "GET /gateway/status", Serve: func(w http.ResponseWriter, _ *http.Request) { httpkit.WriteJSON(w, http.StatusOK, g.Status()) }},
		// Mutations go publisher → replica directly; a load-balanced
		// push would desynchronize the fleet.
		{Pattern: "/push", Serve: func(w http.ResponseWriter, _ *http.Request) {
			httpkit.WriteJSON(w, http.StatusForbidden, map[string]string{"error": "push is a publisher-to-replica operation; the gateway only routes reads"})
		}},
	}
	for _, rt := range store.API {
		routes = append(routes, httpkit.Route{Pattern: rt.Pattern, Body: rt.Body, Serve: func(w http.ResponseWriter, r *http.Request) {
			g.proxy(w, r, rt.Class, rt.Body)
		}})
	}
	return routes
}

// Handler serves Routes with httpkit's shared surface: GET /metrics and,
// with a tracer, /debug/* are the gateway's own, never a backend's.
func (g *Gateway) Handler() http.Handler { return httpkit.Handler(g.reg, g.cfg.Tracer, g.Routes()) }

// proxy serves one row of the serving API: admit under the row's class
// (or shed) → buffer the body, at most the row's budget, in a pooled
// hopBuffers set → pick a backend → forward with a per-attempt deadline
// → on failure, fail over once to a different backend.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, class store.Class, budget int64) {
	// The server span is httpkit's (nil when tracing is off); the gateway
	// adds what only it knows: route class, its outcomes, attempt children.
	root := trace.FromContext(r.Context())
	root.SetAttr("class", class.String())
	defer g.reqSec[class].ObserveSinceExemplar(time.Now(), root.TraceIDString())
	if !g.adm.admit(class) {
		// Shed fast: an immediate, honest "try later" beats a queued
		// request that times out after pinning resources.
		root.SetOutcome("shed")
		w.Header().Set("Retry-After", "1")
		httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error": "gateway overloaded: " + class.String() + " request shed",
		})
		return
	}
	defer g.adm.release(class)

	// The handler's reference outlives w.Write below; each attempt's
	// request body holds its own until the transport closes it.
	set := getHop()
	defer set.unref()
	if r.ContentLength != 0 { // -1: unknown until read
		if err := set.fill(&set.req, r.Body, r.ContentLength, budget); err != nil {
			httpkit.BodyError(w, "reading request body", err)
			return
		}
	}

	exclude := make(map[*backend]bool, maxAttempts)
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		b := g.pick(exclude)
		if b == nil {
			break
		}
		exclude[b] = true
		att := root.StartChild("gateway.attempt")
		att.SetAttr("backend", b.url)
		res, err := g.forward(r, b, &set.out[attempt], set, att)
		if err != nil {
			att.SetOutcome("error")
			att.End()
			b.breaker.Record(false)
			b.noteError(err)
			lastErr = fmt.Errorf("%s: %w", b.url, err)
			g.retries.Inc()
			trace.SpanEventf(r.Context(), g.cfg.Logf,
				"gateway: event=failover backend=%s attempt=%d err=%v", b.url, attempt, err)
			continue
		}
		att.SetStatus(res.status)
		if res.status >= http.StatusInternalServerError {
			att.SetOutcome("error")
			att.End()
			b.breaker.Record(false)
			b.noteError(fmt.Errorf("HTTP %d", res.status))
			if attempt == 0 {
				lastErr = fmt.Errorf("%s: HTTP %d", b.url, res.status)
				g.retries.Inc()
				trace.SpanEventf(r.Context(), g.cfg.Logf,
					"gateway: event=failover backend=%s attempt=%d err=HTTP_%d", b.url, attempt, res.status)
				continue
			}
			// Both attempts 5xx'd: relay the last reply rather than
			// masking it (the server span marks a relayed 5xx "error").
		} else {
			att.End()
			b.breaker.Record(true)
			if attempt > 0 {
				// Survived failover: mark the root so the trace is
				// tail-captured despite the 200.
				root.SetOutcome("failover")
			}
		}
		copyHeader(w.Header(), res.header)
		w.Header().Set("Content-Length", strconv.Itoa(len(res.body)))
		w.WriteHeader(res.status)
		_, _ = w.Write(res.body)
		g.proxied.Inc()
		return
	}
	g.unroutable.Inc()
	root.SetOutcome("unroutable")
	msg := "no healthy replica available"
	if lastErr != nil {
		msg += ": " + lastErr.Error()
	}
	w.Header().Set("Retry-After", "1")
	httpkit.WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"error": msg})
}

// proxyResult is one complete, verified upstream response; body is the
// set's resp buffer, live until the handler drops its reference.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
}

// forward proxies one attempt to one backend under the per-attempt
// deadline, sending set's request body and buffering and
// length-verifying the response into set's resp buffer. The outgoing
// URL, header and context live in out, the attempt's own slot of set.
// An upstream that delivers fewer bytes than it advertised is an error
// (the partial response never reaches the client), as is one that
// out-sizes the response cap. att, when non-nil, is stamped as the outgoing
// traceparent parent — each attempt carries its own span id, so the
// replica's server span hangs under the attempt that reached it.
func (g *Gateway) forward(r *http.Request, b *backend, out *outgoing, set *hopBuffers, att *trace.Span) (proxyResult, error) {
	out.ctx.begin(r.Context(), g.cfg.AttemptTimeout)
	defer out.ctx.end()
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.requests.Inc()

	b.target(&out.url, r.URL)
	if out.header == nil {
		out.header = make(http.Header, len(r.Header)+1)
	}
	copyHeader(out.header, r.Header)
	trace.Inject(att, out.header)
	req := newRequest(&out.ctx, r.Method, &out.url, out.header)
	set.attach(req)

	resp, err := g.cfg.Transport.RoundTrip(req)
	if err != nil {
		set.spent = set.spent || req.Body == nil
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	if err := set.fill(&set.resp, resp.Body, resp.ContentLength, maxResponseBytes); err != nil {
		return proxyResult{}, fmt.Errorf("reading upstream body: %w", err)
	}
	data := set.resp.Bytes()
	if len(data) > maxResponseBytes {
		return proxyResult{}, errors.New("upstream response exceeds gateway limit")
	}
	if resp.ContentLength >= 0 && int64(len(data)) < resp.ContentLength {
		return proxyResult{}, fmt.Errorf("partial upstream body: %d of %d bytes", len(data), resp.ContentLength)
	}
	return proxyResult{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// statusPath is what a health probe asks a backend for.
var statusPath = url.URL{Path: "/replica/status"}

// target sets *u to what parsing b.url + ref.RequestURI() gives, as
// http.NewRequest would, without the string or the parse: the base's
// scheme, user and host, the base's path with ref's appended, and ref's
// query. ref is a server request's URL (or statusPath): it has a path,
// and it keeps an escaped form only where that differs from what
// escaping its path gives, as the parse does. The base has no query, no
// fragment and no trailing '/' (replica.CheckEndpoints).
func (b *backend) target(u, ref *url.URL) {
	*u = b.base
	u.Path = b.base.Path + ref.Path
	switch {
	case ref.RawPath != "" && ref.EscapedPath() == ref.RawPath:
		u.RawPath = b.rawPath + ref.RawPath
	case b.base.RawPath != "":
		u.RawPath = b.rawPath + ref.EscapedPath()
	}
	// A server keeps a '#' in the query it read; the parse would take
	// what follows it as a fragment, which is never sent.
	query, _, cut := strings.Cut(ref.RawQuery, "#")
	u.RawQuery = query
	u.ForceQuery = ref.ForceQuery || cut && query == ""
}

// newRequest is the request http.NewRequestWithContext builds for u and
// no body, over a URL and a header the caller provides instead of ones
// it parses and allocates.
func newRequest(ctx context.Context, method string, u *url.URL, h http.Header) *http.Request {
	return (&http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Host:       u.Host,
	}).WithContext(ctx)
}

// hopHeaders are connection-scoped and must not be forwarded either way.
var hopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Connection":    true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
	"Content-Length":      true, // recomputed from the buffered body
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
}

// copyHeader hands src's end-to-end headers to dst. The value slices
// are shared, not copied: src is a header the hop owns — the client's
// request, which the handler only reads, or an upstream reply nothing
// reads after it — and the other side only reads them too, since
// RoundTrip must not modify its request and net/http copies the
// handler's header when it writes the status line.
func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		if hopHeaders[http.CanonicalHeaderKey(k)] {
			continue
		}
		dst[k] = vs
	}
}

// BackendStatus is one backend's row in the gateway status report.
type BackendStatus struct {
	URL string `json:"url"`
	// State is "healthy", "down" (probe unreachable), or "draining"
	// (reachable but lagging the fleet watermark).
	State string `json:"state"`
	// Breaker is "closed", "open", or "half-open".
	Breaker  string `json:"breaker"`
	Inflight int64  `json:"inflight"`
	// AppliedVersions is the backend's total applied-version watermark
	// from the last successful probe.
	AppliedVersions int64  `json:"applied_versions"`
	Requests        int64  `json:"requests"`
	Failures        int64  `json:"failures"`
	LastError       string `json:"last_error,omitempty"`
}

// Status is the gateway's introspection snapshot (GET /gateway/status).
type Status struct {
	Backends []BackendStatus `json:"backends"`
	Proxied  int64           `json:"proxied"`
	// Retries counts failed attempts that triggered (or exhausted)
	// failover; Unroutable counts requests no backend could serve.
	Retries    int64 `json:"retries"`
	Unroutable int64 `json:"unroutable"`
	// Shed maps route class → requests refused by admission control.
	Shed map[string]int64 `json:"shed"`
}

// Status snapshots the gateway's state. Every counter here is a view
// over the metric registry — /gateway/status and /metrics can never
// disagree because there is only one set of counters.
func (g *Gateway) Status() Status {
	st := Status{
		Proxied:    int64(g.proxied.Value()),
		Retries:    int64(g.retries.Value()),
		Unroutable: int64(g.unroutable.Value()),
		Shed:       g.adm.shedCounts(),
	}
	for _, b := range g.backends {
		state := "healthy"
		switch {
		case b.down.Load():
			state = "down"
		case b.draining.Load():
			state = "draining"
		}
		st.Backends = append(st.Backends, BackendStatus{
			URL:             b.url,
			State:           state,
			Breaker:         b.breaker.State().String(),
			Inflight:        b.inflight.Load(),
			AppliedVersions: b.applied.Load(),
			Requests:        int64(b.requests.Value()),
			Failures:        int64(b.failures.Value()),
			LastError:       b.lastError(),
		})
	}
	return st
}
