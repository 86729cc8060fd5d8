package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/httpkit"
	"repro/internal/store"
	"repro/internal/trace"
)

// Publisher is the trainer-side half of the replication protocol: it
// owns (a reference to) the authoritative store and delivers its
// releases to a fixed set of replica endpoints. Every delivery is a
// reconcile: ask the replica which versions it holds (GET
// /replica/status) and deliver, in order, every release of every name
// it is missing. Converge runs reconciles for one endpoint, each failed
// one — a gap reply is a failure like any other — followed by another
// after an exponential backoff and within the retry budget. Nothing is
// remembered between calls: what a replica lacks is what it reports.
//
// The publisher takes no lock per endpoint. Concurrent converges of one
// replica each reconcile it, and the duplicates they send are acked as
// no-ops; the daemon never sends them, because it converges each
// replica from one goroutine of its own.
//
// The per-replica, per-name watermark cache is what each replica last
// said about itself — every push ack, gap reply and status report
// overwrites it, up or down — and is a diagnostic only (Watermark, the
// daemon's status and lag gauge): no decision reads it. The replica's
// own store is the source of truth, and re-pushing something already
// applied is a no-op by protocol.
type Publisher struct {
	src       *store.Store
	endpoints []string
	client    *http.Client
	retries   int
	backoff   time.Duration
	// authToken, when non-empty, is sent as "Authorization: Bearer …"
	// on every push (replicas started with WithAuthToken require it).
	authToken string

	mu         sync.Mutex
	watermarks map[string]map[string]int // endpoint → name → applied versions, as last reported
}

// requestTimeout bounds each request of the default client: the replica
// server's own read timeout (httpkit's, one minute) would cut a push
// that takes longer short anyway, and a replica that accepts a request
// and never answers costs one timeout, not the converge.
const requestTimeout = time.Minute

// Option configures a Publisher.
type Option func(*Publisher)

// WithClient sets the HTTP client used for pushes (default: one whose
// requests time out after requestTimeout; tests inject httptest
// clients).
func WithClient(c *http.Client) Option { return func(p *Publisher) { p.client = c } }

// WithRetry sets how many times a failed reconcile is retried per
// endpoint and the initial backoff, which doubles per attempt. The
// defaults are 3 retries starting at 100ms.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(p *Publisher) { p.retries, p.backoff = retries, backoff }
}

// WithAuth sends the shared-secret bearer token with every push,
// matching a replica started with the server-side WithAuthToken.
func WithAuth(tok string) Option {
	return func(p *Publisher) { p.authToken = tok }
}

// CheckEndpoints returns an error for a replica base URL that is
// repeated, or that is not an absolute http or https URL with a host
// and without a query, a fragment or a trailing '/': the form every
// request is built on by appending its path. Every tier that talks to a
// list of replicas keys its state and its metric series by URL, so a
// repeat would collide, and any other entry would name no replica at
// all — each request to it would fail (a doubled '/' is redirected, and
// a redirected push arrives as a GET), for as long as it is listed.
func CheckEndpoints(urls []string) error {
	seen := make(map[string]bool, len(urls))
	for _, raw := range urls {
		if seen[raw] {
			return fmt.Errorf("replica endpoint %q is listed twice", raw)
		}
		seen[raw] = true
		u, err := url.Parse(raw)
		if err != nil {
			return fmt.Errorf("replica endpoint: %w", err)
		}
		if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
			return fmt.Errorf("replica endpoint %q is not an http(s) URL with a host", raw)
		}
		if strings.ContainsAny(raw, "?#") {
			return fmt.Errorf("replica endpoint %q has a query or fragment", raw)
		}
		if strings.HasSuffix(raw, "/") {
			return fmt.Errorf("replica endpoint %q ends in '/': list it as %q", raw, strings.TrimRight(raw, "/"))
		}
	}
	return nil
}

// NewPublisher returns a publisher over the authoritative store,
// pushing to the given replica base URLs (e.g. "http://10.0.0.7:8081");
// none is a publisher that pushes nowhere.
func NewPublisher(src *store.Store, endpoints []string, opts ...Option) *Publisher {
	p := &Publisher{
		src:        src,
		endpoints:  append([]string(nil), endpoints...),
		client:     &http.Client{Timeout: requestTimeout},
		retries:    3,
		backoff:    100 * time.Millisecond,
		watermarks: make(map[string]map[string]int),
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Endpoints returns the registered replica URLs.
func (p *Publisher) Endpoints() []string { return append([]string(nil), p.endpoints...) }

// Watermark returns the applied version the endpoint last reported for
// name (0 if it never has).
func (p *Publisher) Watermark(endpoint, name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.watermarks[endpoint][name]
}

// setWatermark records what the replica said, in both directions: a
// lower report than the last one means it lost state.
func (p *Publisher) setWatermark(endpoint, name string, version int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	wm := p.watermarks[endpoint]
	if wm == nil {
		wm = make(map[string]int)
		p.watermarks[endpoint] = wm
	}
	wm[name] = version
}

// Publish publishes the bundle into the authoritative store (assigning
// the next version, exactly like store.Publish) and syncs every
// replica. The release is durable in the source store even if every
// delivery fails — serving replicas converge at the next Sync or
// Converge. It is for callers without a context: the daemon publishes
// to its store and wakes its convergers instead.
func (p *Publisher) Publish(b store.Bundle) (int, error) {
	version := p.src.Publish(b)
	return version, p.Sync(context.TODO())
}

// sleepBackoff waits out one retry delay with full jitter — a uniform
// draw from (0, d] rather than d itself, so a fleet of publishers (or
// one publisher's per-endpoint goroutines) that failed together does
// not retry in lockstep against a recovering replica. It returns early
// with the context's error on cancellation: a shutting-down caller is
// never pinned inside a backoff sleep.
func sleepBackoff(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d > 0 {
		d = time.Duration(1 + rand.Int64N(int64(d)))
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// eachEndpoint runs do against every replica concurrently — each
// replica's failure is independent, and a stalled one holds up nobody
// else — and joins the errors of those that did not converge.
func (p *Publisher) eachEndpoint(ctx context.Context, do func(ctx context.Context, endpoint string) error) error {
	errs := make([]error, len(p.endpoints))
	var wg sync.WaitGroup
	for i, ep := range p.endpoints {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = do(ctx, ep)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Sync converges every replica at once — the way a publish, a late
// joiner or a replica that lost its state is caught up on demand, and
// the daemon's sweep at start and at drain. A replica that cannot be
// reached is reported and costs the others nothing; the context bounds
// the whole sweep.
func (p *Publisher) Sync(ctx context.Context) error { return p.eachEndpoint(ctx, p.Converge) }

// Converge brings one replica up to date: a reconcile, and after each
// failed one another, after a backoff that doubles from the configured
// one (full jitter, see sleepBackoff), up to the retry budget. A
// permanent error or the context ends it early. The context aborts
// in-flight requests, and a push continues the trace of its span.
func (p *Publisher) Converge(ctx context.Context, endpoint string) error {
	err := p.reconcile(ctx, endpoint)
	backoff := p.backoff
	for retry := 0; retry < p.retries && err != nil && !isPermanent(err); retry++ {
		if serr := sleepBackoff(ctx, backoff); serr != nil {
			// Cancelled mid-retry: surface both the cancellation and
			// what we were retrying.
			return errors.Join(serr, err)
		}
		backoff *= 2
		err = p.reconcile(ctx, endpoint)
	}
	return err
}

// reconcile asks the replica which versions it holds and delivers, in
// order, every release of every name past that, each once: Converge
// owns the retrying. It trusts only what the replica reports.
func (p *Publisher) reconcile(ctx context.Context, endpoint string) error {
	applied, err := p.fetchStatus(ctx, endpoint)
	if err != nil {
		return err
	}
	names := p.src.List()
	for _, name := range names {
		p.setWatermark(endpoint, name, applied[name])
	}
	for _, name := range names {
		for v := applied[name] + 1; v <= p.src.VersionCount(name); v++ {
			bundle, ok := p.src.Get(name, v)
			if !ok {
				return fmt.Errorf("replica: reconcile %s@v%d: not in source store", name, v)
			}
			if err := p.pushOnce(ctx, endpoint, bundle); err != nil {
				return err
			}
		}
	}
	return nil
}

// fetchStatus reads a replica's applied-version watermarks.
func (p *Publisher) fetchStatus(ctx context.Context, endpoint string) (map[string]int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, endpoint+"/replica/status", nil)
	if err != nil {
		return nil, err
	}
	trace.Inject(trace.FromContext(ctx), req.Header)
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: status %s: %d: %s", endpoint, resp.StatusCode, readError(resp.Body))
	}
	var st Status
	if err := httpkit.ReadJSON(resp.Body, httpkit.StatusReplyBytes, &st); err != nil {
		return nil, fmt.Errorf("replica: undecodable status from %s: %w", endpoint, err)
	}
	return st.Watermarks, nil
}

// permanentError marks replies that retrying cannot fix (refused
// token, divergent digest, malformed or oversized bundle).
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// pushOnce performs a single POST /push of the release's canonical
// bytes and records the watermark the replica answers with, in its ack
// or in a gap reply. A gap is an ordinary, retryable failure: the
// replica fell behind since it reported its status, and the attempt
// after it reconciles again.
func (p *Publisher) pushOnce(ctx context.Context, endpoint string, b *store.Bundle) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("replica: push %s@v%d to %s: %w", b.Name, b.Version, endpoint, err)
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint+"/push", bytes.NewReader(b.CanonicalBytes()))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	// The push continues the caller's trace (the daemon's push span) into
	// the replica's server span, as fetchStatus does; untraced, there is
	// no span to inject.
	trace.Inject(trace.FromContext(ctx), req.Header)
	if p.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+p.authToken)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		var st PushStatus
		if err := httpkit.ReadJSON(resp.Body, httpkit.StatusReplyBytes, &st); err != nil {
			return fmt.Errorf("undecodable push reply: %w", err)
		}
		p.setWatermark(endpoint, st.Name, st.Watermark)
		return nil
	case http.StatusConflict:
		// Either a version gap (carries the replica's watermark) or a
		// divergent release (permanent).
		var gap gapResponse
		if err := httpkit.ReadJSON(resp.Body, httpkit.StatusReplyBytes, &gap); err != nil {
			return fmt.Errorf("undecodable 409 reply: %w", err)
		}
		if gap.Name == "" {
			return &permanentError{msg: gap.Error}
		}
		p.setWatermark(endpoint, gap.Name, gap.Watermark)
		return errors.New(gap.Error)
	case http.StatusUnauthorized, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		// A wrong or missing shared secret, a malformed bundle or one
		// past the replica's size cap: the same bytes cannot fare better.
		return &permanentError{msg: readError(resp.Body)}
	default:
		return fmt.Errorf("replica returned status %d: %s", resp.StatusCode, readError(resp.Body))
	}
}

// readError extracts the "error" field of a JSON error reply, falling
// back to the raw body.
func readError(r io.Reader) string {
	raw, _ := io.ReadAll(io.LimitReader(r, 4096))
	var body struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &body) == nil && body.Error != "" {
		return body.Error
	}
	return string(bytes.TrimSpace(raw))
}
