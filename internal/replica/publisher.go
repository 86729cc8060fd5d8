package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// it is missing. Converge is one reconcile of one endpoint, and a
// failed one — a gap reply is a failure like any other — is the
// caller's to repeat: the daemon's converger does, after retryAfter,
// unless IsPermanent. Nothing is remembered between calls: what a
// replica lacks is what it reports.
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
	// authToken, when non-empty, is sent as "Authorization: Bearer …"
	// on every push (replicas started with WithAuthToken require it).
	authToken string

	mu         sync.Mutex
	watermarks map[string]map[string]int // endpoint → name → applied versions, as last reported
}

// requestTimeout bounds each request of the default client: the replica
// server's own read timeout (httpkit's, one minute) would cut a push
// that takes longer short anyway.
const requestTimeout = time.Minute

// replyTimeout bounds the default client's wait for a reply to start,
// as the gateway bounds an attempt: a round parked on a replica that
// never answers fails as transient, and the converger soon starts
// another instead of waiting out requestTimeout.
const replyTimeout = 10 * time.Second

// defaultClient, and so its connection pool, is shared by every
// publisher built without WithClient.
var defaultClient = newClient(replyTimeout)

// newClient returns a client whose requests time out after
// requestTimeout and whose replies must start within reply.
func newClient(reply time.Duration) *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.ResponseHeaderTimeout = reply
	return &http.Client{Timeout: requestTimeout, Transport: t}
}

// Option configures a Publisher.
type Option func(*Publisher)

// WithClient sets the HTTP client used for pushes (default:
// defaultClient; tests inject httptest clients).
func WithClient(c *http.Client) Option { return func(p *Publisher) { p.client = c } }

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
		client:     defaultClient,
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

// Sync runs one Converge of every replica at once — the way a publish,
// a late joiner or a replica that lost its state is caught up on
// demand, and the daemon's sweep at start and at drain. A replica that
// cannot be reached is reported and costs the others nothing; the
// context bounds the whole sweep.
func (p *Publisher) Sync(ctx context.Context) error { return p.eachEndpoint(ctx, p.Converge) }

// Converge is one reconcile of one replica: it asks the replica which
// versions it holds and delivers, in order, every release of every
// name past that, each once. It trusts only what the replica reports,
// and its first failure ends it; retrying is the caller's. The context
// aborts in-flight requests, and a push continues the trace of its
// span.
func (p *Publisher) Converge(ctx context.Context, endpoint string) error {
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
// token, divergent release, malformed or oversized bundle).
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// IsPermanent reports whether err holds a reply that retrying cannot
// fix: the same release sent again would be refused again.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// pushOnce performs a single POST /push of the release's canonical
// bytes and records the watermark the replica answers with, in its ack
// or in a gap reply. A gap is an ordinary, retryable failure: the
// replica fell behind since it reported its status, and the next
// Converge reconciles again.
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
