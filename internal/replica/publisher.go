package replica

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro/internal/store"
)

// Publisher is the trainer-side half of the replication protocol: it
// owns (a reference to) the authoritative store and pushes its releases
// to a set of replica endpoints. Pushes are idempotent (safe to repeat
// after any failure), retried with exponential backoff on transport
// errors, and gap-healing: a replica that is behind — freshly joined,
// restarted, or recovered from a partition — reports its watermark in a
// 409 and the publisher backfills the missing versions in order.
//
// The publisher tracks a per-replica, per-model applied-version
// watermark from push acknowledgements, so Sync can tell at a glance
// which replicas are current. Watermarks are an optimization and a
// diagnostic, never a correctness input: the replica's own store is the
// source of truth, and re-pushing something already applied is a no-op
// by protocol.
type Publisher struct {
	src     *store.Store
	client  *http.Client
	retries int
	backoff time.Duration
	// authToken, when non-empty, is sent as "Authorization: Bearer …"
	// on every push (replicas started with WithAuthToken require it).
	authToken string
	// gzipMin is the body size from which pushes are gzip-compressed
	// (Content-Encoding: gzip); negative disables compression.
	gzipMin int
	// selfHeal marks endpoints "unreconciled" at construction and on
	// AddEndpoints; the first push to such an endpoint (or Heal) first
	// backfills everything its reported watermarks say is missing.
	selfHeal bool

	mu          sync.Mutex
	endpoints   []string
	watermarks  map[string]map[string]int // endpoint → name → applied versions
	healPending map[string]bool           // endpoints not yet reconciled since construction
}

// Option configures a Publisher.
type Option func(*Publisher)

// WithClient sets the HTTP client used for pushes (default
// http.DefaultClient; tests inject httptest clients).
func WithClient(c *http.Client) Option { return func(p *Publisher) { p.client = c } }

// WithRetry sets how many times a failed push is retried per endpoint
// and the initial backoff, which doubles per attempt. The defaults are
// 3 retries starting at 100ms.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(p *Publisher) { p.retries, p.backoff = retries, backoff }
}

// WithAuth sends the shared-secret bearer token with every push,
// matching a replica started with the server-side WithAuthToken.
func WithAuth(tok string) Option {
	return func(p *Publisher) { p.authToken = tok }
}

// WithoutCompression disables gzip push bodies (the default compresses
// bodies of 1 KiB and up — wide released feature tables are highly
// redundant, so compression cuts fan-out bandwidth by integer factors).
func WithoutCompression() Option {
	return func(p *Publisher) { p.gzipMin = -1 }
}

// WithSelfHealing makes the publisher reconcile each endpoint against
// the replica's *reported* applied-version watermarks before the first
// push after construction (and after AddEndpoints), backfilling
// whatever the replica is missing. This is the publisher-restart path:
// a restarted publisher has an empty watermark cache and possibly
// replicas that missed releases while it was down; with self-healing,
// recovery needs no manual Sync — the daemon simply constructs its
// publisher and the tier converges. Heal() runs the same reconciliation
// eagerly (e.g. at daemon startup, so replicas converge even before
// the next natural push).
func WithSelfHealing() Option {
	return func(p *Publisher) { p.selfHeal = true }
}

// NewPublisher returns a publisher over the authoritative store,
// pushing to the given replica base URLs (e.g. "http://10.0.0.7:8081").
func NewPublisher(src *store.Store, endpoints []string, opts ...Option) *Publisher {
	p := &Publisher{
		src:         src,
		client:      http.DefaultClient,
		retries:     3,
		backoff:     100 * time.Millisecond,
		gzipMin:     1 << 10,
		endpoints:   append([]string(nil), endpoints...),
		watermarks:  make(map[string]map[string]int),
		healPending: make(map[string]bool),
	}
	for _, o := range opts {
		o(p)
	}
	if p.selfHeal {
		for _, ep := range p.endpoints {
			p.healPending[ep] = true
		}
	}
	return p
}

// AddEndpoints registers additional replicas (a late join). They serve
// nothing until the next Push, Sync, or Heal reaches them.
func (p *Publisher) AddEndpoints(endpoints ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.endpoints = append(p.endpoints, endpoints...)
	if p.selfHeal {
		for _, ep := range endpoints {
			p.healPending[ep] = true
		}
	}
}

// Endpoints returns the registered replica URLs.
func (p *Publisher) Endpoints() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.endpoints...)
}

// Watermark returns the last applied version the endpoint acknowledged
// for name (0 if never pushed).
func (p *Publisher) Watermark(endpoint, name string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.watermarks[endpoint][name]
}

func (p *Publisher) noteWatermark(endpoint, name string, version int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	wm := p.watermarks[endpoint]
	if wm == nil {
		wm = make(map[string]int)
		p.watermarks[endpoint] = wm
	}
	if version > wm[name] {
		wm[name] = version
	}
}

// setWatermark overwrites the cached watermark in both directions —
// used when the replica itself reported it (the replica is the source
// of truth; a lower report means it lost state).
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
// the next version, exactly like store.Publish) and pushes it to every
// replica. The release is durable in the source store even if every
// push fails — serving replicas converge on the next Push or Sync.
func (p *Publisher) Publish(b store.Bundle) (int, error) {
	version := p.src.Publish(b)
	return version, p.Push(b.Name, version)
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

// pushBody is one release ready for the wire: its canonical bytes, or
// their gzip form when compression is on and pays for itself.
type pushBody struct {
	payload []byte
	gzipped bool
}

// encodePush serializes a bundle and (by default, for bodies of gzipMin
// bytes and up) compresses it. The compressed form is only used when it
// is actually smaller, so incompressible bundles ship identity-encoded.
func (p *Publisher) encodePush(b *store.Bundle) pushBody {
	raw := b.CanonicalBytes()
	if p.gzipMin >= 0 && len(raw) >= p.gzipMin {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err == nil && zw.Close() == nil && buf.Len() < len(raw) {
			return pushBody{payload: buf.Bytes(), gzipped: true}
		}
	}
	return pushBody{payload: raw}
}

// Push ships name@version from the source store to every replica,
// concurrently. Each replica failure is independent; the joined error
// reports every endpoint that did not converge. With self-healing on,
// an endpoint that has not been reconciled since this publisher started
// is first backfilled from its reported watermarks.
func (p *Publisher) Push(name string, version int) error {
	return p.PushContext(context.Background(), name, version)
}

// PushContext is Push with cancellation: the context aborts in-flight
// push requests and interrupts retry backoff sleeps promptly.
func (p *Publisher) PushContext(ctx context.Context, name string, version int) error {
	bundle, ok := p.src.Get(name, version)
	if !ok {
		return fmt.Errorf("replica: push %s@v%d: not in source store", name, version)
	}
	body := p.encodePush(bundle)
	endpoints := p.Endpoints()
	errs := make([]error, len(endpoints))
	var wg sync.WaitGroup
	for i, ep := range endpoints {
		wg.Add(1)
		go func(i int, ep string) {
			defer wg.Done()
			p.ensureHealed(ctx, ep)
			errs[i] = p.pushTo(ctx, ep, name, version, body)
		}(i, ep)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// ensureHealed reconciles an endpoint flagged by WithSelfHealing. On
// failure the flag stays set (the gap protocol still converges the
// pushed name; other names retry at the next push or Heal).
func (p *Publisher) ensureHealed(ctx context.Context, ep string) {
	p.mu.Lock()
	pending := p.healPending[ep]
	p.mu.Unlock()
	if !pending {
		return
	}
	if err := p.healEndpoint(ctx, ep); err == nil {
		p.mu.Lock()
		delete(p.healPending, ep)
		p.mu.Unlock()
	}
}

// healEndpoint fetches the replica's own applied-version watermarks and
// backfills every missing release. Unlike the cached-watermark path,
// this trusts only what the replica reports — the correct stance right
// after a restart on either side.
func (p *Publisher) healEndpoint(ctx context.Context, ep string) error {
	applied, err := p.fetchStatus(ctx, ep)
	if err != nil {
		return err
	}
	return p.syncEndpoint(ctx, ep, p.src.List(), applied)
}

// Heal eagerly reconciles every endpoint against its reported
// watermarks — the publisher-restart recovery path (the daemon calls it
// at startup so replicas that missed releases while the publisher was
// down converge before the next natural push). Endpoints that cannot
// be reached stay flagged for lazy healing on their next push.
func (p *Publisher) Heal() error {
	return p.HealContext(context.Background())
}

// HealContext is Heal with cancellation.
func (p *Publisher) HealContext(ctx context.Context) error {
	var errs []error
	for _, ep := range p.Endpoints() {
		if err := p.healEndpoint(ctx, ep); err != nil {
			errs = append(errs, err)
			continue
		}
		p.mu.Lock()
		delete(p.healPending, ep)
		p.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Sync brings every replica up to the source store's current versions —
// the late-join catch-up path, also usable as a periodic anti-entropy
// sweep. Each replica's *reported* watermarks (GET /replica/status) are
// what Sync reconciles against, not the publisher's cached ones: a
// replica that restarted empty reports 0 and is re-backfilled even
// though the publisher remembers acking it. When the status fetch
// fails, Sync falls back to the cached watermarks (the gap protocol
// corrects any staleness on the first push).
func (p *Publisher) Sync() error {
	return p.SyncContext(context.Background())
}

// SyncContext is Sync with cancellation: a daemon draining on shutdown
// can bound its final anti-entropy sweep instead of hanging on an
// unreachable replica's full retry schedule.
func (p *Publisher) SyncContext(ctx context.Context) error {
	names := p.src.List() // already sorted
	var errs []error
	for _, ep := range p.Endpoints() {
		if err := ctx.Err(); err != nil {
			errs = append(errs, err)
			break
		}
		applied, err := p.fetchStatus(ctx, ep)
		if err != nil {
			applied = nil // unknown; fall back to cached watermarks
		}
		if err := p.syncEndpoint(ctx, ep, names, applied); err != nil {
			// This replica is unreachable or divergent; move on to the
			// next endpoint rather than burning retries per name.
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// syncEndpoint pushes one replica everything it is missing, stopping at
// the first push failure (the endpoint is likely down; its remaining
// names would each eat a full retry cycle).
func (p *Publisher) syncEndpoint(ctx context.Context, ep string, names []string, applied map[string]int) error {
	for _, name := range names {
		from := p.Watermark(ep, name)
		if applied != nil {
			// The replica's own report overrides the cache in both
			// directions: higher (another publisher fed it) skips work,
			// lower (it lost state) forces the re-backfill.
			from = applied[name]
			p.setWatermark(ep, name, from)
		}
		have := p.src.VersionCount(name)
		for v := from + 1; v <= have; v++ {
			bundle, ok := p.src.Get(name, v)
			if !ok {
				continue
			}
			if err := p.pushTo(ctx, ep, name, v, p.encodePush(bundle)); err != nil {
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
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("replica: status %s: %d: %s", endpoint, resp.StatusCode, readError(resp.Body))
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("replica: undecodable status from %s: %w", endpoint, err)
	}
	if st.Watermarks == nil {
		st.Watermarks = map[string]int{}
	}
	return st.Watermarks, nil
}

// pushTo delivers one release to one replica, retrying transport
// errors with exponential backoff (full jitter, see sleepBackoff) and
// healing version gaps by backfilling from the replica's reported
// watermark. Cancelling the context aborts the in-flight request and
// interrupts any backoff sleep.
func (p *Publisher) pushTo(ctx context.Context, endpoint, name string, version int, body pushBody) error {
	backoff := p.backoff
	var lastErr error
	for attempt := 0; attempt <= p.retries; attempt++ {
		if attempt > 0 {
			if err := sleepBackoff(ctx, backoff); err != nil {
				// Cancelled mid-retry: surface both the cancellation and
				// what we were retrying.
				return errors.Join(err, lastErr)
			}
			backoff *= 2
		}
		st, gap, err := p.pushOnce(ctx, endpoint, body)
		switch {
		case gap != nil:
			// The replica is missing versions ≤ ours: backfill in order
			// from its watermark, then re-deliver this one. Not a retry —
			// the gap reply is authoritative, so the attempt counter
			// resets inside the recursive deliveries.
			if err := p.backfill(ctx, endpoint, name, gap.Watermark, version-1); err != nil {
				return err
			}
			st, gap, err = p.pushOnce(ctx, endpoint, body)
			switch {
			case err == nil && gap == nil:
				p.noteWatermark(endpoint, name, st.Watermark)
				return nil
			case gap != nil:
				// Still behind after a completed backfill: the replica
				// lost state mid-protocol (or another publisher raced a
				// divergent history). Let the retry loop start over from
				// its reported watermark.
				lastErr = fmt.Errorf("replica: push %s@v%d to %s after backfill: replica still reports watermark %d", name, version, endpoint, gap.Watermark)
			default:
				lastErr = fmt.Errorf("replica: push %s@v%d to %s after backfill: %w", name, version, endpoint, err)
			}
		case err == nil:
			p.noteWatermark(endpoint, name, st.Watermark)
			return nil
		case isPermanent(err):
			return fmt.Errorf("replica: push %s@v%d to %s: %w", name, version, endpoint, err)
		default:
			lastErr = fmt.Errorf("replica: push %s@v%d to %s: %w", name, version, endpoint, err)
		}
	}
	return lastErr
}

// backfill pushes versions from..to of name (inclusive) to one
// endpoint, in order.
func (p *Publisher) backfill(ctx context.Context, endpoint, name string, watermark, to int) error {
	for v := watermark + 1; v <= to; v++ {
		bundle, ok := p.src.Get(name, v)
		if !ok {
			return fmt.Errorf("replica: backfill %s@v%d: not in source store", name, v)
		}
		st, gap, err := p.pushOnce(ctx, endpoint, p.encodePush(bundle))
		if err != nil {
			return fmt.Errorf("replica: backfill %s@v%d to %s: %w", name, v, endpoint, err)
		}
		if gap != nil {
			return fmt.Errorf("replica: backfill %s@v%d to %s: replica still reports gap at watermark %d", name, v, endpoint, gap.Watermark)
		}
		p.noteWatermark(endpoint, name, st.Watermark)
	}
	return nil
}

// permanentError marks replies that retrying cannot fix (divergent
// digest, malformed bundle).
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

func isPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// pushOnce performs a single POST /push. It returns the decoded status
// on success, the gap report on a version-gap 409, or an error.
func (p *Publisher) pushOnce(ctx context.Context, endpoint string, body pushBody) (PushStatus, *gapResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, endpoint+"/push", bytes.NewReader(body.payload))
	if err != nil {
		return PushStatus{}, nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	if body.gzipped {
		req.Header.Set("Content-Encoding", "gzip")
	}
	if p.authToken != "" {
		req.Header.Set("Authorization", "Bearer "+p.authToken)
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return PushStatus{}, nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusUnauthorized:
		// Wrong or missing shared secret: retrying with the same token
		// cannot help.
		return PushStatus{}, nil, &permanentError{msg: "replica rejected push: " + readError(resp.Body)}
	case http.StatusOK:
		st, err := decodeStatus(resp.Body)
		return st, nil, err
	case http.StatusConflict:
		// Either a version gap (carries a watermark to resume from) or a
		// divergent release (permanent).
		var gap gapResponse
		if err := json.NewDecoder(resp.Body).Decode(&gap); err != nil {
			return PushStatus{}, nil, fmt.Errorf("undecodable 409 reply: %w", err)
		}
		if gap.Name != "" {
			return PushStatus{}, &gap, nil
		}
		return PushStatus{}, nil, &permanentError{msg: gap.Error}
	case http.StatusBadRequest:
		return PushStatus{}, nil, &permanentError{msg: readError(resp.Body)}
	default:
		return PushStatus{}, nil, fmt.Errorf("replica returned status %d: %s", resp.StatusCode, readError(resp.Body))
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
