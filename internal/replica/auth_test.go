package replica

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/store"
)

// wideBundle builds a bundle whose released feature tables are wide and
// structured (the realistic case: DP aggregates over many groups, most
// of them similar or zero) — the workload gzip push compression exists
// for.
func wideBundle(version int) store.Bundle {
	features := make(map[string][]float64, 4)
	for _, name := range []string{"hour_speed", "zone_speed", "zone_count", "od_matrix"} {
		table := make([]float64, 20000)
		for i := range table {
			// Repetitive structure with sparse deviations, like a real
			// per-group aggregate.
			table[i] = float64(i % 24)
			if i%97 == 0 {
				table[i] += 0.5
			}
		}
		features[name] = table
	}
	return store.Bundle{
		Name:     "wide",
		Version:  version,
		Model:    store.ModelSpec{Kind: "linear", Weights: []float64{1, 2, 3}, Bias: 0.5},
		Features: features,
		Provenance: store.Provenance{
			Pipeline: "wide", Spent: privacy.MustBudget(0.25, 1e-9),
			Blocks: []data.BlockID{1, 2}, Decision: "ACCEPT", Quality: 0.01,
		},
	}
}

func TestPushAuthRequired(t *testing.T) {
	rep := NewServer(WithAuthToken("sekrit"))
	srv := httptest.NewServer(rep.Handler())
	defer srv.Close()

	src := store.New()
	b := wideBundle(0)
	src.Publish(b)

	// No token: 401, permanent (no retry storm), nothing applied.
	noAuth := NewPublisher(src, []string{srv.URL})
	if err := noAuth.Push("wide", 1); err == nil || !strings.Contains(err.Error(), "bearer token") {
		t.Fatalf("unauthenticated push: %v", err)
	}
	if !isPermanent(unwrapJoined(t, noAuth.Push("wide", 1))) {
		t.Fatal("401 should be a permanent error")
	}
	if rep.Store().VersionCount("wide") != 0 {
		t.Fatal("unauthenticated push was applied")
	}

	// Wrong token: still 401.
	badAuth := NewPublisher(src, []string{srv.URL}, WithAuth("wrong"))
	if err := badAuth.Push("wide", 1); err == nil {
		t.Fatal("wrong-token push accepted")
	}

	// Right token: applied.
	auth := NewPublisher(src, []string{srv.URL}, WithAuth("sekrit"))
	if err := auth.Push("wide", 1); err != nil {
		t.Fatal(err)
	}
	if rep.Store().VersionCount("wide") != 1 {
		t.Fatal("authenticated push not applied")
	}

	// The read API stays open without credentials.
	resp, err := http.Get(srv.URL + "/replica/status")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status without auth: %v %v", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// unwrapJoined digs the single underlying error out of Push's joined
// per-endpoint errors.
func unwrapJoined(t *testing.T, err error) error {
	t.Helper()
	if err == nil {
		t.Fatal("expected error")
	}
	return err
}

// TestGzipPushReducesWireBytes pins the compression satellite: for a
// wide-feature-table bundle, the bytes on the wire must be a small
// fraction of the encoded bundle, the replica must apply it with a
// digest identical to the source, and disabling compression must send
// identity bodies.
func TestGzipPushReducesWireBytes(t *testing.T) {
	var wireBytes atomic.Int64
	var sawGzip atomic.Bool
	rep := NewServer()
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			if r.Header.Get("Content-Encoding") == "gzip" {
				sawGzip.Store(true)
			}
			wireBytes.Store(r.ContentLength)
		}
		rep.Handler().ServeHTTP(w, r)
	}))
	defer counting.Close()

	src := store.New()
	b := wideBundle(0)
	src.Publish(b)
	stored, _ := src.Get("wide", 1)
	raw := stored.CanonicalBytes()

	pub := NewPublisher(src, []string{counting.URL})
	if err := pub.Push("wide", 1); err != nil {
		t.Fatal(err)
	}
	if !sawGzip.Load() {
		t.Fatal("wide bundle pushed without Content-Encoding: gzip")
	}
	// "Integer factors" is the claim; require at least 2x to leave
	// headroom for encoder changes.
	if got := wireBytes.Load(); got <= 0 || got > int64(len(raw))/2 {
		t.Fatalf("gzip push sent %d of %d encoded bytes — expected <= half", got, len(raw))
	}
	got, ok := rep.Store().Get("wide", 1)
	if !ok || got.Digest() != stored.Digest() {
		t.Fatal("decompressed apply diverges from source release")
	}

	// WithoutCompression sends identity bodies.
	rep2 := NewServer()
	var identityBytes atomic.Int64
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			if r.Header.Get("Content-Encoding") != "" {
				t.Error("WithoutCompression still set Content-Encoding")
			}
			identityBytes.Store(r.ContentLength)
		}
		rep2.Handler().ServeHTTP(w, r)
	}))
	defer plain.Close()
	pub2 := NewPublisher(src, []string{plain.URL}, WithoutCompression())
	if err := pub2.Push("wide", 1); err != nil {
		t.Fatal(err)
	}
	if got := identityBytes.Load(); got != int64(len(raw)) {
		t.Fatalf("identity push sent %d bytes, want %d", got, len(raw))
	}
}

func TestPushRejectsCorruptGzip(t *testing.T) {
	_, srv := newReplica(t)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/push", strings.NewReader("not gzip at all"))
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt gzip got %d, want 400", resp.StatusCode)
	}
}

// TestSelfHealingPublisherRestart simulates the daemon-restart story:
// releases exist, replicas have only a prefix, and a *fresh* publisher
// (empty watermark cache, WithSelfHealing) must converge every replica
// on Heal — and lazily on first push for endpoints Heal couldn't reach.
func TestSelfHealingPublisherRestart(t *testing.T) {
	src := store.New()
	for i := 0; i < 3; i++ {
		b := wideBundle(0)
		b.Provenance.Quality = float64(i)
		src.Publish(b)
	}

	// Replica A has v1 only; replica B is empty.
	repA, srvA := newReplica(t)
	repB, srvB := newReplica(t)
	seed := NewPublisher(src, []string{srvA.URL})
	if err := seed.pushTo(context.Background(), srvA.URL, "wide", 1, mustEncode(t, seed, src, "wide", 1)); err != nil {
		t.Fatal(err)
	}

	// A restarted publisher knows nothing about either replica.
	pub := NewPublisher(src, []string{srvA.URL, srvB.URL}, WithSelfHealing())
	if err := pub.Heal(); err != nil {
		t.Fatal(err)
	}
	for name, rep := range map[string]*Server{"A": repA, "B": repB} {
		if got := rep.Store().VersionCount("wide"); got != 3 {
			t.Fatalf("replica %s at %d versions after Heal, want 3", name, got)
		}
	}

	// Lazy path: a third replica joins while unreachable-at-heal; the
	// first push reconciles it fully (all three old versions plus the
	// new one) without any Sync call.
	repC, srvC := newReplica(t)
	pub.AddEndpoints(srvC.URL)
	b := wideBundle(0)
	b.Provenance.Quality = 99
	if _, err := pub.Publish(b); err != nil {
		t.Fatal(err)
	}
	if got := repC.Store().VersionCount("wide"); got != 4 {
		t.Fatalf("late replica at %d versions after first push, want 4", got)
	}
}

// mustEncode builds the pushBody for name@version from the source.
func mustEncode(t *testing.T, p *Publisher, src *store.Store, name string, version int) pushBody {
	t.Helper()
	b, ok := src.Get(name, version)
	if !ok {
		t.Fatalf("%s@v%d not in store", name, version)
	}
	return p.encodePush(b)
}

// TestSelfHealingConcurrentPushes: racing pushes to a pending endpoint
// must not corrupt the healing bookkeeping (run with -race).
func TestSelfHealingConcurrentPushes(t *testing.T) {
	src := store.New()
	src.Publish(wideBundle(0))
	_, srv := newReplica(t)
	pub := NewPublisher(src, []string{srv.URL}, WithSelfHealing())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = pub.Push("wide", 1)
		}()
	}
	wg.Wait()
	if got := pub.Watermark(srv.URL, "wide"); got != 1 {
		t.Fatalf("watermark %d after concurrent pushes", got)
	}
}
