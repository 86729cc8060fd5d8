package replica

import (
	"bytes"
	"compress/gzip"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
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
	if err := noAuth.Push(context.Background(), "wide", 1); err == nil || !strings.Contains(err.Error(), "bearer token") {
		t.Fatalf("unauthenticated push: %v", err)
	}
	if !isPermanent(unwrapJoined(t, noAuth.Push(context.Background(), "wide", 1))) {
		t.Fatal("401 should be a permanent error")
	}
	if rep.Store().VersionCount("wide") != 0 {
		t.Fatal("unauthenticated push was applied")
	}

	// Wrong token: still 401.
	badAuth := NewPublisher(src, []string{srv.URL}, WithAuth("wrong"))
	if err := badAuth.Push(context.Background(), "wide", 1); err == nil {
		t.Fatal("wrong-token push accepted")
	}

	// Right token: applied.
	auth := NewPublisher(src, []string{srv.URL}, WithAuth("sekrit"))
	if err := auth.Push(context.Background(), "wide", 1); err != nil {
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
// fraction of the encoded bundle (its canonical bytes, what an identity
// body carries), and the replica must apply it with a digest identical
// to the source.
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
	if err := pub.Push(context.Background(), "wide", 1); err != nil {
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

// TestPushRejectsGzipBomb: a gzip body that inflates past the push
// row's 64 MiB budget is answered 413, as an identity body past it is,
// and leaves the store untouched.
func TestPushRejectsGzipBomb(t *testing.T) {
	rep, srv := newReplica(t)
	var body bytes.Buffer
	zw := gzip.NewWriter(&body)
	zeros := make([]byte, 1<<20)
	for range 64 {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := zw.Write([]byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/push", &body)
	req.Header.Set("Content-Encoding", "gzip")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("gzip body inflating to 64 MiB + 1 got %d, want 413", resp.StatusCode)
	}
	if wm := rep.Store().Watermarks(); len(wm) != 0 || rep.Store().Generation() != 0 {
		t.Fatalf("rejected push changed the store: watermarks %v, generation %d", wm, rep.Store().Generation())
	}
}
