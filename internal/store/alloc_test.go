package store

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/safety"
	"repro/internal/taxi"
	"repro/internal/trace"
)

// Allocation budgets for the two serving fast paths whose whole point
// is not allocating. Budgets sit well above the measured steady state
// (headroom for runtime/encoding changes across Go releases) and far
// below the unoptimized numbers, so losing the optimization — dropping
// the encode cache, or un-pooling the batch scratch — fails the test.
const (
	// preEncoded cache hit: generation check + map lookup, zero allocs
	// measured. Re-encoding per request (the pre-PR 4 behavior) costs
	// dozens of allocs and blows this immediately.
	preEncodedHitBudget = 2

	// One warm 256-row /predict/batch request through the mux: pooled
	// body + hand-written decode into pooled rows + positional predict +
	// append-encode into a pooled buffer measures 22 allocs/op on random
	// and one-hot rows alike (27 under a live tracer, the server span's
	// plumbing, for the linear model and the MLP alike), all of it
	// per-request HTTP plumbing; 26 and 31 before the query was read in
	// place and the Content-Type value shared. It was 296 with
	// encoding/json decoding each row by reflection and 2182 without the
	// pool, so the budget fails either coming back, and so does an MLP
	// whose rows allocate their activations (2588).
	batchWarmBudget = 60

	// One warm single-row /predict through the mux, traced: the query
	// read in place, the row decoded into a pooled request, the shared
	// Content-Type value. It measures 34 allocs/op for the linear model
	// and the MLP alike, mostly httptest's request and recorder, the
	// json.Decoder and the server span; it was 46 with url.Values built
	// per request, Features grown from nothing and a fresh header value
	// per reply, so the budget fails if most of that comes back, or if
	// the MLP allocates its activations per call (44 at 64/32).
	predictWarmBudget = 40
)

// publishServingModels publishes the alloc tests' two models at taxi
// width: "bench", a linear model, and "nn", the Taxi NN shape (hidden
// 64/32).
func publishServingModels(t *testing.T, s *Store) {
	weights := make([]float64, taxi.FeatureDim)
	for i := range weights {
		weights[i] = float64(i%7) * 0.1
	}
	for name, m := range map[string]ml.Model{
		"bench": &ml.LinearModel{Weights: weights, Bias: 0.5},
		"nn":    ml.NewMLP(ml.Regression, taxi.FeatureDim, []int{64, 32}, rng.New(5)),
	} {
		spec, err := Serialize(m)
		if err != nil {
			t.Fatal(err)
		}
		s.Publish(Bundle{Name: name, Model: spec})
	}
}

// TestPreEncodedHitAllocs pins the immutable-read fast path: once a
// response body is in the encode cache, serving it again must not
// re-encode (and so must not allocate).
func TestPreEncodedHitAllocs(t *testing.T) {
	s := New()
	srv := NewServer(s)
	// Budgets are pinned with instrumentation live: the metrics hot
	// paths are pre-resolved atomics, so an instrumented hit must still
	// fit the same budget as an uninstrumented one.
	srv.Instrument(metrics.New())

	builds := 0
	build := func() any {
		builds++
		return map[string]any{"models": []string{"a", "b"}}
	}
	if _, err := srv.preEncoded("models", build); err != nil {
		t.Fatal(err)
	}

	got := safety.MaxAllocs(t, 1000, preEncodedHitBudget, func() {
		if _, err := srv.preEncoded("models", build); err != nil {
			t.Fatal(err)
		}
	})
	if builds != 1 {
		t.Errorf("build ran %d times: hit path re-encoded instead of serving the cache", builds)
	}
	t.Logf("preEncoded hit path: %.1f allocs/op (budget %d)", got, preEncodedHitBudget)
}

// TestPredictBatchWarmAllocs pins the pooled batch path end to end: a
// warm 256-row POST /predict/batch through the handler reuses the
// pooled scratch (body, row buffers, outputs, encode buffer) and scans
// and writes its JSON without reflection, so its allocations are the
// per-request HTTP plumbing whatever the batch size or the rows' shape.
func TestPredictBatchWarmAllocs(t *testing.T) {
	s := New()
	publishServingModels(t, s)
	srv := NewServer(s)
	srv.Instrument(metrics.New()) // budgets hold with instrumentation live

	for _, tc := range []struct {
		name   string
		model  string
		rows   [][]float64
		tracer *trace.Tracer
		// undeclared sends the body with ContentLength -1, as the
		// gateway forwards a large one: the handler cannot pre-size the
		// pooled body buffer, so a warm one must already have the room.
		undeclared bool
	}{
		// A disabled (nil) tracer's Middleware returns the handler
		// unchanged, so the budget also pins that tracing-compiled-in
		// but switched-off serving costs exactly nothing.
		{"random", "bench", benchRows(256), nil, false},
		{"onehot", "bench", onehotRows(256), nil, false},
		{"onehot/undeclared", "bench", onehotRows(256), nil, true},
		// A live one adds the server span's plumbing; the handler's
		// pooled stage spans add nothing.
		{"onehot/traced", "bench", onehotRows(256), trace.New(trace.Config{Service: "store"}), false},
		{"mlp/onehot/traced", "nn", onehotRows(256), trace.New(trace.Config{Service: "store"}), false},
	} {
		h := tc.tracer.Middleware(srv.Handler())
		payload, err := json.Marshal(batchRequest{Rows: tc.rows})
		if err != nil {
			t.Fatal(err)
		}
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, "/predict/batch?model="+tc.model, bytes.NewReader(payload))
			if tc.undeclared {
				req.ContentLength = -1
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.name, rec.Code, rec.Body.String())
			}
		}
		serve() // warm the scratch pool and the span pool

		got := safety.MaxAllocs(t, 50, batchWarmBudget, serve)
		t.Logf("warm 256-row %s batch: %.1f allocs/op (budget %d)", tc.name, got, batchWarmBudget)
	}
}

// TestPredictBatchStageSpans: a traced batch request records exactly
// the handler's three stages, in order, as children of its server span.
func TestPredictBatchStageSpans(t *testing.T) {
	s := New()
	spec, err := Serialize(&ml.LinearModel{Weights: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(Bundle{Name: "m", Model: spec})
	tr := trace.New(trace.Config{Service: "store"})
	rec := httptest.NewRecorder()
	tr.Middleware(NewServer(s).Handler()).ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
		"/predict/batch?model=m", bytes.NewReader([]byte(`{"rows":[[1,0],[0,1]]}`))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}

	spans := tr.Snapshot().Recent
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	server := spans[len(spans)-1] // the last to end
	if server.Name != "POST /predict/batch" {
		t.Fatalf("last span %q, want the server span", server.Name)
	}
	var children []string
	for _, sp := range spans {
		if sp.ParentID == server.SpanID {
			children = append(children, sp.Name)
		}
	}
	if want := []string{"store.decode", "store.predict", "store.encode"}; !slices.Equal(children, want) {
		t.Errorf("children of the server span: %q, want %q", children, want)
	}
}

// TestPredictSingleWarmAllocs pins the single-row path end to end: a
// warm POST /predict through the mux, with metrics and tracing live,
// reads its query without building url.Values, decodes into a pooled
// request whose Features keep their capacity, and replies under the
// shared Content-Type value. A request pinned to a superseded version
// predicts with that release's own model under the same budget: it
// builds nothing per request (76 allocs/op here when it did).
func TestPredictSingleWarmAllocs(t *testing.T) {
	s := New()
	publishServingModels(t, s)
	nn, _ := s.Latest("nn")
	s.Publish(*nn) // "nn" v2; v1 stays pinnable
	srv := NewServer(s)
	srv.Instrument(metrics.New())
	h := trace.New(trace.Config{Service: "store"}).Middleware(srv.Handler())
	payload, err := json.Marshal(predictRequest{Features: onehotRows(1)[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"model=bench", "model=nn", "model=nn&version=1"} {
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict?"+query, bytes.NewReader(payload)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", query, rec.Code, rec.Body.String())
			}
		}
		serve()
		got := safety.MaxAllocs(t, 200, predictWarmBudget, serve)
		t.Logf("warm single /predict?%s: %.1f allocs/op (budget %d)", query, got, predictWarmBudget)
	}
}
