package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/httpkit"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
	"repro/internal/validation"
)

// trainTaxiBundle runs the real Fig. 1 front half at test scale —
// stream → growing database → access control → privacy-adaptive
// training → SLAed validation — and returns the accepted release as a
// publishable bundle. The replicas under test serve an actually-trained
// model, not a synthetic stub.
func trainTaxiBundle(tb testing.TB) store.Bundle {
	tb.Helper()
	gen := taxi.NewGenerator(taxi.Config{}, 17)
	rides := gen.Generate(160000, 0, 480)
	clean, _ := taxi.Clean(rides)
	speeds := taxi.SpeedByHour(clean, 0, nil)

	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for _, ex := range taxi.Featurize(clean, speeds).Examples {
		for _, id := range db.Insert(ex) {
			ac.RegisterBlock(id)
		}
	}
	pipe := &pipeline.Pipeline{
		Name:    "taxi-lr",
		Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
		Validator: pipeline.MSEValidator{
			Target: 0.016, B: 1,
			ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
		},
		Mode: validation.ModeSage,
	}
	st := &adaptive.StreamTrainer{
		AC: ac, DB: db, Pipe: pipe,
		Epsilon0: 0.125, EpsilonCap: 1, Delta: 1e-8,
		MinWindow: min(10, db.NumBlocks()),
	}
	res, err := st.Run(rng.New(3))
	if err != nil {
		tb.Fatalf("training: %v", err)
	}
	if res.Decision != validation.Accept {
		tb.Fatalf("training decision %v (quality %v)", res.Decision, res.Quality)
	}
	spec, err := store.Serialize(res.Model)
	if err != nil {
		tb.Fatal(err)
	}
	return store.Bundle{
		Name:     "taxi-lr",
		Model:    spec,
		Features: map[string][]float64{"hour_speed": speeds},
		Provenance: store.Provenance{
			Pipeline: pipe.Name,
			Spent:    res.TotalSpent,
			Blocks:   res.Blocks,
			Decision: res.Decision.String(),
			Quality:  res.Quality,
		},
	}
}

// newReplica spins up one in-process replica.
func newReplica(tb testing.TB) (*Server, *httptest.Server) {
	tb.Helper()
	rep := NewServer()
	srv := httptest.NewServer(rep.Handler())
	tb.Cleanup(srv.Close)
	return rep, srv
}

// fetch returns status code and raw body.
func fetch(tb testing.TB, method, url, body string) (int, []byte) {
	tb.Helper()
	var resp *http.Response
	var err error
	switch method {
	case http.MethodGet:
		resp, err = http.Get(url)
	default:
		resp, err = http.Post(url, "application/json", bytes.NewBufferString(body))
	}
	if err != nil {
		tb.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		tb.Fatal(err)
	}
	return resp.StatusCode, raw
}

// TestReplicatedServingEndToEnd is the tier's acceptance test: train a
// real model, publish it through a Publisher wired to 3 in-process
// replicas, and require every replica to answer the full serving API
// byte-for-byte identically to the primary — predictions, batches,
// provenance, and feature tables. Then a 4th replica joins late and
// must catch up to all current versions via Sync.
func TestReplicatedServingEndToEnd(t *testing.T) {
	bundle := trainTaxiBundle(t)

	src := store.New()
	primary := httptest.NewServer(store.NewServer(src).Handler())
	defer primary.Close()

	var urls []string
	for i := 0; i < 3; i++ {
		_, srv := newReplica(t)
		urls = append(urls, srv.URL)
	}
	pub := NewPublisher(src, urls, WithRetry(2, 5*time.Millisecond))

	// Publish v1 (the trained release) and a v2 of the same line — the
	// push protocol must keep per-name version sequences, not just one.
	if _, err := pub.Publish(bundle); err != nil {
		t.Fatalf("publish v1: %v", err)
	}
	v2 := bundle
	v2.Provenance.Quality *= 1.1
	version, err := pub.Publish(v2)
	if err != nil {
		t.Fatalf("publish v2: %v", err)
	}
	if version != 2 {
		t.Fatalf("v2 assigned version %d", version)
	}
	for _, ep := range urls {
		if wm := pub.Watermark(ep, "taxi-lr"); wm != 2 {
			t.Errorf("watermark(%s) = %d, want 2", ep, wm)
		}
	}

	// Byte-identical responses across primary and every replica, for
	// every read endpoint the single-node API has.
	row := make([]float64, taxi.FeatureDim)
	for i := range row {
		row[i] = 0.01 * float64(i)
	}
	rowJSON, _ := json.Marshal(row)
	requests := []struct {
		name, method, path, body string
	}{
		{"models", "GET", "/models", ""},
		{"provenance", "GET", "/models/taxi-lr/provenance", ""},
		{"provenance v1", "GET", "/models/taxi-lr/provenance?version=1", ""},
		{"features keys", "GET", "/features?model=taxi-lr", ""},
		{"features table", "GET", "/features?model=taxi-lr&key=hour_speed", ""},
		{"features index", "GET", "/features?model=taxi-lr&key=hour_speed&index=8", ""},
		{"predict", "POST", "/predict?model=taxi-lr", fmt.Sprintf(`{"features":%s}`, rowJSON)},
		{"predict batch", "POST", "/predict/batch?model=taxi-lr", fmt.Sprintf(`{"rows":[%s,%s]}`, rowJSON, rowJSON)},
		{"predict v1", "POST", "/predict?model=taxi-lr&version=1", fmt.Sprintf(`{"features":%s}`, rowJSON)},
	}
	for _, req := range requests {
		wantCode, want := fetch(t, req.method, primary.URL+req.path, req.body)
		if wantCode != http.StatusOK {
			t.Fatalf("%s: primary returned %d: %s", req.name, wantCode, want)
		}
		for i, ep := range urls {
			code, got := fetch(t, req.method, ep+req.path, req.body)
			if code != http.StatusOK {
				t.Errorf("%s: replica %d returned %d: %s", req.name, i, code, got)
				continue
			}
			if !bytes.Equal(want, got) {
				t.Errorf("%s: replica %d response differs from primary:\n  primary: %s\n  replica: %s", req.name, i, want, got)
			}
		}
	}

	// Late join: a fresh replica that appears after both publishes gets
	// a publisher of its own over the same store, and must catch up to
	// the current versions through Sync.
	late, lateSrv := newReplica(t)
	pub = NewPublisher(src, []string{lateSrv.URL}, WithRetry(2, 5*time.Millisecond))
	if err := pub.Sync(context.Background()); err != nil {
		t.Fatalf("late-join sync: %v", err)
	}
	if got := late.Store().VersionCount("taxi-lr"); got != 2 {
		t.Fatalf("late replica at %d version(s), want 2", got)
	}
	for _, req := range requests {
		_, want := fetch(t, req.method, primary.URL+req.path, req.body)
		code, got := fetch(t, req.method, lateSrv.URL+req.path, req.body)
		if code != http.StatusOK || !bytes.Equal(want, got) {
			t.Errorf("%s: late replica differs (code %d):\n  primary: %s\n  replica: %s", req.name, code, want, got)
		}
	}

	// Sync is idempotent: a second run pushes nothing new and changes
	// nothing.
	gen := late.Store().Generation()
	if err := pub.Sync(context.Background()); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if late.Store().Generation() != gen {
		t.Error("idempotent sync mutated the replica store")
	}
}

// TestPushGapTriggersBackfill covers the protocol's self-healing: a
// push of only the newest version to a behind replica gets a 409 with
// the replica's watermark, a retryable error, and a converge after it —
// a reconcile — delivers the missing versions in order.
func TestPushGapTriggersBackfill(t *testing.T) {
	src := store.New()
	rep, srv := newReplica(t)
	pub := NewPublisher(src, []string{srv.URL}, WithRetry(1, time.Millisecond))
	spec, _ := store.Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	for i := 0; i < 3; i++ {
		b := store.Bundle{Name: "m", Model: spec}
		b.Provenance.Quality = float64(i)
		src.Publish(b)
	}
	// Push only v3: the replica (watermark 0) refuses it with a gap.
	v3, _ := src.Get("m", 3)
	if err := pub.pushOnce(context.Background(), srv.URL, v3); err == nil || isPermanent(err) {
		t.Fatalf("push of v3 to an empty replica = %v, want a retryable gap error", err)
	}
	if wm := pub.Watermark(srv.URL, "m"); wm != 0 {
		t.Errorf("publisher watermark after the gap reply = %d, want 0", wm)
	}
	// The replica must end up with 1..3.
	if err := pub.Converge(context.Background(), srv.URL); err != nil {
		t.Fatalf("converge after the gap: %v", err)
	}
	if got := rep.Store().VersionCount("m"); got != 3 {
		t.Fatalf("replica has %d version(s), want 3 (backfilled)", got)
	}
	for v := 1; v <= 3; v++ {
		b, ok := rep.Store().Get("m", v)
		if !ok || b.Provenance.Quality != float64(v-1) {
			t.Errorf("version %d missing or wrong after backfill: %+v", v, b)
		}
	}
	if wm := pub.Watermark(srv.URL, "m"); wm != 3 {
		t.Errorf("publisher watermark = %d, want 3", wm)
	}
}

// TestPushRetriesTransientErrors pins the retry/backoff path: a replica
// that fails with 503 twice before recovering must still converge, and
// a divergent release (409 digest mismatch), one the replica cannot
// build (409 rejected) or one past the replica's size cap (413) must
// fail at once with no retries.
func TestPushRetriesTransientErrors(t *testing.T) {
	rep := NewServer()
	inner := rep.Handler()
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, "replica warming up", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	src := store.New()
	pub := NewPublisher(src, []string{flaky.URL}, WithRetry(3, time.Millisecond))
	spec, _ := store.Serialize(&ml.LinearModel{Weights: []float64{2}, Bias: 1})
	src.Publish(store.Bundle{Name: "m", Model: spec})
	if err := pub.Sync(context.Background()); err != nil {
		t.Fatalf("push through flaky replica: %v", err)
	}
	if got := rep.Store().VersionCount("m"); got != 1 {
		t.Fatalf("replica store has %d versions, want 1", got)
	}
	if calls.Load() != 4 {
		t.Errorf("delivery took %d requests, want 4: a 503 to the status read, a 503 to the retry's, then the status read and the push", calls.Load())
	}

	// Exhausted retries surface as an error.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()
	pubDead := NewPublisher(src, []string{dead.URL}, WithRetry(1, time.Millisecond))
	if err := pubDead.Sync(context.Background()); err == nil {
		t.Error("push to permanently-down replica reported success")
	}

	// Divergence is permanent: same (name, version), different content
	// must be rejected without retrying. A reconcile pushes only what a
	// replica says it lacks, so this one's status reply understates what
	// it holds.
	var divergeCalls atomic.Int32
	countingRep := NewServer()
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/replica/status" {
			httpkit.WriteJSON(w, http.StatusOK, Status{})
			return
		}
		divergeCalls.Add(1)
		countingRep.Handler().ServeHTTP(w, r)
	}))
	defer counting.Close()
	if _, err := countingRep.Store().Apply(func() store.Bundle {
		other, _ := store.Serialize(&ml.LinearModel{Weights: []float64{9}, Bias: 9})
		return store.Bundle{Name: "m", Version: 1, Model: other}
	}()); err != nil {
		t.Fatal(err)
	}
	divergeCalls.Store(0)
	srcDiv := store.New()
	pubDiv := NewPublisher(srcDiv, []string{counting.URL}, WithRetry(5, time.Millisecond))
	srcDiv.Publish(store.Bundle{Name: "m", Model: spec})
	if err := pubDiv.Sync(context.Background()); err == nil {
		t.Fatal("divergent push reported success")
	}
	if divergeCalls.Load() != 1 {
		t.Errorf("divergent push attempted %d times, want 1 (permanent errors must not retry)", divergeCalls.Load())
	}

	// A replica that serves no model kind, as one running older code
	// than its publisher may not serve a new one: every release pushed
	// to it is one it cannot build.
	var unservableCalls atomic.Int32
	unservableRep := NewServer()
	unservable := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			unservableCalls.Add(1)
			raw, _ := io.ReadAll(r.Body)
			if b, err := store.DecodeCanonicalBundle(raw); err == nil {
				b.Model = store.ModelSpec{Kind: "nope"}
				raw = b.CanonicalBytes()
			}
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(raw)), int64(len(raw))
		}
		unservableRep.Handler().ServeHTTP(w, r)
	}))
	defer unservable.Close()
	srcUnservable := store.New()
	pubUnservable := NewPublisher(srcUnservable, []string{unservable.URL}, WithRetry(3, time.Millisecond))
	srcUnservable.Publish(store.Bundle{Name: "m", Model: spec})
	if err := pubUnservable.Sync(context.Background()); err == nil {
		t.Fatal("push of a release the replica cannot build reported success")
	}
	if unservableCalls.Load() != 1 || unservableRep.pushRejected.Value() != 1 {
		t.Errorf("unservable push attempted %d times, %v rejected; want 1 and 1 (permanent errors must not retry)",
			unservableCalls.Load(), unservableRep.pushRejected.Value())
	}

	var tooLargeCalls atomic.Int32
	tooLargeRep := NewServer()
	tooLarge := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/push" {
			tooLargeRep.Handler().ServeHTTP(w, r)
			return
		}
		tooLargeCalls.Add(1)
		http.Error(w, "too large", http.StatusRequestEntityTooLarge)
	}))
	defer tooLarge.Close()
	srcLarge := store.New()
	pubLarge := NewPublisher(srcLarge, []string{tooLarge.URL}, WithRetry(3, time.Millisecond))
	srcLarge.Publish(store.Bundle{Name: "m", Model: spec})
	if err := pubLarge.Sync(context.Background()); err == nil {
		t.Fatal("push answered 413 reported success")
	}
	if tooLargeCalls.Load() != 1 {
		t.Errorf("push answered 413 attempted %d times, want 1 (permanent errors must not retry)", tooLargeCalls.Load())
	}
}

// TestPushRacesPredict hammers a replica's /predict/batch while the
// publisher pushes new versions into it. Every response must be
// well-formed and consistent with exactly one published version —
// atomic swap means no request ever observes a half-applied bundle.
// Run under -race, this also checks the store/cache synchronization.
func TestPushRacesPredict(t *testing.T) {
	src := store.New()
	// Version v predicts exactly float64(v) for the zero row: bias = v,
	// so a response's prediction identifies the version that served it.
	mkSpec := func(v int) store.ModelSpec {
		spec, _ := store.Serialize(&ml.LinearModel{Weights: []float64{1, 1}, Bias: float64(v)})
		return spec
	}
	src.Publish(store.Bundle{Name: "m", Model: mkSpec(1)})

	rep, srv := newReplica(t)
	pub := NewPublisher(src, []string{srv.URL}, WithRetry(2, time.Millisecond))
	if err := pub.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	const versions = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := srv.Client()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Post(srv.URL+"/predict/batch?model=m", "application/json",
					bytes.NewBufferString(`{"rows":[[0,0],[0,0]]}`))
				if err != nil {
					errCh <- err
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
				var body struct {
					Version     int        `json:"version"`
					Predictions []*float64 `json:"predictions"`
				}
				if err := json.Unmarshal(raw, &body); err != nil {
					errCh <- fmt.Errorf("undecodable predict response %q: %w", raw, err)
					return
				}
				if body.Version < 1 || body.Version > versions {
					errCh <- fmt.Errorf("response names version %d, outside published range", body.Version)
					return
				}
				for _, p := range body.Predictions {
					if p == nil || *p != float64(body.Version) {
						errCh <- fmt.Errorf("version %d answered prediction %v: torn read", body.Version, p)
						return
					}
				}
			}
		}()
	}
	for v := 2; v <= versions; v++ {
		src.Publish(store.Bundle{Name: "m", Model: mkSpec(v)})
		if err := pub.Sync(context.Background()); err != nil {
			t.Fatalf("push v%d during predicts: %v", v, err)
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if got := rep.Store().VersionCount("m"); got != versions {
		t.Fatalf("replica converged at %d versions, want %d", got, versions)
	}
}

// TestReplicaStatusEndpoint covers the operator view: watermarks per
// model and the store generation.
func TestReplicaStatusEndpoint(t *testing.T) {
	src := store.New()
	spec, _ := store.Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	src.Publish(store.Bundle{Name: "a", Model: spec})
	src.Publish(store.Bundle{Name: "a", Model: spec})
	src.Publish(store.Bundle{Name: "b", Model: spec})

	_, srv := newReplica(t)
	pub := NewPublisher(src, []string{srv.URL}, WithRetry(1, time.Millisecond))
	if err := pub.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, raw := fetch(t, "GET", srv.URL+"/replica/status", "")
	if code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	var st struct {
		Watermarks map[string]int `json:"watermarks"`
		Generation uint64         `json:"generation"`
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Watermarks["a"] != 2 || st.Watermarks["b"] != 1 {
		t.Errorf("watermarks = %v, want a:2 b:1", st.Watermarks)
	}
	if st.Generation != 3 {
		t.Errorf("generation = %d, want 3 (one per applied bundle)", st.Generation)
	}
}
