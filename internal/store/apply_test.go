package store

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/safety"
	"repro/internal/taxi"
)

func applyBundle(name string, version int, weight float64) Bundle {
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{weight}, Bias: 0})
	return Bundle{
		Name: name, Version: version, Model: spec,
		Provenance: Provenance{
			Pipeline: name, Spent: privacy.MustBudget(0.25, 1e-9),
			Blocks: []data.BlockID{1, 2}, Decision: "ACCEPT", Quality: 0.01,
		},
	}
}

func TestApplySequentialAndIdempotent(t *testing.T) {
	s := New()
	applied, err := s.Apply(applyBundle("m", 1, 1))
	if err != nil || !applied {
		t.Fatalf("first apply: applied=%v err=%v", applied, err)
	}
	// Re-delivery of the identical release is a no-op, not an error.
	applied, err = s.Apply(applyBundle("m", 1, 1))
	if err != nil || applied {
		t.Fatalf("duplicate apply: applied=%v err=%v, want false,nil", applied, err)
	}
	if applied, err = s.Apply(applyBundle("m", 2, 2)); err != nil || !applied {
		t.Fatalf("next-version apply: applied=%v err=%v", applied, err)
	}
	if got := s.VersionCount("m"); got != 2 {
		t.Errorf("VersionCount = %d, want 2", got)
	}
	b, ok := s.Get("m", 2)
	if !ok || b.Model.Weights[0] != 2 {
		t.Errorf("Get(m,2) = %+v, %v", b, ok)
	}
}

func TestApplyRejectsVersionGapWithWatermark(t *testing.T) {
	s := New()
	if _, err := s.Apply(applyBundle("m", 1, 1)); err != nil {
		t.Fatal(err)
	}
	_, err := s.Apply(applyBundle("m", 3, 3))
	var gap *VersionGapError
	if !errors.As(err, &gap) {
		t.Fatalf("gap apply error = %v, want *VersionGapError", err)
	}
	if gap.Watermark != 1 || gap.Version != 3 || gap.Name != "m" {
		t.Errorf("gap = %+v", gap)
	}
	// The store is unchanged: version 2 is still the next acceptable.
	if got := s.VersionCount("m"); got != 1 {
		t.Errorf("VersionCount after rejected gap = %d, want 1", got)
	}
}

func TestApplyRejectsDivergentRelease(t *testing.T) {
	s := New()
	if _, err := s.Apply(applyBundle("m", 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Same (name, version), different weights: a re-push may repeat a
	// release but can never replace one.
	if _, err := s.Apply(applyBundle("m", 1, 99)); err == nil {
		t.Fatal("divergent re-apply succeeded; want an error for a differing release")
	}
	if b, _ := s.Get("m", 1); b.Model.Weights[0] != 1 {
		t.Errorf("divergent apply mutated the release: weights %v", b.Model.Weights)
	}
	if _, err := s.Apply(applyBundle("m", 0, 1)); err == nil {
		t.Error("unversioned bundle accepted; want error")
	}
}

// unservableSpecs decode and encode like any release, but their models
// do not build: a kind no code serves, and a logistic model short of
// its Dim+1 params.
var unservableSpecs = map[string]ModelSpec{
	"unknown kind":    {Kind: "nope"},
	"logistic params": {Kind: "logistic", Dim: 2, Params: []float64{0.5, -0.5}},
}

// TestUnservableReleaseCannotEnterTheStore: every stored release carries
// the model it serves, so a release whose model does not build is
// refused by Apply and panics Publish, and either way the store and its
// journal are untouched.
func TestUnservableReleaseCannotEnterTheStore(t *testing.T) {
	for name, spec := range unservableSpecs {
		s := New()
		if _, err := s.Apply(applyBundle("m", 1, 1)); err != nil {
			t.Fatal(err)
		}
		journaled := 0
		s.SetJournal(func([]byte) error { journaled++; return nil })
		gen := s.Generation()

		b := applyBundle("m", 2, 2)
		b.Model = spec
		if applied, err := s.Apply(b); err == nil || applied {
			t.Errorf("%s: Apply = %v, %v; want a refusal", name, applied, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Publish did not panic", name)
				}
			}()
			s.Publish(b)
		}()
		if s.VersionCount("m") != 1 || s.Generation() != gen || journaled != 0 {
			t.Errorf("%s: store after refusals: %d version(s), generation %d → %d, %d journaled; want it untouched",
				name, s.VersionCount("m"), gen, s.Generation(), journaled)
		}
	}
}

func TestBundleDigestCanonical(t *testing.T) {
	mk := func() *Bundle {
		b := applyBundle("m", 1, 1)
		b.Features = map[string][]float64{"a": {1, 2}, "b": {3}, "c": {4}}
		return &b
	}
	// Gob encoding of the same bundle varies (map order); the canonical
	// bytes must not.
	a, b := mk(), mk()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(a.CanonicalBytes(), b.CanonicalBytes()) {
			t.Fatal("canonical bytes differ between identical bundles")
		}
	}
	// Every field participates.
	for name, mutate := range map[string]func(*Bundle){
		"feature value": func(b *Bundle) { b.Features["a"][0] = 9 },
		"feature key":   func(b *Bundle) { b.Features["z"] = b.Features["a"]; delete(b.Features, "a") },
		"weights":       func(b *Bundle) { b.Model.Weights[0] = 9 },
		"version":       func(b *Bundle) { b.Version = 2 },
		"blocks":        func(b *Bundle) { b.Provenance.Blocks[0] = 9 },
		"spent":         func(b *Bundle) { b.Provenance.Spent.Epsilon = 9 },
		"decision":      func(b *Bundle) { b.Provenance.Decision = "RETRY" },
		"quality":       func(b *Bundle) { b.Provenance.Quality = 9 },
	} {
		m := mk()
		mutate(m)
		if bytes.Equal(m.CanonicalBytes(), a.CanonicalBytes()) {
			t.Errorf("mutating %s did not change the canonical bytes", name)
		}
	}
}

func TestGenerationAdvancesOnMutation(t *testing.T) {
	s := New()
	g0 := s.Generation()
	s.Publish(applyBundle("m", 0, 1))
	if s.Generation() == g0 {
		t.Error("Publish did not advance the generation")
	}
	g1 := s.Generation()
	if _, err := s.Apply(applyBundle("n", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Generation() == g1 {
		t.Error("Apply did not advance the generation")
	}
	g2 := s.Generation()
	if _, err := s.Apply(applyBundle("n", 1, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Generation() != g2 {
		t.Error("idempotent re-apply advanced the generation")
	}
}

// TestPreEncodedResponsesInvalidateOnPublish pins the connection-level
// fast path's one correctness hazard: a cached response must never
// outlive a publish that changes what it reports.
func TestPreEncodedResponsesInvalidateOnPublish(t *testing.T) {
	s := New()
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	s.Publish(Bundle{Name: "m", Model: spec, Provenance: Provenance{
		Pipeline: "m", Spent: privacy.MustBudget(0.5, 0)}})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	fetch := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return string(raw)
	}

	before := fetch("/models")
	if before != fetch("/models") {
		t.Fatal("repeated GET /models not byte-identical")
	}
	provBefore := fetch("/models/m/provenance")

	// Publishing v2 must refresh both the model list (version bump) and
	// v1's provenance (total ε across versions grows).
	s.Publish(Bundle{Name: "m", Model: spec, Provenance: Provenance{
		Pipeline: "m", Spent: privacy.MustBudget(0.25, 0)}})
	after := fetch("/models")
	if after == before {
		t.Error("GET /models served a stale pre-encoded response after publish")
	}
	provAfter := fetch("/models/m/provenance?version=1")
	if provAfter == provBefore {
		t.Error("v1 provenance not refreshed after publish (total ε must grow)")
	}
}

// TestBundleRoundTripPredictsIdentically pins what the replica push
// path depends on: a decoded bundle's instantiated model is the model —
// bit-identical predictions, for every serializable kind. (The
// canonical encoding carries IEEE-754 bit patterns, which is exact; this
// test keeps anyone from changing it to a lossy one.)
func TestBundleRoundTripPredictsIdentically(t *testing.T) {
	r := rng.New(7)
	rows := make([][]float64, 32)
	for i := range rows {
		rows[i] = make([]float64, 6)
		for j := range rows[i] {
			rows[i][j] = r.Normal(0, 1)
		}
	}
	w := make([]float64, 6)
	for i := range w {
		w[i] = r.Normal(0, 1)
	}

	models := map[string]ml.Model{
		"linear":   &ml.LinearModel{Weights: w, Bias: 0.25},
		"constant": ml.ConstantModel{Value: 1.5},
		"logistic": ml.NewLogisticRegression(6),
		"sgd":      ml.NewSGDLinearRegression(6),
		"mlp-reg":  ml.NewMLP(ml.Regression, 6, []int{8, 4}, rng.New(9)),
		"mlp-clf":  ml.NewMLP(ml.BinaryClassification, 6, []int{5}, rng.New(10)),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			spec, err := Serialize(m)
			if err != nil {
				t.Fatal(err)
			}
			bundle := Bundle{Name: name, Version: 1, Model: spec,
				Features: map[string][]float64{"hour_speed": {30, 29, 28}}}
			back, err := DecodeCanonicalBundle(bundle.CanonicalBytes())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(back.CanonicalBytes(), bundle.CanonicalBytes()) {
				t.Error("round trip changed the canonical bytes")
			}
			decoded, err := back.Model.Instantiate()
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				want, got := m.Predict(row), decoded.Predict(row)
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("row %d: decoded model predicts %v, original %v (not bit-identical)", i, got, want)
				}
			}
		})
	}
}

// TestBundleRoundTripMLPBatchMatchesSingle pins the MLP case
// specifically: the model a replica decodes from the canonical bytes
// predicts a batch bit-identically to the original's single rows.
func TestBundleRoundTripMLPBatchMatchesSingle(t *testing.T) {
	mlp := ml.NewMLP(ml.Regression, 4, []int{6, 3}, rng.New(21))
	spec, err := Serialize(mlp)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCanonicalBundle((&Bundle{Name: "nn", Version: 1, Model: spec}).CanonicalBytes())
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := back.Model.Instantiate()
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]float64{{1, 2, 3, 4}, {0, 0, 0, 0}, {-1, 0.5, 2, -3}}
	out := make([]float64, len(rows))
	ml.PredictBatch(decoded, rows, out)
	for i, row := range rows {
		if math.Float64bits(out[i]) != math.Float64bits(mlp.Predict(row)) {
			t.Errorf("row %d: decoded batch %v != original single %v", i, out[i], mlp.Predict(row))
		}
	}
}

// heapBytesPer returns the heap bytes one call of f allocates, averaged
// over runs calls.
func heapBytesPer(runs int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestStoringAnMLPReleaseBytes pins what a taxi-width MLP release
// (48→64→32→1: 5 249 params, 42 kB of them) costs to store. Publish
// copies the params once and builds the model over that copy without
// drawing an initial weight: ≈ 54 kB, where a model drawn and then
// overwritten with a second copy read ≈ 103 kB. A duplicate Apply of
// the stored release settles on its canonical bytes and copies and
// builds nothing: ≈ 98 kB, the two canonical encodings it compares, each into a
// buffer sized up front (≈ 423 kB when each grew by append); copying
// and building it first as well reads ≈ 477 kB with appended encodings
// (≈ 527 kB with the model built over a second copy).
func TestStoringAnMLPReleaseBytes(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	spec, err := Serialize(ml.NewMLP(ml.Regression, taxi.FeatureDim, []int{64, 32}, rng.New(5)))
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	publish := heapBytesPer(50, func() { s.Publish(Bundle{Name: "nn", Model: spec}) })
	stored, _ := s.Get("nn", 1)
	again := *stored
	duplicate := heapBytesPer(50, func() {
		if applied, err := s.Apply(again); applied || err != nil {
			t.Fatalf("a duplicate Apply: %v, %v; want false, nil", applied, err)
		}
	})
	t.Logf("Publish %.0f bytes, a duplicate Apply %.0f bytes, for %d params", publish, duplicate, len(spec.Params))
	if publish > 61_000 {
		t.Errorf("Publish of a taxi-width MLP: %.0f bytes, budget 61000: does building the model copy or draw its params again?", publish)
	}
	if duplicate > 105_000 {
		t.Errorf("a duplicate Apply of a taxi-width MLP: %.0f bytes, budget 105000: does it copy and build the release before it looks at the version, or grow its encodings by append?", duplicate)
	}
}
