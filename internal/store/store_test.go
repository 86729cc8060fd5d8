package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
)

func TestSerializeRoundTrip(t *testing.T) {
	r := rng.New(1)
	x := []float64{0.3, -0.7, 1.1}
	models := []ml.Model{
		&ml.LinearModel{Weights: []float64{1, 2, 3}, Bias: 0.5},
		ml.ConstantModel{Value: 0.25},
		func() ml.Model {
			m := ml.NewLogisticRegression(3)
			for i := range m.Params() {
				m.Params()[i] = float64(i) * 0.1
			}
			return m
		}(),
		func() ml.Model {
			m := ml.NewSGDLinearRegression(3)
			m.Params()[0] = 2
			return m
		}(),
		ml.NewMLP(ml.Regression, 3, []int{5, 4}, r),
		ml.NewMLP(ml.BinaryClassification, 3, []int{6}, r),
	}
	for i, m := range models {
		spec, err := Serialize(m)
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		back, err := spec.Instantiate()
		if err != nil {
			t.Fatalf("model %d: %v", i, err)
		}
		want, got := m.Predict(x), back.Predict(x)
		if math.Abs(want-got) > 1e-12 {
			t.Errorf("model %d (%s): prediction %v != %v after round trip", i, spec.Kind, got, want)
		}
	}
}

func TestSerializeUnknownModel(t *testing.T) {
	type weird struct{ ml.Model }
	if _, err := Serialize(weird{}); err == nil {
		t.Error("unknown model type should error")
	}
	if _, err := (ModelSpec{Kind: "nope"}).Instantiate(); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := (ModelSpec{Kind: "logistic", Dim: 3, Params: []float64{1}}).Instantiate(); err == nil {
		t.Error("length mismatch should error")
	}
}

func TestBundleEncodeDecode(t *testing.T) {
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{1, -1}, Bias: 2})
	b := &Bundle{
		Name:  "taxi-lr",
		Model: spec,
		Features: map[string][]float64{
			"hour_speed": {30, 29, 28},
		},
		Provenance: Provenance{
			Pipeline: "taxi-lr",
			Spent:    privacy.MustBudget(0.5, 1e-8),
			Blocks:   []data.BlockID{1, 2, 3},
			Decision: "ACCEPT",
			Quality:  0.004,
		},
	}
	back, err := DecodeCanonicalBundle(b.CanonicalBytes())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != b.Name || back.Provenance.Spent != b.Provenance.Spent {
		t.Errorf("round trip lost fields: %+v", back)
	}
	if len(back.Features["hour_speed"]) != 3 {
		t.Error("features lost")
	}
	if _, err := DecodeCanonicalBundle([]byte("garbage")); err == nil {
		t.Error("garbage should fail to decode")
	}
}

func TestStoreVersioning(t *testing.T) {
	s := New()
	spec, _ := Serialize(ml.ConstantModel{Value: 1})
	if v := s.Publish(Bundle{Name: "m", Model: spec}); v != 1 {
		t.Errorf("first version = %d", v)
	}
	if v := s.Publish(Bundle{Name: "m", Model: spec}); v != 2 {
		t.Errorf("second version = %d", v)
	}
	latest, ok := s.Latest("m")
	if !ok || latest.Version != 2 {
		t.Errorf("Latest = %+v", latest)
	}
	v1, ok := s.Get("m", 1)
	if !ok || v1.Version != 1 {
		t.Errorf("Get(1) = %+v", v1)
	}
	if _, ok := s.Get("m", 3); ok {
		t.Error("Get(3) should miss")
	}
	if _, ok := s.Latest("absent"); ok {
		t.Error("Latest(absent) should miss")
	}
	if got := s.List(); len(got) != 1 || got[0] != "m" {
		t.Errorf("List = %v", got)
	}
}

func TestStoreTotalSpent(t *testing.T) {
	s := New()
	spec, _ := Serialize(ml.ConstantModel{Value: 1})
	s.Publish(Bundle{Name: "m", Model: spec, Provenance: Provenance{Spent: privacy.MustBudget(0.3, 0)}})
	s.Publish(Bundle{Name: "m", Model: spec, Provenance: Provenance{Spent: privacy.MustBudget(0.5, 1e-8)}})
	got := s.TotalSpent("m")
	if math.Abs(got.Epsilon-0.8) > 1e-12 || got.Delta != 1e-8 {
		t.Errorf("TotalSpent = %v", got)
	}
}

// Regression: Publish used to store the caller's Bundle value with its
// Features map, Weights/Params slices, and provenance Blocks shared. A
// caller mutating those after publishing silently rewrote a "released"
// bundle — exactly what the §2.2 threat model says must be impossible.
func TestPublishIsolatedFromCallerMutation(t *testing.T) {
	s := New()
	weights := []float64{1, 2}
	hourSpeed := []float64{30, 29, 28}
	blocks := []data.BlockID{1, 2}
	b := Bundle{
		Name:     "m",
		Model:    ModelSpec{Kind: "linear", Weights: weights, Bias: 1},
		Features: map[string][]float64{"hour_speed": hourSpeed},
		Provenance: Provenance{
			Pipeline: "demo", Blocks: blocks,
			Spent: privacy.MustBudget(0.5, 0), Decision: "ACCEPT",
		},
	}
	s.Publish(b)

	// The caller now mutates everything it still holds references to.
	weights[0] = 999
	hourSpeed[0] = -1
	blocks[0] = 99
	b.Features["injected"] = []float64{666}
	b.Model.Weights[1] = 999

	got, ok := s.Latest("m")
	if !ok {
		t.Fatal("bundle missing")
	}
	if got.Model.Weights[0] != 1 || got.Model.Weights[1] != 2 {
		t.Errorf("published weights mutated: %v", got.Model.Weights)
	}
	if got.Features["hour_speed"][0] != 30 {
		t.Errorf("published feature table mutated: %v", got.Features["hour_speed"])
	}
	if _, leaked := got.Features["injected"]; leaked {
		t.Error("caller injected a feature table into a released bundle")
	}
	if got.Provenance.Blocks[0] != 1 {
		t.Errorf("published provenance blocks mutated: %v", got.Provenance.Blocks)
	}

	// Params-based models are isolated too.
	params := []float64{1, 2, 3, 4}
	s.Publish(Bundle{Name: "p", Model: ModelSpec{Kind: "logistic", Dim: 3, Params: params}})
	params[0] = 999
	got, _ = s.Latest("p")
	if got.Model.Params[0] != 1 {
		t.Errorf("published params mutated: %v", got.Model.Params)
	}
}

func TestStoreConcurrentPublish(t *testing.T) {
	s := New()
	spec, _ := Serialize(ml.ConstantModel{Value: 1})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.Publish(Bundle{Name: "m", Model: spec})
				_, _ = s.Latest("m")
			}
		}()
	}
	wg.Wait()
	latest, _ := s.Latest("m")
	if latest.Version != 800 {
		t.Errorf("final version = %d, want 800", latest.Version)
	}
}

func TestServingEndpoints(t *testing.T) {
	s := New()
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{2}, Bias: 1})
	s.Publish(Bundle{
		Name: "double-plus-one", Model: spec,
		Provenance: Provenance{Pipeline: "demo", Quality: 0.9, Spent: privacy.MustBudget(0.25, 0)},
	})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	// /models lists the bundle.
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var infos []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(infos) != 1 || infos[0]["name"] != "double-plus-one" {
		t.Fatalf("/models = %v", infos)
	}

	// /predict evaluates the model.
	body := bytes.NewBufferString(`{"features":[3]}`)
	resp, err = http.Post(srv.URL+"/predict?model=double-plus-one", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	var pred map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&pred); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := pred["prediction"].(float64); math.Abs(got-7) > 1e-12 {
		t.Errorf("prediction = %v, want 7", got)
	}

	// Error paths.
	for _, tc := range []struct {
		url, payload string
		wantCode     int
	}{
		{"/predict", `{"features":[1]}`, http.StatusBadRequest},
		{"/predict?model=ghost", `{"features":[1]}`, http.StatusNotFound},
		{"/predict?model=double-plus-one", `{invalid`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+tc.url, "application/json", bytes.NewBufferString(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s: code %d, want %d", tc.url, resp.StatusCode, tc.wantCode)
		}
	}
}

func TestServingRejectsWrongFeatureDimension(t *testing.T) {
	s := New()
	linSpec, _ := Serialize(&ml.LinearModel{Weights: []float64{1, 2}, Bias: 0})
	s.Publish(Bundle{Name: "lin", Model: linSpec})
	logSpec, _ := Serialize(ml.NewLogisticRegression(3))
	s.Publish(Bundle{Name: "log", Model: logSpec})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	for _, tc := range []struct {
		model, payload string
		wantCode       int
	}{
		{"lin", `{"features":[1,2]}`, http.StatusOK},
		{"lin", `{"features":[1,2,3]}`, http.StatusBadRequest}, // too long: used to panic the handler
		{"lin", `{"features":[1]}`, http.StatusBadRequest},     // too short
		{"lin", `{"features":[]}`, http.StatusBadRequest},
		{"lin", `{}`, http.StatusBadRequest}, // features absent entirely
		{"log", `{"features":[1,2,3]}`, http.StatusOK},
		{"log", `{"features":[1,2,3,4]}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(srv.URL+"/predict?model="+tc.model, "application/json",
			bytes.NewBufferString(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: undecodable response: %v", tc.model, tc.payload, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Errorf("%s %s: code %d, want %d (body %v)", tc.model, tc.payload, resp.StatusCode, tc.wantCode, body)
		}
		if msg, _ := body["error"].(string); tc.wantCode == http.StatusBadRequest && msg == "" {
			t.Errorf("%s %s: 400 without error message", tc.model, tc.payload)
		}
	}

	// The server must still answer after the malformed requests (the
	// old behavior killed the handler goroutine mid-response).
	resp, err := http.Post(srv.URL+"/predict?model=lin", "application/json",
		bytes.NewBufferString(`{"features":[3,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("server unhealthy after bad requests: code %d", resp.StatusCode)
	}
}

// TestServingPinnedVersionPredictsWithItsOwnModel: every stored release
// carries the model it serves, so a request pinned to a superseded
// version predicts with that version's model on both predict routes,
// before and after requests for newer versions.
func TestServingPinnedVersionPredictsWithItsOwnModel(t *testing.T) {
	s := New()
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()
	for v := 1; v <= 25; v++ {
		spec, _ := Serialize(&ml.LinearModel{Weights: []float64{float64(v)}, Bias: 0})
		s.Publish(Bundle{Name: "m", Model: spec})
	}
	// Version v's weight is v, so feature 1 predicts v.
	for _, v := range []int{25, 1, 13, 1, 25} {
		q := fmt.Sprintf("?model=m&version=%d", v)
		var single predictResponse
		if code := postJSON(t, srv.URL+"/predict"+q, `{"features":[1]}`, &single); code != http.StatusOK ||
			single.Version != v || single.Prediction != float64(v) {
			t.Errorf("/predict%s: %d v%d → %v, want 200 v%d → %d", q, code, single.Version, single.Prediction, v, v)
		}
		var batch batchResponse
		if code := postJSON(t, srv.URL+"/predict/batch"+q, `{"rows":[[1],[2]]}`, &batch); code != http.StatusOK ||
			batch.Version != v || len(batch.Predictions) != 2 || batch.Predictions[1] == nil || *batch.Predictions[1] != float64(2*v) {
			t.Errorf("/predict/batch%s: %d %+v, want 200 v%d → [%d %d]", q, code, batch, v, v, 2*v)
		}
	}
}
