package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// getJSON fetches url and decodes the JSON body into out, returning the
// status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: undecodable body: %v", url, err)
		}
	}
	return resp.StatusCode
}

// postJSON posts body to url and decodes the JSON response into out,
// returning the status code.
func postJSON(t *testing.T, url, body string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: undecodable body: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestModelsEmptyStoreReturnsEmptyArray(t *testing.T) {
	// Regression: an empty store used to serialize the nil slice as JSON
	// null, which breaks clients iterating the listing.
	srv := httptest.NewServer(NewServer(New()).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := bytes.TrimSpace(buf.Bytes())
	if string(body) != "[]" {
		t.Errorf("/models on empty store = %s, want []", body)
	}
}

func TestPredictBatchEndpoint(t *testing.T) {
	s := New()
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{2}, Bias: 1})
	s.Publish(Bundle{Name: "double-plus-one", Model: spec})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	var resp batchResponse
	code := postJSON(t, srv.URL+"/predict/batch?model=double-plus-one",
		`{"rows":[[1],[2],[3]]}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if resp.Model != "double-plus-one" || resp.Version != 1 {
		t.Errorf("identity = %s@%d", resp.Model, resp.Version)
	}
	if len(resp.Predictions) != 3 || len(resp.Errors) != 0 {
		t.Fatalf("predictions = %v, errors = %v", resp.Predictions, resp.Errors)
	}
	for i, want := range []float64{3, 5, 7} {
		if resp.Predictions[i] == nil || math.Abs(*resp.Predictions[i]-want) > 1e-12 {
			t.Errorf("prediction[%d] = %v, want %v", i, resp.Predictions[i], want)
		}
	}
}

func TestPredictBatchPositionalRowErrors(t *testing.T) {
	s := New()
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{1, 1}, Bias: 0})
	s.Publish(Bundle{Name: "sum2", Model: spec})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	// Rows 1 (too long), 2 (empty), and 4 (too short) are malformed; the
	// valid rows 0 and 3 must still be answered at their positions.
	var resp batchResponse
	code := postJSON(t, srv.URL+"/predict/batch?model=sum2",
		`{"rows":[[1,2],[1,2,3],[],[10,20],[7]]}`, &resp)
	if code != http.StatusOK {
		t.Fatalf("code = %d: a batch with some bad rows must not fail wholesale", code)
	}
	if len(resp.Predictions) != 5 {
		t.Fatalf("predictions length = %d, want 5 (positional)", len(resp.Predictions))
	}
	if resp.Predictions[0] == nil || *resp.Predictions[0] != 3 {
		t.Errorf("prediction[0] = %v, want 3", resp.Predictions[0])
	}
	if resp.Predictions[3] == nil || *resp.Predictions[3] != 30 {
		t.Errorf("prediction[3] = %v, want 30", resp.Predictions[3])
	}
	for _, i := range []int{1, 2, 4} {
		if resp.Predictions[i] != nil {
			t.Errorf("malformed row %d got prediction %v, want null", i, *resp.Predictions[i])
		}
	}
	if len(resp.Errors) != 3 {
		t.Fatalf("errors = %+v, want 3 entries", resp.Errors)
	}
	wantRows := []int{1, 2, 4}
	for j, e := range resp.Errors {
		if e.Row != wantRows[j] {
			t.Errorf("errors[%d].Row = %d, want %d", j, e.Row, wantRows[j])
		}
		if e.Error == "" {
			t.Errorf("errors[%d] has empty message", j)
		}
	}

	// The JSON wire format marks bad rows as null, not 0.
	resp2, err := http.Post(srv.URL+"/predict/batch?model=sum2", "application/json",
		bytes.NewBufferString(`{"rows":[[1,2],[9]]}`))
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	var preds []json.RawMessage
	if err := json.Unmarshal(raw["predictions"], &preds); err != nil {
		t.Fatal(err)
	}
	if string(preds[1]) != "null" {
		t.Errorf("wire prediction for bad row = %s, want null", preds[1])
	}
}

// apiBudget is the body budget API declares for pattern.
func apiBudget(t *testing.T, pattern string) int64 {
	t.Helper()
	for _, rt := range API {
		if rt.Pattern == pattern {
			return rt.Body
		}
	}
	t.Fatalf("API declares no %q", pattern)
	return 0
}

func TestPredictBatchRequestValidation(t *testing.T) {
	s := New()
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	s.Publish(Bundle{Name: "m", Model: spec})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	big, _ := json.Marshal(batchRequest{Rows: make([][]float64, maxBatchRows+1)})
	for _, tc := range []struct {
		name, url, payload string
		wantCode           int
	}{
		{"missing model", "/predict/batch", `{"rows":[[1]]}`, http.StatusBadRequest},
		{"unknown model", "/predict/batch?model=ghost", `{"rows":[[1]]}`, http.StatusNotFound},
		{"malformed JSON", "/predict/batch?model=m", `{nope`, http.StatusBadRequest},
		{"empty rows", "/predict/batch?model=m", `{"rows":[]}`, http.StatusBadRequest},
		{"rows absent", "/predict/batch?model=m", `{}`, http.StatusBadRequest},
		{"oversized batch", "/predict/batch?model=m", string(big), http.StatusBadRequest},
		// Past the byte cap is 413 — the body may well be valid JSON, the
		// server just refuses to read that much of it.
		{"oversize batch body", "/predict/batch?model=m",
			`{"rows":[[1]],"pad":"` + strings.Repeat("x", int(apiBudget(t, "POST /predict/batch"))) + `"}`, http.StatusRequestEntityTooLarge},
		{"oversize predict body", "/predict?model=m",
			`{"features":[1],"pad":"` + strings.Repeat("x", int(apiBudget(t, "POST /predict"))) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		var body map[string]any
		if code := postJSON(t, srv.URL+tc.url, tc.payload, &body); code != tc.wantCode {
			t.Errorf("%s: code %d, want %d (body %v)", tc.name, code, tc.wantCode, body)
		} else if msg, _ := body["error"].(string); msg == "" {
			t.Errorf("%s: error response without message", tc.name)
		}
	}

	// The server still answers after the malformed requests.
	var ok batchResponse
	if code := postJSON(t, srv.URL+"/predict/batch?model=m", `{"rows":[[5]]}`, &ok); code != http.StatusOK {
		t.Errorf("server unhealthy after bad requests: code %d", code)
	}
}

func TestPredictBatchMLPMatchesSingle(t *testing.T) {
	// The batch path runs the MLP's PredictBatch, one set of activation
	// buffers for all rows; it must agree with singleton predictions.
	s := New()
	mlp := ml.NewMLP(ml.Regression, 3, []int{8, 4}, rng.New(42))
	spec, err := Serialize(mlp)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(Bundle{Name: "nn", Model: spec})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	rows := [][]float64{{0.1, 0.2, 0.3}, {1, -1, 0.5}, {0, 0, 0}}
	payload, _ := json.Marshal(batchRequest{Rows: rows})
	var resp batchResponse
	if code := postJSON(t, srv.URL+"/predict/batch?model=nn", string(payload), &resp); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	for i, row := range rows {
		want := mlp.Predict(row)
		if resp.Predictions[i] == nil || math.Abs(*resp.Predictions[i]-want) > 1e-9 {
			t.Errorf("row %d: batch = %v, want %v", i, resp.Predictions[i], want)
		}
	}
}

func TestFeaturesEndpoint(t *testing.T) {
	s := New()
	spec, _ := Serialize(ml.ConstantModel{Value: 0})
	s.Publish(Bundle{
		Name: "taxi", Model: spec,
		Features: map[string][]float64{
			"hour_speed": {30, 28, 26, 24},
			"day_count":  {100, 200},
		},
	})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	// No key: list the available tables.
	var list featuresResponse
	if code := getJSON(t, srv.URL+"/features?model=taxi", &list); code != http.StatusOK {
		t.Fatalf("list code = %d", code)
	}
	if len(list.Keys) != 2 || list.Keys[0] != "day_count" || list.Keys[1] != "hour_speed" {
		t.Errorf("keys = %v, want sorted [day_count hour_speed]", list.Keys)
	}

	// Whole table: Listing 1's per-hour speed join.
	var table featuresResponse
	if code := getJSON(t, srv.URL+"/features?model=taxi&key=hour_speed", &table); code != http.StatusOK {
		t.Fatalf("table code = %d", code)
	}
	if table.Key != "hour_speed" || len(table.Values) != 4 || table.Values[2] != 26 {
		t.Errorf("table = %+v", table)
	}

	// Index variant: single-value serving-time join.
	var one featuresResponse
	if code := getJSON(t, srv.URL+"/features?model=taxi&key=hour_speed&index=3", &one); code != http.StatusOK {
		t.Fatalf("index code = %d", code)
	}
	if one.Index == nil || *one.Index != 3 || one.Value == nil || *one.Value != 24 {
		t.Errorf("indexed lookup = %+v, want index 3 → 24", one)
	}
	if one.Values != nil {
		t.Errorf("indexed lookup returned whole table: %v", one.Values)
	}

	// Error paths.
	for _, tc := range []struct {
		name, url string
		wantCode  int
	}{
		{"missing model", "/features", http.StatusBadRequest},
		{"unknown model", "/features?model=ghost&key=hour_speed", http.StatusNotFound},
		{"unknown key", "/features?model=taxi&key=nope", http.StatusNotFound},
		{"index without key", "/features?model=taxi&index=1", http.StatusBadRequest},
		{"bad index", "/features?model=taxi&key=hour_speed&index=zap", http.StatusBadRequest},
		{"index out of range", "/features?model=taxi&key=hour_speed&index=4", http.StatusBadRequest},
		{"negative index", "/features?model=taxi&key=hour_speed&index=-1", http.StatusBadRequest},
		{"bad version", "/features?model=taxi&key=hour_speed&version=9", http.StatusNotFound},
	} {
		var body map[string]any
		if code := getJSON(t, srv.URL+tc.url, &body); code != tc.wantCode {
			t.Errorf("%s: code %d, want %d (body %v)", tc.name, code, tc.wantCode, body)
		}
	}

	// Versioned lookup pins an older release's table.
	s.Publish(Bundle{
		Name: "taxi", Model: spec,
		Features: map[string][]float64{"hour_speed": {1, 2, 3, 4}},
	})
	var v1 featuresResponse
	if code := getJSON(t, srv.URL+"/features?model=taxi&key=hour_speed&version=1", &v1); code != http.StatusOK {
		t.Fatalf("versioned code = %d", code)
	}
	if v1.Version != 1 || v1.Values[0] != 30 {
		t.Errorf("versioned lookup = %+v, want version 1 table", v1)
	}
}

func TestProvenanceEndpoint(t *testing.T) {
	s := New()
	spec, _ := Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	s.Publish(Bundle{
		Name: "taxi-lr", Model: spec,
		Provenance: Provenance{
			Pipeline: "taxi-lr-0",
			Spent:    privacy.MustBudget(0.25, 1e-8),
			Blocks:   []data.BlockID{3, 4, 5},
			Decision: "ACCEPT",
			Quality:  0.004,
		},
	})
	s.Publish(Bundle{
		Name: "taxi-lr", Model: spec,
		Provenance: Provenance{
			Pipeline: "taxi-lr-0",
			Spent:    privacy.MustBudget(0.5, 0),
			Blocks:   []data.BlockID{5, 6},
			Decision: "ACCEPT",
			Quality:  0.003,
		},
	})
	srv := httptest.NewServer(NewServer(s).Handler())
	defer srv.Close()

	var prov provenanceResponse
	if code := getJSON(t, srv.URL+"/models/taxi-lr/provenance", &prov); code != http.StatusOK {
		t.Fatalf("code = %d", code)
	}
	if prov.Model != "taxi-lr" || prov.Version != 2 {
		t.Errorf("identity = %s@%d, want taxi-lr@2", prov.Model, prov.Version)
	}
	if prov.Epsilon != 0.5 || len(prov.Blocks) != 2 || prov.Blocks[0] != 5 {
		t.Errorf("latest provenance = %+v", prov)
	}
	if prov.Decision != "ACCEPT" || prov.Quality != 0.003 {
		t.Errorf("decision/quality = %q/%v", prov.Decision, prov.Quality)
	}
	if math.Abs(prov.TotalEpsilon-0.75) > 1e-12 {
		t.Errorf("total ε = %v, want 0.75 across versions", prov.TotalEpsilon)
	}

	// Version pinning reaches the first release.
	var v1 provenanceResponse
	if code := getJSON(t, srv.URL+"/models/taxi-lr/provenance?version=1", &v1); code != http.StatusOK {
		t.Fatalf("versioned code = %d", code)
	}
	if v1.Version != 1 || v1.Epsilon != 0.25 || len(v1.Blocks) != 3 {
		t.Errorf("v1 provenance = %+v", v1)
	}

	if code := getJSON(t, srv.URL+"/models/ghost/provenance", nil); code != http.StatusNotFound {
		t.Errorf("unknown model provenance code = %d", code)
	}
	if code := getJSON(t, srv.URL+"/models/taxi-lr/provenance?version=forty", nil); code != http.StatusBadRequest {
		t.Errorf("bad version provenance code = %d", code)
	}

	// A bundle published with nil blocks serializes them as [], not null.
	s.Publish(Bundle{Name: "bare", Model: spec})
	resp, err := http.Get(srv.URL + "/models/bare/provenance")
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if string(raw["blocks"]) != "[]" {
		t.Errorf("nil blocks serialized as %s, want []", raw["blocks"])
	}
}

// TestConcurrentPublishWhilePredicting hammers every endpoint while
// pipelines publish new versions of a linear model and an MLP. Run under
// -race it pins down that a release's model, built as the release
// enters the store, reaches the requests that read the release safely,
// and that concurrent requests share one MLP with nothing around it.
func TestConcurrentPublishWhilePredicting(t *testing.T) {
	s := New()
	publishAll := func(v int) {
		linSpec, _ := Serialize(&ml.LinearModel{Weights: []float64{float64(v)}, Bias: 0})
		s.Publish(Bundle{
			Name: "lin", Model: linSpec,
			Features:   map[string][]float64{"hour_speed": {float64(v), 2, 3}},
			Provenance: Provenance{Pipeline: "demo", Blocks: []data.BlockID{1}},
		})
		mlpSpec, _ := Serialize(ml.NewMLP(ml.Regression, 2, []int{4}, rng.New(uint64(v))))
		s.Publish(Bundle{Name: "nn", Model: mlpSpec})
	}
	publishAll(1)
	server := NewServer(s)
	srv := httptest.NewServer(server.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // publisher
		defer wg.Done()
		for v := 2; v <= 40; v++ {
			publishAll(v)
		}
		close(stop)
	}()
	fail := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := srv.Client()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				var url, payload string
				switch i % 4 {
				case 0:
					url, payload = "/predict/batch?model=lin", `{"rows":[[1],[2],[3,4],[5]]}`
				case 1:
					url, payload = "/predict/batch?model=nn", `{"rows":[[1,2],[0.5,-0.5]]}`
				case 2:
					url, payload = "/predict?model=nn", `{"features":[1,2]}`
				default:
					url, payload = "", "" // GET round
				}
				var resp *http.Response
				var err error
				if url != "" {
					resp, err = client.Post(srv.URL+url, "application/json", bytes.NewBufferString(payload))
				} else {
					targets := []string{"/models", "/features?model=lin&key=hour_speed&index=0", "/models/lin/provenance"}
					resp, err = client.Get(srv.URL + targets[(i/4)%len(targets)])
				}
				if err != nil {
					select {
					case fail <- err.Error():
					default:
					}
					return
				}
				if resp.StatusCode != http.StatusOK {
					select {
					case fail <- fmt.Sprintf("worker %d: %s → %d", w, url, resp.StatusCode):
					default:
					}
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	// After the dust settles predictions reflect the final version, and
	// the first version still predicts with its own model.
	for _, c := range []struct {
		pin     string
		version int
		want    float64
	}{{"", 40, 80}, {"&version=1", 1, 2}} {
		var resp batchResponse
		if code := postJSON(t, srv.URL+"/predict/batch?model=lin"+c.pin, `{"rows":[[2]]}`, &resp); code != http.StatusOK {
			t.Fatalf("final predict%s: code %d", c.pin, code)
		}
		if resp.Version != c.version || resp.Predictions[0] == nil || *resp.Predictions[0] != c.want {
			t.Errorf("final batch%s = v%d %v, want v%d → %v", c.pin, resp.Version, resp.Predictions[0], c.version, c.want)
		}
	}
}
