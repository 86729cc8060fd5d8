package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/taxi"
)

// benchServer publishes one model of the given spec and returns a test
// server plus a keep-alive client.
func benchServer(b *testing.B, m ml.Model) (*httptest.Server, *http.Client) {
	b.Helper()
	s := New()
	spec, err := Serialize(m)
	if err != nil {
		b.Fatal(err)
	}
	s.Publish(Bundle{Name: "bench", Model: spec})
	srv := httptest.NewServer(NewServer(s).Handler())
	b.Cleanup(srv.Close)
	return srv, srv.Client()
}

// benchRows builds n 48-wide rows of uniform random floats: 17-digit
// literals on the wire, none of them a one-digit integer.
func benchRows(n int) [][]float64 {
	r := rng.New(11)
	rows := make([][]float64, n)
	for i := range rows {
		x := make([]float64, taxi.FeatureDim)
		for j := range x {
			x[j] = r.Float64()
		}
		rows[i] = x
	}
	return rows
}

// onehotRows builds n taxi-featurized rows, the shape the serving tier is
// sent: 46 of 48 columns are one-hot indicators, so on the wire most
// literals are a bare 0 or 1.
func onehotRows(n int) [][]float64 {
	ex := taxi.Pipeline(2*n, 0, 480, 0, 0, 11).Examples[:n]
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = ex[i].Features
	}
	return rows
}

func post(b *testing.B, c *http.Client, url string, payload []byte) {
	b.Helper()
	resp, err := c.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
}

// BenchmarkServePredictBatch measures end-to-end HTTP throughput of
// POST /predict/batch — JSON decode, positional validation, one cached
// model instantiation for the whole batch, JSON encode — on 48-wide
// rows. The rows/s metric is the serving number that matters for Fig. 1's
// serving infrastructure. Two row shapes, because the row scanner's cost
// depends on them: random 17-digit floats (`rows=`) have no one-digit
// literal, taxi-featurized rows (`onehot/rows=`) are 46 of 48 one-hot.
func BenchmarkServePredictBatch(b *testing.B) {
	weights := make([]float64, taxi.FeatureDim)
	for i := range weights {
		weights[i] = float64(i%7) * 0.1
	}
	models := []struct {
		name  string
		model ml.Model
	}{
		{"linear", &ml.LinearModel{Weights: weights, Bias: 0.5}},
		{"mlp", ml.NewMLP(ml.Regression, taxi.FeatureDim, []int{64, 32}, rng.New(5))},
	}
	// Rows are built inside the sub-benchmark, so a filtered-out one
	// leaves the heap as it found it.
	run := func(name string, model ml.Model, rows func(n int) [][]float64, n int) {
		b.Run(name, func(b *testing.B) {
			srv, client := benchServer(b, model)
			payload, err := json.Marshal(batchRequest{Rows: rows(n)})
			if err != nil {
				b.Fatal(err)
			}
			url := srv.URL + "/predict/batch?model=bench"
			post(b, client, url, payload) // warm the pools and the connection
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(b, client, url, payload)
			}
			b.StopTimer()
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
	for _, m := range models {
		for _, batch := range []int{16, 256, 2048} {
			run(fmt.Sprintf("%s/rows=%d", m.name, batch), m.model, benchRows, batch)
		}
		run(m.name+"/onehot/rows=256", m.model, onehotRows, 256)
	}
}

// BenchmarkServePredictSingle is the per-request baseline the batch
// endpoint amortizes: the same rows pushed one HTTP round trip at a
// time.
func BenchmarkServePredictSingle(b *testing.B) {
	weights := make([]float64, taxi.FeatureDim)
	for i := range weights {
		weights[i] = float64(i%7) * 0.1
	}
	srv, client := benchServer(b, &ml.LinearModel{Weights: weights, Bias: 0.5})
	payload, err := json.Marshal(predictRequest{Features: benchRows(1)[0]})
	if err != nil {
		b.Fatal(err)
	}
	url := srv.URL + "/predict?model=bench"
	post(b, client, url, payload)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post(b, client, url, payload)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
