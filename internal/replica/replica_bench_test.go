package replica

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
)

// benchBundle builds a taxi-dimensional release with the Listing 1
// feature table — the payload shape the push path carries in the demo.
func benchBundle(version int) store.Bundle {
	weights := make([]float64, taxi.FeatureDim)
	for i := range weights {
		weights[i] = float64(i%7) * 0.1
	}
	spec, _ := store.Serialize(&ml.LinearModel{Weights: weights, Bias: 0.5})
	speeds := make([]float64, 24)
	for i := range speeds {
		speeds[i] = 30 - float64(i)*0.3
	}
	b := store.Bundle{
		Name: "bench", Model: spec,
		Features: map[string][]float64{"hour_speed": speeds},
	}
	b.Provenance.Quality = float64(version)
	return b
}

// BenchmarkBundlePush measures one push end to end — the request a
// reconcile sends per missing version: canonical encode, HTTP POST,
// replica-side decode, digest-checked apply (every odd iteration
// re-pushes the same version, so both the apply and the
// idempotent-duplicate paths are on the clock, as they are in a real
// anti-entropy sweep).
func BenchmarkBundlePush(b *testing.B) {
	src := store.New()
	rep := NewServer()
	srv := httptest.NewServer(rep.Handler())
	defer srv.Close()
	pub := NewPublisher(src, []string{srv.URL}, WithClient(srv.Client()),
		WithRetry(1, time.Millisecond))

	push := func(version int) {
		bundle, _ := src.Get("bench", version)
		if err := pub.pushOnce(context.Background(), srv.URL, bundle); err != nil {
			b.Fatal(err)
		}
	}
	version := src.Publish(benchBundle(1))
	push(version)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			version = src.Publish(benchBundle(i))
		}
		push(version)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pushes/s")
}

// BenchmarkBundlePushFanout3 is the deployment shape of the e2e test:
// one publish fanned out to 3 replicas concurrently. ns/op is the
// latency until the slowest replica acks.
func BenchmarkBundlePushFanout3(b *testing.B) {
	src := store.New()
	var urls []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(NewServer().Handler())
		b.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	pub := NewPublisher(src, urls, WithRetry(1, time.Millisecond))
	push := func(version int) {
		bundle, _ := src.Get("bench", version)
		if err := pub.eachEndpoint(context.Background(), func(ctx context.Context, ep string) error {
			return pub.pushOnce(ctx, ep, bundle)
		}); err != nil {
			b.Fatal(err)
		}
	}
	version := src.Publish(benchBundle(1))
	push(version)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			version = src.Publish(benchBundle(i))
		}
		push(version)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pushes/s")
}

// BenchmarkReplicaPredictBatch measures per-replica serving throughput
// through the replica's handler stack (mux fallthrough + shared
// serving handlers + connection fast path) — the number that multiplies
// by replica count under load balancing.
func BenchmarkReplicaPredictBatch(b *testing.B) {
	src := store.New()
	rep := NewServer()
	srv := httptest.NewServer(rep.Handler())
	defer srv.Close()
	pub := NewPublisher(src, []string{srv.URL}, WithClient(srv.Client()),
		WithRetry(1, time.Millisecond))
	if _, err := pub.Publish(benchBundle(1)); err != nil {
		b.Fatal(err)
	}

	r := rng.New(11)
	for _, batch := range []int{256} {
		b.Run(fmt.Sprintf("rows=%d", batch), func(b *testing.B) {
			rows := make([][]float64, batch)
			for i := range rows {
				rows[i] = make([]float64, taxi.FeatureDim)
				for j := range rows[i] {
					rows[i][j] = r.Float64()
				}
			}
			payload, _ := json.Marshal(map[string]any{"rows": rows})
			url := srv.URL + "/predict/batch?model=bench"
			client := srv.Client()
			post := func() {
				resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
				if err != nil {
					b.Fatal(err)
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			post() // warm model + encoded caches
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.StopTimer()
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// BenchmarkReplicaProvenance measures the pre-encoded read path: after
// the first request, every /models/{name}/provenance is a cache lookup
// plus one Write.
func BenchmarkReplicaProvenance(b *testing.B) {
	src := store.New()
	rep := NewServer()
	srv := httptest.NewServer(rep.Handler())
	defer srv.Close()
	pub := NewPublisher(src, []string{srv.URL}, WithClient(srv.Client()),
		WithRetry(1, time.Millisecond))
	if _, err := pub.Publish(benchBundle(1)); err != nil {
		b.Fatal(err)
	}
	client := srv.Client()
	url := srv.URL + "/models/bench/provenance"
	get := func() {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	get()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
}
