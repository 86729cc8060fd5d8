package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faulty"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/taxi"
)

// fleet is the shared test fixture: a primary store with published
// releases, N replicas each behind its own fault injector (the
// "network"), all synced, plus the canonical byte truth from a direct
// primary server.
type fleet struct {
	src     *store.Store
	primary *httptest.Server
	reps    []*replica.Server
	injs    []*faulty.Injector
	srvs    []*httptest.Server
	urls    []string
}

// hourSpeeds is a fixed 24-entry serving-time join table.
func hourSpeeds() []float64 {
	out := make([]float64, 24)
	for i := range out {
		out[i] = 10 + float64(i)/2
	}
	return out
}

// newFleet publishes `versions` releases of model "m" and stands up n
// synced replicas behind injectors.
func newFleet(t testing.TB, n, versions int) *fleet {
	t.Helper()
	f := &fleet{src: store.New()}
	spec, err := store.Serialize(&ml.LinearModel{Weights: []float64{2, -1}, Bias: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= versions; v++ {
		f.src.Publish(store.Bundle{
			Name:     "m",
			Model:    spec,
			Features: map[string][]float64{"hour_speed": hourSpeeds()},
			Provenance: store.Provenance{
				Pipeline: "m", Decision: "accept", Quality: float64(v),
			},
		})
	}
	f.primary = httptest.NewServer(store.NewServer(f.src).Handler())
	t.Cleanup(f.primary.Close)
	for i := 0; i < n; i++ {
		rep := replica.NewServer()
		inj := faulty.New(uint64(1000 + i))
		srv := httptest.NewServer(inj.Handler(rep.Handler()))
		t.Cleanup(srv.Close)
		f.reps = append(f.reps, rep)
		f.injs = append(f.injs, inj)
		f.srvs = append(f.srvs, srv)
		f.urls = append(f.urls, srv.URL)
	}
	if n > 0 {
		pub := replica.NewPublisher(f.src, f.urls)
		if err := pub.Sync(context.Background()); err != nil {
			t.Fatalf("syncing fleet: %v", err)
		}
	}
	return f
}

// gw builds a gateway over the fleet with fast test timings.
func (f *fleet) gw(t testing.TB, mutate ...func(*Config)) *Gateway {
	t.Helper()
	cfg := Config{
		Backends:       f.urls,
		AttemptTimeout: 500 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond,
		Breaker:        BreakerConfig{FailThreshold: 3, Cooldown: 250 * time.Millisecond},
		Limits:         Limits{Read: 512, Predict: 256, Batch: 64},
	}
	for _, m := range mutate {
		m(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// canonicalPaths are the read requests the byte-identity assertions
// cover, with the canonical body fetched from the primary.
var batchBody = `{"rows":[[1,0.5],[0.25,2]]}`

func canonicalPaths() []struct{ method, path, body string } {
	return []struct{ method, path, body string }{
		{http.MethodGet, "/models", ""},
		{http.MethodGet, "/models/m/provenance", ""},
		{http.MethodGet, "/features?model=m&key=hour_speed", ""},
		{http.MethodGet, "/features?model=m&key=hour_speed&index=8", ""},
		{http.MethodPost, "/predict/batch?model=m", batchBody},
	}
}

func doReq(t testing.TB, client *http.Client, method, url, body string) (int, []byte, error) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = bytes.NewBufferString(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// canon fetches the canonical body from the primary (must be 200).
func (f *fleet) canon(t testing.TB, method, path, body string) []byte {
	t.Helper()
	code, raw, err := doReq(t, f.primary.Client(), method, f.primary.URL+path, body)
	if err != nil || code != http.StatusOK {
		t.Fatalf("canonical %s %s: %d %v %s", method, path, code, err, raw)
	}
	return raw
}

// TestClassify: the gateway admits each request under its serving
// row's class (store.API), whatever the query string — observed as
// exactly one request in that class's latency histogram and none in
// the others.
func TestClassify(t *testing.T) {
	f := newFleet(t, 1, 1)
	g := f.gw(t)
	h := g.Handler()
	cases := []struct {
		method, path string
		want         store.Class
	}{
		{http.MethodGet, "/models", store.ClassRead},
		{http.MethodGet, "/features?model=m&key=k", store.ClassRead},
		{http.MethodGet, "/models/m/provenance", store.ClassRead},
		{http.MethodPost, "/predict", store.ClassPredict},
		{http.MethodPost, "/predict?model=m", store.ClassPredict},
		{http.MethodPost, "/predict/batch", store.ClassBatch},
		{http.MethodPost, "/predict/batch?model=m", store.ClassBatch},
	}
	for _, c := range cases {
		var before [numClasses]uint64
		for k := range before {
			before[k] = g.reqSec[k].Count()
		}
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(c.method, c.path, nil))
		for k := range before {
			want := uint64(0)
			if store.Class(k) == c.want {
				want = 1
			}
			if got := g.reqSec[k].Count() - before[k]; got != want {
				t.Errorf("%s %s: %d request(s) admitted as %v, want %d", c.method, c.path, got, store.Class(k), want)
			}
		}
	}
}

// TestBreakerStateMachine drives closed → open → half-open → closed and
// the half-open-failure → open edge with a fake clock.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	b := NewBreaker(BreakerConfig{FailThreshold: 3, Cooldown: time.Minute})
	b.now = func() time.Time { return now }

	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Record(false)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d failures = %v, want open", 3, b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a request before cooldown")
	}

	// A success between failures resets the consecutive count.
	b2 := NewBreaker(BreakerConfig{FailThreshold: 3, Cooldown: time.Minute})
	b2.Record(false)
	b2.Record(false)
	b2.Record(true)
	b2.Record(false)
	b2.Record(false)
	if b2.State() != BreakerClosed {
		t.Fatal("non-consecutive failures tripped the breaker")
	}

	// Cooldown elapses: exactly one half-open probe is admitted.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe refused")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("second concurrent request admitted during half-open probe")
	}
	// Probe fails → open again for a fresh cooldown.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("breaker admitted a request right after a failed probe")
	}
	// Next cooldown, probe succeeds → closed.
	now = now.Add(2 * time.Minute)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker refused a request")
	}
}

// TestAdmissionShedOrdering pins the shed-before-collapse policy: batch
// is refused once the gateway is ¾ full even though its own class has
// room, while reads keep being admitted until their own bound.
func TestAdmissionShedOrdering(t *testing.T) {
	a := newAdmission(Limits{Read: 6, Predict: 2, Batch: 2}, metrics.New()) // global 10, soft 7
	// held lists the slots taken, each given back with a.release.
	var held []store.Class
	acquire := func(c store.Class, wantOK bool) {
		t.Helper()
		ok := a.admit(c)
		if ok != wantOK {
			t.Fatalf("admit(%v) = %v, want %v (global %d)", c, ok, wantOK, a.global.Load())
		}
		if ok {
			held = append(held, c)
		}
	}

	// Below the soft threshold everything is admitted, up to each
	// class's own bound.
	acquire(store.ClassBatch, true)
	acquire(store.ClassBatch, true)
	acquire(store.ClassBatch, false) // class bound: batch is full at 2
	// Free one batch slot and climb to the soft threshold with cheap
	// classes: global reaches 7 (== batchSoft) with batch at 1/2.
	a.release(held[0])
	held = held[1:]
	for i := 0; i < 6; i++ {
		acquire(store.ClassRead, true)
	}
	// Batch has class room, but the gateway is ¾ full → shed batch
	// first...
	acquire(store.ClassBatch, false)
	// ...while cheap classes are still welcome until their own bounds.
	acquire(store.ClassPredict, true)
	acquire(store.ClassPredict, true)
	acquire(store.ClassRead, false) // read class bound (6/6)

	shed := a.shedCounts()
	if shed["batch"] != 2 || shed["read"] != 1 || shed["predict"] != 0 {
		t.Fatalf("shed counts = %v, want batch 2, read 1, predict 0", shed)
	}
	for _, c := range held {
		a.release(c)
	}
	if a.global.Load() != 0 {
		t.Fatalf("global in-flight after all releases = %d, want 0", a.global.Load())
	}
	held = nil
	// Capacity fully restored: batch admits again.
	acquire(store.ClassBatch, true)

	// Fill every class, then take one read slot back the way release
	// does before it decrements global: for that window global still
	// counts every slot, yet the read class has room, and a read must get
	// it.
	acquire(store.ClassBatch, true)
	for i := 0; i < 6; i++ {
		acquire(store.ClassRead, true)
	}
	acquire(store.ClassPredict, true)
	acquire(store.ClassPredict, true)
	<-a.sems[store.ClassRead]
	acquire(store.ClassRead, true)
}

// TestProxyByteIdentical pins the canonical-bytes invariant on the happy
// path: every read endpoint through the gateway returns byte-identical
// bodies to the primary.
func TestProxyByteIdentical(t *testing.T) {
	f := newFleet(t, 3, 2)
	g := f.gw(t)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	for _, c := range canonicalPaths() {
		want := f.canon(t, c.method, c.path, c.body)
		code, got, err := doReq(t, gsrv.Client(), c.method, gsrv.URL+c.path, c.body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("%s %s via gateway: %d %v", c.method, c.path, code, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s: gateway body diverges from primary:\n gw: %s\n pri: %s", c.method, c.path, got, want)
		}
	}
	if st := g.Status(); st.Proxied != int64(len(canonicalPaths())) {
		t.Errorf("proxied counter = %d, want %d", st.Proxied, len(canonicalPaths()))
	}
}

// TestFailoverRetriesOnceOnAnotherReplica: a failed request (transport
// reset or 5xx) is transparently retried on a different backend and the
// client still gets the canonical bytes.
func TestFailoverRetriesOnceOnAnotherReplica(t *testing.T) {
	for _, mode := range []faulty.Mode{faulty.Reset, faulty.Error} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFleet(t, 2, 1)
			// Backend 0 fails its first 3 requests in the given mode.
			f.injs[0].Set(faulty.Rule{Mode: mode, First: 3})
			g := f.gw(t)
			gsrv := httptest.NewServer(g.Handler())
			defer gsrv.Close()

			want := f.canon(t, http.MethodGet, "/models", "")
			for i := 0; i < 6; i++ {
				code, got, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
				if err != nil || code != http.StatusOK {
					t.Fatalf("request %d: %d %v", i, code, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("request %d: non-canonical body through failover", i)
				}
			}
			if st := g.Status(); st.Retries == 0 {
				t.Error("failover happened but the retry counter did not move")
			}
		})
	}
}

// TestPartialUpstreamBodyFailsOver: a backend that truncates its
// response mid-body must not leak the truncation to the client — the
// gateway verifies completeness before forwarding and fails over.
func TestPartialUpstreamBodyFailsOver(t *testing.T) {
	f := newFleet(t, 2, 1)
	f.injs[0].Set(faulty.Rule{Mode: faulty.Partial})
	g := f.gw(t)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	want := f.canon(t, http.MethodGet, "/features?model=m&key=hour_speed", "")
	for i := 0; i < 6; i++ {
		code, got, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/features?model=m&key=hour_speed", "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("request %d: %d %v", i, code, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("request %d: truncated/non-canonical body reached the client", i)
		}
	}
}

// TestStalledBackendBoundedByAttemptDeadline: a hanging backend costs at
// most one AttemptTimeout before failover, and the backend's last error
// says its deadline ended it; the client's own context cancellation
// also cuts through.
func TestStalledBackendBoundedByAttemptDeadline(t *testing.T) {
	f := newFleet(t, 2, 1)
	f.injs[0].Set(faulty.Rule{Mode: faulty.Hang})
	g := f.gw(t, func(c *Config) { c.AttemptTimeout = 300 * time.Millisecond })
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	want := f.canon(t, http.MethodGet, "/models", "")
	// Routing alternates between the idle backends, so within two
	// requests one tries the stalled backend first.
	for i := 0; i < 2 && g.Status().Backends[0].Failures == 0; i++ {
		start := time.Now()
		code, got, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
		elapsed := time.Since(start)
		if err != nil || code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("request through stalled backend: %d %v", code, err)
		}
		// One stalled attempt (300ms) plus a fast failover; generous
		// bound for CI noise, but far below an unbounded hang.
		if elapsed > 3*time.Second {
			t.Fatalf("request took %v — the stall was not bounded by the attempt deadline", elapsed)
		}
	}
	if st := g.Status().Backends[0]; st.Failures != 1 || !strings.Contains(st.LastError, "context deadline exceeded") {
		t.Fatalf("stalled backend: %d failures, last error %q; want one, a deadline", st.Failures, st.LastError)
	}

	// Client cancellation propagates: with every backend stalled, a
	// client that gives up is released promptly.
	f.injs[0].Set(faulty.Rule{Mode: faulty.Hang})
	f.injs[1].Set(faulty.Rule{Mode: faulty.Hang})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, gsrv.URL+"/models", nil)
	start := time.Now()
	_, cerr := gsrv.Client().Do(req)
	if cerr == nil {
		t.Fatal("want an error when every backend hangs and the client cancels")
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("client cancellation took %v to propagate", d)
	}
}

// TestClientCancellationReachesReplica: a client that gives up ends the
// attempt made for it, so the replica serving that attempt sees its own
// request context done, long before AttemptTimeout would end it.
func TestClientCancellationReachesReplica(t *testing.T) {
	served := make(chan context.Context, 1)
	release := make(chan struct{})
	rep := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		served <- r.Context()
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer rep.Close()
	defer close(release)
	g, err := New(Config{Backends: []string{rep.URL}, AttemptTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, gsrv.URL+"/models", nil)
	if _, err := gsrv.Client().Do(req); err == nil {
		t.Fatal("want an error when the backend hangs and the client gives up")
	}
	replicaCtx := <-served
	select {
	case <-replicaCtx.Done():
	case <-time.After(time.Second):
		t.Fatal("the replica's request context was still live 1s after the client gave up")
	}
}

// TestBreakerOpensThenRecloses: a dead backend's breaker opens after
// FailThreshold consecutive failures, traffic routes around it, and
// once the backend recovers a half-open probe re-closes the breaker.
func TestBreakerOpensThenRecloses(t *testing.T) {
	f := newFleet(t, 2, 1)
	f.injs[0].Set(faulty.Rule{Mode: faulty.Reset})
	g := f.gw(t, func(c *Config) {
		c.Breaker = BreakerConfig{FailThreshold: 3, Cooldown: 150 * time.Millisecond}
	})
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	// Drive traffic until backend 0 accumulates enough failures to trip.
	for i := 0; i < 20; i++ {
		code, _, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("request %d failed: %d %v", i, code, err)
		}
	}
	open := false
	for _, b := range g.Status().Backends {
		if b.URL == f.urls[0] && b.Breaker == "open" {
			open = true
		}
	}
	if !open {
		t.Fatalf("backend 0 breaker did not open: %+v", g.Status().Backends)
	}

	// Recover the backend; after the cooldown, continued traffic drives
	// a half-open probe that re-closes the breaker.
	f.injs[0].Clear()
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("post-recovery request failed: %d %v", code, err)
		}
		closed := false
		for _, b := range g.Status().Backends {
			if b.URL == f.urls[0] && b.Breaker == "closed" {
				closed = true
			}
		}
		if closed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never re-closed after recovery: %+v", g.Status().Backends)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestOverflowingBatchesLeaveBreakersClosed: a batch whose row
// overflows the model to +Inf is the client's fault, and every replica
// answers it the same. Were it a 5xx, each such batch would count
// against two breakers, and a handful from one client would make the
// fleet unroutable for everyone.
func TestOverflowingBatchesLeaveBreakersClosed(t *testing.T) {
	f := newFleet(t, 2, 1)
	g := f.gw(t)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	for i := 0; i < 2*g.cfg.Breaker.FailThreshold; i++ {
		// 2·1e308 − 0 + 0.5 overflows: row 0 is a row error, row 1 is served.
		code, body, err := doReq(t, gsrv.Client(), http.MethodPost, gsrv.URL+"/predict/batch?model=m", `{"rows":[[1e308,0],[1,0.5]]}`)
		if err != nil || code != http.StatusOK {
			t.Errorf("overflowing batch %d: %d %v %s", i, code, err, body)
		}
	}
	for _, b := range g.Status().Backends {
		if b.Breaker != "closed" {
			t.Errorf("backend %s breaker %s after overflowing batches", b.URL, b.Breaker)
		}
	}
	want := f.canon(t, http.MethodPost, "/predict/batch?model=m", batchBody)
	code, got, err := doReq(t, gsrv.Client(), http.MethodPost, gsrv.URL+"/predict/batch?model=m", batchBody)
	if err != nil || code != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("good batch after overflowing ones: %d %v %s", code, err, got)
	}
	if st := g.Status(); st.Retries != 0 || st.Proxied != int64(2*g.cfg.Breaker.FailThreshold+1) {
		t.Errorf("retries %d, proxied %d: every request should be served in one attempt", st.Retries, st.Proxied)
	}
}

// TestLaggingReplicaIsDrainedNotKilled: health probes compare each
// replica's applied-version watermarks against the fleet's frontier; a
// stale replica is drained (no traffic, no breaker trip) and rejoins
// once the publisher catches it up.
func TestLaggingReplicaIsDrainedNotKilled(t *testing.T) {
	f := newFleet(t, 2, 0) // start empty; versions pushed by hand below
	spec, _ := store.Serialize(&ml.LinearModel{Weights: []float64{1, 1}, Bias: 0})
	for v := 1; v <= 4; v++ {
		f.src.Publish(store.Bundle{
			Name: "m", Model: spec,
			Features:   map[string][]float64{"hour_speed": hourSpeeds()},
			Provenance: store.Provenance{Pipeline: "m", Decision: "accept", Quality: float64(v)},
		})
		// Replica 1 gets only v1 — 3 versions behind.
		if v == 1 {
			if err := replica.NewPublisher(f.src, f.urls[1:]).Sync(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Replica 0 gets everything.
	if err := replica.NewPublisher(f.src, f.urls[:1]).Sync(context.Background()); err != nil {
		t.Fatal(err)
	}

	g := f.gw(t, func(c *Config) { c.LagVersions = 1 })
	g.Start()
	defer g.Stop()
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	stateOf := func(url string) string {
		for _, b := range g.Status().Backends {
			if b.URL == url {
				return b.State
			}
		}
		return "?"
	}
	if got := stateOf(f.urls[1]); got != "draining" {
		t.Fatalf("lagging replica state = %q, want draining", got)
	}
	if got := stateOf(f.urls[0]); got != "healthy" {
		t.Fatalf("current replica state = %q, want healthy", got)
	}

	// All traffic lands on the current replica; the drained one serves
	// nothing but is not broken (breaker stays closed).
	for i := 0; i < 10; i++ {
		code, _, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("request %d: %d %v", i, code, err)
		}
	}
	for _, b := range g.Status().Backends {
		if b.URL == f.urls[1] {
			if b.Requests != 0 {
				t.Errorf("drained replica served %d requests, want 0", b.Requests)
			}
			if b.Breaker != "closed" {
				t.Errorf("drained replica breaker = %q — draining must not trip breakers", b.Breaker)
			}
		}
	}

	// Catch the replica up; the next probes return it to rotation.
	if err := replica.NewPublisher(f.src, f.urls[1:]).Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for stateOf(f.urls[1]) != "healthy" {
		if time.Now().After(deadline) {
			t.Fatalf("caught-up replica never rejoined: %+v", g.Status().Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDownBackendDetectedByHealthProbe: a backend whose listener is gone
// is marked down by the active prober and routed around without waiting
// for request failures.
func TestDownBackendDetectedByHealthProbe(t *testing.T) {
	f := newFleet(t, 2, 1)
	g := f.gw(t)
	g.Start()
	defer g.Stop()
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	f.srvs[0].Close() // the process dies
	deadline := time.Now().Add(5 * time.Second)
	for {
		down := false
		for _, b := range g.Status().Backends {
			if b.URL == f.urls[0] && b.State == "down" {
				down = true
			}
		}
		if down {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead backend never marked down: %+v", g.Status().Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
	want := f.canon(t, http.MethodGet, "/models", "")
	for i := 0; i < 5; i++ {
		code, got, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
		if err != nil || code != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("request %d with a down backend: %d %v", i, code, err)
		}
	}
}

// TestPushRefusedAtGateway: the gateway only routes reads; the
// replication protocol's mutating endpoint must not be load-balanced.
func TestPushRefusedAtGateway(t *testing.T) {
	f := newFleet(t, 1, 1)
	g := f.gw(t)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	code, body, err := doReq(t, gsrv.Client(), http.MethodPost, gsrv.URL+"/push", "bundle-bytes")
	if err != nil || code != http.StatusForbidden {
		t.Fatalf("POST /push via gateway: %d %v %s", code, err, body)
	}
	if f.reps[0].Store().VersionCount("m") != 1 {
		t.Fatal("a gateway-routed push mutated a replica store")
	}
}

// spaces is an endless body of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestGatewayBudgets: the gateway routes, admits and caps requests by
// the store's own rows (store.API).
//
//   - A maxBatchRows-row batch at taxi width and full float precision,
//     past the 8 MiB the gateway once capped every body at, passes to a
//     replica and comes back 200: the gateway's budget is the replica's.
//   - A body past a row's budget, or any body on a row that reads none,
//     is 413 at the gateway, with no upstream hop.
//   - An undeclared path is the mux's own 404, byte for byte, even with
//     every admission slot taken: it spends neither a slot nor an
//     upstream hop (GET /replica/status once reached a random replica).
func TestGatewayBudgets(t *testing.T) {
	f := newFleet(t, 1, 1)
	spec, err := store.Serialize(&ml.LinearModel{Weights: make([]float64, taxi.FeatureDim)})
	if err != nil {
		t.Fatal(err)
	}
	f.src.Publish(store.Bundle{Name: "wide", Model: spec})
	if err := replica.NewPublisher(f.src, f.urls).Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	g := f.gw(t, func(c *Config) {
		c.Limits = Limits{Read: 1, Predict: 1, Batch: 1}
		c.AttemptTimeout = time.Minute // a maximal batch under -race takes seconds upstream
	})
	h := g.Handler()
	serve := func(method, path string, body io.Reader, n int64) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, body)
		req.ContentLength = n
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	upstream := func() int64 { return g.Status().Backends[0].Requests }

	r := rand.New(rand.NewPCG(1, 2))
	rows := make([][]float64, 10_000)
	for i := range rows {
		rows[i] = make([]float64, taxi.FeatureDim)
		for j := range rows[i] {
			rows[i][j] = r.Float64()
		}
	}
	batch, err := json.Marshal(map[string]any{"rows": rows})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) <= 8<<20 {
		t.Fatalf("the batch is %d bytes, not past 8 MiB", len(batch))
	}
	t.Logf("batch body: %.2f MiB", float64(len(batch))/(1<<20))
	if rec := serve(http.MethodPost, "/predict/batch?model=wide", bytes.NewReader(batch), int64(len(batch))); rec.Code != http.StatusOK {
		t.Fatalf("a %d-byte batch through the gateway: %d %.200s", len(batch), rec.Code, rec.Body.String())
	}

	before := upstream()
	for _, rt := range store.API {
		method, path, _ := strings.Cut(rt.Pattern, " ")
		path = strings.ReplaceAll(path, "{name}", "m") + "?model=m"
		n := rt.Body + 1
		if rec := serve(method, path, io.LimitReader(spaces{}, n), n); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a %d-byte body: %d %s, want 413", rt.Pattern, n, rec.Code, rec.Body.String())
		}
		if rt.Body == 0 { // and of unknown length: read until the budget runs out
			if rec := serve(method, path, strings.NewReader("x"), -1); rec.Code != http.StatusRequestEntityTooLarge {
				t.Errorf("%s with a chunked body: %d %s, want 413", rt.Pattern, rec.Code, rec.Body.String())
			}
		}
	}
	if hops := upstream() - before; hops != 0 {
		t.Errorf("refused bodies took %d upstream hop(s)", hops)
	}

	for _, c := range []store.Class{store.ClassBatch, store.ClassPredict, store.ClassRead} {
		if !g.adm.admit(c) {
			t.Fatalf("pinning the %v slot failed", c)
		}
		defer g.adm.release(c)
	}
	shed := g.Status().Shed
	for _, path := range []string{"/replica/status", "/no/such/route", "/models/"} {
		rec := serve(http.MethodGet, path, nil, 0)
		want := httptest.NewRecorder()
		http.NotFound(want, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want.Code || rec.Body.String() != want.Body.String() {
			t.Errorf("GET %s: %d %q, want the mux's %d %q", path, rec.Code, rec.Body.String(), want.Code, want.Body.String())
		}
	}
	if hops := upstream() - before; hops != 0 {
		t.Errorf("undeclared paths took %d upstream hop(s)", hops)
	}
	if got := g.Status().Shed; !maps.Equal(got, shed) {
		t.Errorf("undeclared paths were shed: %v, then %v", shed, got)
	}
}

// TestLeastLoadedRouting: with one backend pinned by slow requests, new
// requests prefer the idle backend.
func TestLeastLoadedRouting(t *testing.T) {
	f := newFleet(t, 2, 1)
	// Backend 0 is slow: every request takes 200ms.
	f.injs[0].Set(faulty.Rule{Mode: faulty.Pass, Latency: 200 * time.Millisecond})
	g := f.gw(t)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	// Saturate: launch a few slow requests to raise backend 0's
	// in-flight count, then measure where quick requests land.
	for i := 0; i < 4; i++ {
		go func() {
			_, _, _ = doReq(t, &http.Client{Timeout: 5 * time.Second}, http.MethodGet, gsrv.URL+"/models", "")
		}()
	}
	time.Sleep(50 * time.Millisecond)
	var before, after int64
	for _, b := range g.Status().Backends {
		if b.URL == f.urls[1] {
			before = b.Requests
		}
	}
	for i := 0; i < 8; i++ {
		code, _, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("request %d: %d %v", i, code, err)
		}
	}
	for _, b := range g.Status().Backends {
		if b.URL == f.urls[1] {
			after = b.Requests
		}
	}
	if after-before < 6 {
		t.Errorf("idle backend served only %d of 8 quick requests; least-loaded routing not engaging", after-before)
	}
}

// TestGatewayStatusEndpoint sanity-checks the operator surface.
func TestGatewayStatusEndpoint(t *testing.T) {
	f := newFleet(t, 2, 1)
	g := f.gw(t)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	if code, _, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", ""); err != nil || code != 200 {
		t.Fatalf("warmup: %d %v", code, err)
	}
	code, body, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/gateway/status", "")
	if err != nil || code != http.StatusOK {
		t.Fatalf("gateway status: %d %v", code, err)
	}
	for _, want := range []string{`"backends"`, `"breaker"`, `"shed"`, f.urls[0], f.urls[1]} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("status body missing %s: %s", want, body)
		}
	}
}

// TestNoBackends: construction fails fast.
func TestNoBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with zero backends must error")
	}
}

// TestRepeatedBackendIsAnError: each backend registers its own metric
// series, so a repeated or empty URL is refused by New, not a panic in
// the registry or a backend that can never answer.
func TestRepeatedBackendIsAnError(t *testing.T) {
	for _, backends := range [][]string{{"http://a", "http://a"}, {"http://a", ""}} {
		if _, err := New(Config{Backends: backends}); err == nil {
			t.Errorf("New(%q) = nil error, want one", backends)
		}
	}
}

// TestMalformedBackendIsAnError: a backend no request can be built on —
// no scheme, another scheme, no host, a query or fragment that a
// request path would land in, or a trailing '/' that would double the
// path's — is refused by New, not accepted and then answered 503 (or
// the replica's redirect) on every request.
func TestMalformedBackendIsAnError(t *testing.T) {
	for _, backend := range []string{"10.0.0.7:8081", "ftp://10.0.0.7:8081", "http://", "http:///path", "http//a", "http://a?b=1", "http://a/#top", "http://a/?", "http://h/", "http://h/a%20b/"} {
		if _, err := New(Config{Backends: []string{"http://good", backend}}); err == nil {
			t.Errorf("New with backend %q = nil error, want one", backend)
		}
	}
	if _, err := New(Config{Backends: []string{"http://h:8081/"}}); err == nil || !strings.Contains(err.Error(), `as "http://h:8081"`) {
		t.Errorf("New with a trailing '/': %v, want an error naming the base without it", err)
	}
}

// TestTargetIsTheParsedConcatenation: the URL an attempt is sent to is
// built from the backend's base, parsed once, and the client's request
// URL. It must be what http.NewRequest makes of the base and the
// request URI as one string: a base path prefix, escaped paths (in the
// base and in the request), an empty port, userinfo, an empty query and
// a '#' a server leaves in the query all come out as the parse has them
// (the fragment aside, which is never sent).
func TestTargetIsTheParsedConcatenation(t *testing.T) {
	bases := []string{
		"http://h:8081", "http://h:", "https://user:p%40ss@h",
		"http://h/prefix", "http://h/pre%2Ffix", "http://h/a%20b", "http://[::1]:80/x",
	}
	targets := []string{
		"/predict?model=m", "/predict/batch?model=m&n=1", "/predict?", "/models",
		"/models/a%2Fb/provenance", "/models/a%20b/provenance?x=%2F", "/models/a+b/provenance",
		"/models/a{b/provenance", "/models/a;b/provenance?q=1;2", "/models/%7E/provenance",
		"/features?model=m#frag", "/features?#frag", "/features?a=1#b#c", "/replica/status",
	}
	for _, base := range bases {
		g, err := New(Config{Backends: []string{base}})
		if err != nil {
			t.Fatalf("New(%q): %v", base, err)
		}
		for _, target := range targets {
			in, err := http.ReadRequest(bufio.NewReader(strings.NewReader("GET " + target + " HTTP/1.1\r\nHost: client\r\n\r\n")))
			if err != nil {
				t.Fatalf("reading %q: %v", target, err)
			}
			want, err := http.NewRequest(http.MethodGet, base+in.URL.RequestURI(), nil)
			if err != nil {
				t.Fatalf("%q + %q: %v", base, target, err)
			}
			want.URL.Fragment, want.URL.RawFragment = "", ""
			var got url.URL
			g.backends[0].target(&got, in.URL)
			if !reflect.DeepEqual(&got, want.URL) || got.RequestURI() != want.URL.RequestURI() {
				t.Errorf("%q + %q: built %#v (%s), the parse gives %#v (%s)",
					base, target, got, got.RequestURI(), *want.URL, want.URL.RequestURI())
			}
		}
	}
}

// TestForwardedRequestIsUnchanged pins what a replica receives for a
// proxied request: method, escaped path under the backend's base path,
// query, end-to-end headers (hop-by-hop ones dropped), Host and body.
func TestForwardedRequestIsUnchanged(t *testing.T) {
	type received struct {
		method, uri, host string
		header            http.Header
		body              string
	}
	got := make(chan received, 1)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Errorf("backend reading the body: %v", err)
		}
		got <- received{r.Method, r.RequestURI, r.Host, r.Header, string(body)}
		w.Write([]byte("{}"))
	}))
	defer backend.Close()
	host := strings.TrimPrefix(backend.URL, "http://")
	g, err := New(Config{Backends: []string{backend.URL + "/base%2Fpath"}})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()
	for i, c := range []struct {
		method, target, body string
		want                 received
	}{
		{http.MethodPost, "/predict?model=m&n=%2F1", `{"features":[1,2]}`, received{
			http.MethodPost, "/base%2Fpath/predict?model=m&n=%2F1", host, http.Header{"Content-Length": {"18"}}, `{"features":[1,2]}`}},
		{http.MethodPost, "/predict/batch?model=m", `{"rows":[[1]]}`, received{
			http.MethodPost, "/base%2Fpath/predict/batch?model=m", host, http.Header{"Content-Length": {"14"}}, `{"rows":[[1]]}`}},
		{http.MethodGet, "/models/a%2Fb/provenance?v=2", "", received{
			http.MethodGet, "/base%2Fpath/models/a%2Fb/provenance?v=2", host, http.Header{}, ""}},
		{http.MethodGet, "/features?model=m&key=k#frag", "", received{
			http.MethodGet, "/base%2Fpath/features?model=m&key=k", host, http.Header{}, ""}},
		{http.MethodGet, "/models?", "", received{
			http.MethodGet, "/base%2Fpath/models?", host, http.Header{}, ""}},
	} {
		req := httptest.NewRequest(c.method, "http://client.example"+c.target, strings.NewReader(c.body))
		for k, vs := range map[string][]string{
			"Content-Type":        {"application/json"},
			"X-Multi":             {"a", "b"},
			"User-Agent":          {"forward-test"},
			"Accept-Encoding":     {"identity"},
			"Connection":          {"keep-alive"},
			"Keep-Alive":          {"timeout=5"},
			"Te":                  {"trailers"},
			"Proxy-Authorization": {"Basic eA=="},
			"Upgrade":             {"h2c"},
		} {
			req.Header[k] = vs
		}
		// A header of this request's own: one left over from an earlier
		// request in a reused set would show up beside it.
		own := fmt.Sprintf("X-Case-%d", i)
		req.Header[own] = []string{c.target}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", c.method, c.target, rec.Code, rec.Body.String())
		}
		r := <-got
		want := c.want
		for k, vs := range map[string][]string{
			"Content-Type":    {"application/json"},
			"X-Multi":         {"a", "b"},
			"User-Agent":      {"forward-test"},
			"Accept-Encoding": {"identity"},
			own:               {c.target},
		} {
			want.header[k] = vs
		}
		if !reflect.DeepEqual(r, want) {
			t.Errorf("%s %s: the backend received\n%+v\nwant\n%+v", c.method, c.target, r, want)
		}
	}
}
