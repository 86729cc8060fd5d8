package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ml"
	"repro/internal/replica"
	"repro/internal/safety"
	"repro/internal/store"
	"repro/internal/taxi"
)

// lateTransport answers every request before it reads the request body,
// as the http.RoundTripper contract allows, and reads and closes the
// body from another goroutine once the test releases that request —
// after the gateway handler that sent it has returned. Each late read
// must see the bytes its own request sent.
type lateTransport struct {
	t  *testing.T
	wg sync.WaitGroup

	mu   sync.Mutex
	want map[string][]byte        // request id → the body it sent
	gate map[string]chan struct{} // closed when the late read may start
}

func (lt *lateTransport) expect(id string, body []byte) chan struct{} {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	gate := make(chan struct{})
	lt.want[id], lt.gate[id] = body, gate
	return gate
}

func (lt *lateTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := r.Header.Get("X-Late-Id")
	lt.mu.Lock()
	want, gate := lt.want[id], lt.gate[id]
	lt.mu.Unlock()
	if r.ContentLength != int64(len(want)) {
		lt.t.Errorf("request %s: ContentLength %d, body is %d bytes", id, r.ContentLength, len(want))
	}
	lt.wg.Add(1)
	go func() {
		defer lt.wg.Done()
		<-gate
		got, err := io.ReadAll(r.Body)
		r.Body.Close()
		if err != nil || !bytes.Equal(got, want) {
			lt.t.Errorf("request %s: late read got %d bytes (%v), sent %d: %.40q", id, len(got), err, len(want), got)
		}
	}()
	return &http.Response{
		StatusCode:    http.StatusOK,
		Body:          io.NopCloser(strings.NewReader("[]")),
		ContentLength: 2,
		Request:       r,
	}, nil
}

// TestHopBodyOutlivesHandler: a transport may read a request body after
// RoundTrip has returned, so the gateway's pooled request buffer must
// stay with that body until the transport closes it. Each request's
// body is read only after the client's next lag requests have gone
// through, while the other clients keep going: a buffer handed back
// when the handler returned would already hold a later body.
func TestHopBodyOutlivesHandler(t *testing.T) {
	lt := &lateTransport{t: t, want: map[string][]byte{}, gate: map[string]chan struct{}{}}
	g, err := New(Config{Backends: []string{"http://late-reader"}, Transport: lt})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()

	const clients, perClient, lag = 4, 100, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(c), 7))
			var queued []chan struct{}
			for i := 0; i < perClient; i++ {
				id := fmt.Sprintf("%d-%d", c, i)
				body := bytes.Repeat([]byte(id+","), 1+r.IntN(400))
				gate := lt.expect(id, body)
				req := httptest.NewRequest(http.MethodPost, "/predict/batch?model=m", bytes.NewReader(body))
				req.Header.Set("X-Late-Id", id)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("request %s: %d %s", id, rec.Code, rec.Body.String())
				}
				if queued = append(queued, gate); len(queued) > lag {
					close(queued[0])
					queued = queued[1:]
				}
			}
			for _, gate := range queued {
				close(gate)
			}
		}()
	}
	wg.Wait()
	lt.wg.Wait()
}

// lateRequestTransport reads each request's URL, Host and header again
// after RoundTrip has returned, and only then closes its body, as the
// http.RoundTripper contract allows. To the backend "fails" it answers
// with an error and still reads and closes later, so the request fails
// over to the other backend in the set's other slot. A request without
// a body is read late only when it failed: one that got a response is
// the caller's again once the response body is closed. Each late read
// must see what the request carried when RoundTrip was called.
type lateRequestTransport struct {
	t  *testing.T
	wg sync.WaitGroup

	mu   sync.Mutex
	gate map[string]chan struct{} // request id → closed when the late read may start
}

// requestView is what a transport reads of a request besides its body.
type requestView struct {
	method, url, host string
	header            http.Header
}

func viewOf(r *http.Request) requestView {
	return requestView{r.Method, r.URL.String(), r.Host, r.Header.Clone()}
}

func (lt *lateRequestTransport) expect(id string) chan struct{} {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	gate := make(chan struct{})
	lt.gate[id] = gate
	return gate
}

func (lt *lateRequestTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	lt.mu.Lock()
	gate := lt.gate[r.Header.Get("X-Late-Id")]
	lt.mu.Unlock()
	sent := viewOf(r)
	fails := r.URL.Host == "fails"
	if fails || r.Body != nil {
		lt.wg.Add(1)
		go func() {
			defer lt.wg.Done()
			<-gate
			if late := viewOf(r); !reflect.DeepEqual(late, sent) {
				lt.t.Errorf("a late read of the request sees\n%+v\nRoundTrip was handed\n%+v", late, sent)
			}
			if r.Body != nil {
				r.Body.Close()
			}
		}()
	}
	if fails {
		return nil, errors.New("refused")
	}
	return &http.Response{
		StatusCode:    http.StatusOK,
		Body:          io.NopCloser(strings.NewReader("[]")),
		ContentLength: 2,
		Request:       r,
	}, nil
}

// TestHopRequestOutlivesHandler: a transport may go on reading a
// request after RoundTrip has returned — with a response or with an
// error — until it closes the body, so each attempt's outgoing URL and
// header, which live in the pooled set, must stay as sent until then,
// whatever later requests the set is handed out for. Each request's
// late reads run only after the client's next lag requests have gone
// through; about half the requests fail over from "fails", so the
// failed attempt's late read also runs beside the second attempt's.
// Every other request is a GET with no body, whose failed attempt holds
// no reference: its set must not go back to the pool.
func TestHopRequestOutlivesHandler(t *testing.T) {
	lt := &lateRequestTransport{t: t, gate: map[string]chan struct{}{}}
	g, err := New(Config{
		Backends:  []string{"http://late", "http://fails"},
		Transport: lt,
		Breaker:   BreakerConfig{FailThreshold: 1 << 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()

	const clients, perClient, lag = 4, 100, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var queued []chan struct{}
			for i := 0; i < perClient; i++ {
				id := fmt.Sprintf("%d-%d", c, i)
				gate := lt.expect(id)
				req := httptest.NewRequest(http.MethodPost, "/predict/batch?model=m&id="+id, strings.NewReader(id))
				if i%2 == 1 {
					req = httptest.NewRequest(http.MethodGet, "/features?model=m&id="+id, nil)
				}
				req.Header.Set("X-Late-Id", id)
				req.Header[fmt.Sprintf("X-Client-%d", c)] = []string{id, strings.Repeat("v", i)}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("request %s: %d %s", id, rec.Code, rec.Body.String())
				}
				if queued = append(queued, gate); len(queued) > lag {
					close(queued[0])
					queued = queued[1:]
				}
			}
			for _, gate := range queued {
				close(gate)
			}
		}()
	}
	wg.Wait()
	lt.wg.Wait()
	if st := g.Status(); st.Retries == 0 || st.Proxied != clients*perClient {
		t.Errorf("%d failovers and %d proxied requests, want some and %d", st.Retries, st.Proxied, clients*perClient)
	}
}

// replayTransport reads part of each request body, closes it, and sends
// what GetBody replays back as the response, as net/http does when it
// resends a body on a fresh connection. It keeps the last GetBody.
type replayTransport struct {
	t       *testing.T
	getBody func() (io.ReadCloser, error)
}

func (rt *replayTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if _, err := r.Body.Read(make([]byte, 5)); err != nil {
		return nil, err
	}
	r.Body.Close()
	if _, err := r.Body.Read(make([]byte, 1)); !errors.Is(err, http.ErrBodyReadAfterClose) {
		rt.t.Errorf("a read after Close: %v, want %v", err, http.ErrBodyReadAfterClose)
	}
	body, err := r.GetBody()
	if err != nil {
		return nil, err
	}
	replayed, err := io.ReadAll(body)
	body.Close()
	if err != nil {
		return nil, err
	}
	rt.getBody = r.GetBody
	return &http.Response{
		StatusCode:    http.StatusOK,
		Body:          io.NopCloser(bytes.NewReader(replayed)),
		ContentLength: int64(len(replayed)),
		Request:       r,
	}, nil
}

// TestHopBodyReplay: GetBody replays the request's own bytes, in full,
// however much of the first body was read; once the request is over, a
// replay is refused rather than served from a buffer a later request
// may own.
func TestHopBodyReplay(t *testing.T) {
	rt := &replayTransport{t: t}
	g, err := New(Config{Backends: []string{"http://replayer"}, Transport: rt})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()
	for _, body := range []string{batchBody, `{"rows":[[3,4],[5,6],[7,8]]}`} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict/batch?model=m", strings.NewReader(body)))
		if rec.Code != http.StatusOK || rec.Body.String() != body {
			t.Errorf("replayed body: %d %q, sent %q", rec.Code, rec.Body.String(), body)
		}
		if late, err := rt.getBody(); !errors.Is(err, errHopReleased) {
			t.Errorf("a replay after the request finished: %v, %v; want %v", late, err, errHopReleased)
		}
	}
}

// newHop is a set as getHop hands it out, without going through the
// pool: one reference, the caller's.
func newHop() *hopBuffers {
	h := new(hopBuffers)
	h.state.Store(1<<32 | 1)
	return h
}

// TestHopBuffersRelease: a set within the bound goes back to the pool
// when its last user is done, and not before; one that an oversize
// request or response has grown is dropped, so hopPool never pins such
// buffers per P.
func TestHopBuffersRelease(t *testing.T) {
	typical := newHop()
	typical.req.Grow(256 << 10)
	typical.resp.Grow(8 << 10)
	if !typical.unref() {
		t.Error("a 256-row batch's set was dropped; the warm path depends on pooling it")
	}

	held := newHop()
	body, err := held.body(1)
	if err != nil {
		t.Fatal(err)
	}
	if held.unref() {
		t.Error("the set went back to the pool while a request body still reads it")
	}
	body.Close()
	body.Close()
	if refs := uint32(held.state.Load()); refs != 0 {
		t.Errorf("%d reference(s) left after the last user closed its body twice", refs)
	}

	for name, grow := range map[string]func(*hopBuffers){
		"oversize request":  func(h *hopBuffers) { h.req.Grow(maxPooledHopBytes + 1) },
		"oversize response": func(h *hopBuffers) { h.resp.Grow(maxPooledHopBytes + 1) },
	} {
		h := newHop()
		grow(h)
		if h.unref() {
			t.Errorf("%s: set went back to the pool", name)
		}
	}
}

// blockedWriter is an upstream connection that takes a write and holds
// it until release is closed, then reports what the written bytes read
// at that moment.
type blockedWriter struct {
	started chan struct{}
	release chan struct{}
	saw     []byte
}

func (w *blockedWriter) Write(p []byte) (int, error) {
	close(w.started)
	<-w.release
	w.saw = bytes.Clone(p)
	return len(p), nil
}

// TestHopBodyWriteToOutlivesClose: a transport sending a chunked body
// hands it to WriteTo and may close the body from another goroutine
// while the write is blocked on the upstream (a cancelled attempt).
// Close returns without waiting; the bytes being written stay this
// request's until the write returns, even once the handler's reference
// has gone and later requests take sets from the pool; and the set goes
// back to hopPool only after both have finished.
func TestHopBodyWriteToOutlivesClose(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), (maxSizedBody>>4)+1)
	set := getHop()
	set.req.Write(want)
	body, err := set.body(uint32(set.state.Load() >> 32))
	if err != nil {
		t.Fatal(err)
	}
	w := &blockedWriter{started: make(chan struct{}), release: make(chan struct{})}
	wrote := make(chan error)
	go func() {
		n, err := body.(io.WriterTo).WriteTo(w)
		if err == nil && n != int64(len(want)) {
			err = fmt.Errorf("wrote %d of %d bytes", n, len(want))
		}
		wrote <- err
	}()
	<-w.started

	closed := make(chan struct{})
	go func() {
		body.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close waited on a write blocked upstream")
	}
	if set.unref() {
		t.Error("the handler's unref returned the set to the pool while WriteTo still writes from it")
	}
	for range 8 { // later requests, which would be handed the set if it were pooled
		other := getHop()
		other.req.WriteString("a later request's body")
		other.unref()
	}
	if refs := uint32(set.state.Load()); refs != 1 {
		t.Errorf("%d references during the write, want WriteTo's own", refs)
	}

	close(w.release)
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.saw, want) {
		t.Errorf("the write carried %d bytes that are not the request's: %.40q", len(w.saw), w.saw)
	}
	if refs := uint32(set.state.Load()); refs != 0 {
		t.Errorf("%d references after the write and Close finished, want none", refs)
	}
	if _, err := body.(io.WriterTo).WriteTo(w); !errors.Is(err, http.ErrBodyReadAfterClose) {
		t.Errorf("WriteTo after Close: %v, want %v", err, http.ErrBodyReadAfterClose)
	}
}

// inProcess serves upstream requests with a handler in the calling
// goroutine: no sockets, so a request's allocations are the gateway's,
// the replica's and this shim's.
type inProcess struct{ h http.Handler }

func (p inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, r)
	if r.Body != nil {
		r.Body.Close()
	}
	return rec.Result(), nil
}

// perRequest warms serve and returns the heap bytes and allocations
// one call of it costs. It measures on one P, as testing.AllocsPerRun
// measures the count: on more, a call that moves P between getHop and
// unref can miss hopPool's per-P cache and re-grow a set inside the
// window. The P count is set before the warm-up, since a change of it
// empties every sync.Pool.
func perRequest(serve func()) (perReq, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// A collection inside the window would empty hopPool and count the
	// sets re-grown after it; one just before leaves the window, well
	// under a megabyte, none to run.
	runtime.GC()
	for i := 0; i < 5; i++ {
		serve() // warm: the pools, the encode buffers
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, testing.AllocsPerRun(runs, serve)
}

// wideFleet is one replica that serves "wide", a taxi-width linear
// model, beside the fleet's "m".
func wideFleet(t *testing.T) *fleet {
	f := newFleet(t, 1, 1)
	spec, err := store.Serialize(&ml.LinearModel{Weights: make([]float64, taxi.FeatureDim)})
	if err != nil {
		t.Fatal(err)
	}
	f.src.Publish(store.Bundle{Name: "wide", Model: spec})
	if err := replica.NewPublisher(f.src, f.urls).Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	return f
}

// wideBody is the JSON of key over n random taxi-width rows: a
// /predict/batch body for "rows", and a /predict one of rows[0] for
// "features".
func wideBody(t *testing.T, key string, n int) []byte {
	r := rand.New(rand.NewPCG(3, 4))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, taxi.FeatureDim)
		for j := range rows[i] {
			rows[i][j] = r.Float64()
		}
	}
	var v any = rows
	if key == "features" {
		v = rows[0]
	}
	body, err := json.Marshal(map[string]any{key: v})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// clientRequest serves one request to h with the headers net/http's
// client sends, as the benchmark's does, and fails t unless it is
// answered 200. header is shared across requests, so the call itself
// allocates only httptest's request and recorder.
func clientRequest(t *testing.T, h http.Handler, method, path string, body []byte) func() {
	header := http.Header{"User-Agent": {"Go-http-client/1.1"}, "Accept-Encoding": {"gzip"}}
	if body != nil {
		header["Content-Type"] = []string{"application/json"}
	}
	return func() {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header = header
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s through the gateway: %d %.200s", method, path, rec.Code, rec.Body.String())
		}
	}
}

// TestGatewayProxyBytesPerRequest pins what a warm request costs to
// proxy, in bytes and allocations per request through the gateway and
// the replica behind it (and httptest on both sides), for requests that
// carry the headers net/http's client sends. A 256-row taxi-width batch
// stays under a quarter of its body: the gateway's request and response
// buffers come from hopPool, so a per-request copy of the body (the
// body alone is one whole body size) fails here. A single-value feature
// join reads ≈ 8.3 kB in 41 allocations, a taxi-width single predict
// ≈ 10.8 kB in 54 and the batch ≈ 9.4 kB in 47. An attempt's outgoing
// URL and header come from its slot in the set: re-parsing the URL per
// attempt reads ≈ 8.5 kB in 44, ≈ 11.0 kB in 57 and 50, a fresh header
// map per attempt ≈ 8.7 kB in 43, ≈ 11.2 kB in 56 and 49, past every
// budget. The transport here is in-process, so no copy buffer shows;
// TestGatewayLoopbackBytesPerRequest pins the socket write.
func TestGatewayProxyBytesPerRequest(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	f := wideFleet(t)
	g := f.gw(t, func(c *Config) { c.Transport = inProcess{f.reps[0].Handler()} })
	h := g.Handler()
	for _, c := range []struct {
		name, method, path string
		body               []byte
		bytes, allocs      float64
	}{
		{"256-row batch", http.MethodPost, "/predict/batch?model=wide", wideBody(t, "rows", 256), 9600, 48},
		{"feature join", http.MethodGet, "/features?model=m&key=hour_speed&index=3", nil, 8450, 42},
		{"single predict", http.MethodPost, "/predict?model=wide", wideBody(t, "features", 1), 11000, 55},
	} {
		perReq, allocs := perRequest(clientRequest(t, h, c.method, c.path, c.body))
		t.Logf("%s: %.0f bytes in %.0f allocations per request for a %d-byte body (budgets %.0f, %.0f)",
			c.name, perReq, allocs, len(c.body), c.bytes, c.allocs)
		if perReq > c.bytes || allocs > c.allocs {
			t.Errorf("%s: %.0f bytes in %.0f allocations per proxied request, budgets %.0f and %.0f: has a hop buffer, an attempt's URL or header slot, the /predict request or the shared header values stopped being reused?",
				c.name, perReq, allocs, c.bytes, c.allocs)
		}
	}
}

// TestGatewayLoopbackBytesPerRequest pins what a warm request costs to
// proxy to a replica over a real loopback http.Transport, as the
// benchmark's fleet does, in heap bytes per request through the
// gateway, the transport and the replica's server. A body past
// maxSizedBody goes upstream chunked, as one chunk from the pooled set
// (≈ 13.0 kB for a 256-row batch, ≈ 12.5 kB one byte past the bound);
// sent by its length it went through the connection's ReadFrom, whose
// fresh 32 KiB copy buffer per request read 46–49 kB and fails here. A
// body at or under the bound keeps its Content-Length, and its copy
// buffer is body-sized: one of exactly maxSizedBody bytes still pays
// it (≈ 45.2 kB), a taxi-width single predict (≈ 15.9 kB) hardly
// notices. The replica checks each request's framing, so the size
// selection is pinned from both sides. The batch and single-predict
// budgets also pin the attempt context: a context.WithTimeout per
// attempt (≈ 13.4 and ≈ 16.4 kB) fails them.
func TestGatewayLoopbackBytesPerRequest(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	f := wideFleet(t)
	var declared atomic.Int64 // the ContentLength the replica last read
	rh := f.reps[0].Handler()
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		declared.Store(r.ContentLength)
		rh.ServeHTTP(w, r)
	}))
	defer rep.Close()
	upstream := http.DefaultTransport.(*http.Transport).Clone()
	defer upstream.CloseIdleConnections()
	g, err := New(Config{Backends: []string{rep.URL}, Transport: upstream})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()

	// padded is a 32-row batch (≈ 29.6 kB) padded with JSON whitespace
	// to exactly n bytes.
	padded := func(n int) []byte {
		body := wideBody(t, "rows", 32)
		if len(body) > n {
			t.Fatalf("a 32-row batch is %d bytes, past %d", len(body), n)
		}
		return append(body[:len(body)-1], append(bytes.Repeat([]byte(" "), n-len(body)), '}')...)
	}
	for _, c := range []struct {
		name    string
		path    string
		body    []byte
		chunked bool
		bytes   float64
	}{
		{"256-row batch", "/predict/batch?model=wide", wideBody(t, "rows", 256), true, 13300},
		{"batch one byte past the bound", "/predict/batch?model=wide", padded(maxSizedBody + 1), true, 16000},
		{"batch at the bound", "/predict/batch?model=wide", padded(maxSizedBody), false, 16000 + maxSizedBody},
		{"single predict", "/predict?model=wide", wideBody(t, "features", 1), false, 16200},
	} {
		perReq, allocs := perRequest(clientRequest(t, h, http.MethodPost, c.path, c.body))
		t.Logf("%s: %.0f bytes in %.0f allocations per request for a %d-byte body (budget %.0f bytes)",
			c.name, perReq, allocs, len(c.body), c.bytes)
		if got := declared.Load(); c.chunked != (got == -1) {
			t.Errorf("%s: the replica read a declared length of %d for a %d-byte body; a body past %d bytes goes chunked (-1), any other by its length",
				c.name, got, len(c.body), maxSizedBody)
		}
		if perReq > c.bytes {
			t.Errorf("%s: %.0f bytes per proxied request, budget %.0f: is the transport copying the body through a buffer of its own?",
				c.name, perReq, c.bytes)
		}
	}
}

// TestAttemptSlotReuse: one set's first slot carries timed-out,
// client-cancelled and successful attempts back to back through a real
// loopback transport, as a pooled set carries one request after
// another. An earlier attempt can leave work running into a later one:
// its timer's callback, its parent's, and the stop that net/http's
// readLoop calls on the context it derived once it has read the
// response. Some attempts end at their deadline with the client giving
// up at the same moment, so those callbacks race the next attempt's
// start. None of them may cancel or unregister a later attempt: a
// successful attempt must succeed, and a stalled one must end at its
// own deadline, not sooner, and not hang, which is what an attempt
// whose derived context was unregistered would do.
func TestAttemptSlotReuse(t *testing.T) {
	const timeout = 20 * time.Millisecond
	release := make(chan struct{})
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d, err := time.ParseDuration(r.URL.Query().Get("delay")); err == nil {
			time.Sleep(d)
		}
		if r.URL.Query().Has("stall") {
			select {
			case <-r.Context().Done():
			case <-release:
			case <-time.After(5 * time.Second):
			}
			return
		}
		w.Write([]byte("ok"))
	}))
	defer rep.Close()
	defer close(release)
	upstream := http.DefaultTransport.(*http.Transport).Clone()
	defer upstream.CloseIdleConnections()
	g, err := New(Config{Backends: []string{rep.URL}, Transport: upstream, AttemptTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	set := newHop()
	defer set.unref()

	rnd := rand.New(rand.NewPCG(11, 12))
	for i := range 60 {
		parent, cancel := context.WithCancel(context.Background())
		path := "/models"
		mode := []string{"ok", "stall", "client", "edge"}[rnd.IntN(4)]
		switch mode {
		case "stall":
			path += "?stall"
		case "client": // the client gives up mid-attempt
			path += "?stall"
			time.AfterFunc(time.Duration(rnd.IntN(int(timeout/2))), cancel)
		case "edge": // the answer, the deadline and the client's leaving all at once
			path += "?delay=" + (timeout - time.Millisecond + time.Duration(rnd.IntN(2000))*time.Microsecond).String()
			time.AfterFunc(timeout, cancel)
		}
		r := httptest.NewRequest(http.MethodGet, path, nil).WithContext(parent)
		start := time.Now()
		res, err := g.forward(r, g.backends[0], &set.out[0], set, nil)
		took := time.Since(start)
		switch mode {
		case "ok":
			if err != nil || res.status != http.StatusOK || string(res.body) != "ok" {
				t.Fatalf("attempt %d (%s): %v, %d %q; an earlier attempt cancelled it", i, mode, err, res.status, res.body)
			}
		case "stall":
			if !errors.Is(err, context.DeadlineExceeded) || took < timeout || took > time.Second {
				t.Fatalf("attempt %d (%s): %v after %v; want its own deadline, %v", i, mode, err, took, timeout)
			}
		case "client":
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("attempt %d (%s): %v after %v; want the client's cancellation", i, mode, err, took)
			}
		}
		if err := set.out[0].ctx.Err(); err != nil && mode == "ok" {
			t.Fatalf("attempt %d (%s): its context reads %v after a success", i, mode, err)
		}
		cancel()
	}
}

// TestAttemptContextIgnoresAnEarlierAttempt delivers, by hand, what an
// earlier attempt on the same slot can leave behind for a later one:
// its timer's callback, its parent's callback after the parent is done,
// and the stop of a context derived from it. The later attempt stays
// live, and its own parent still cancels it and what was derived from
// it. A cancelled attempt's context is reset for the next attempt, but
// not before a registration that came after its cancellation has run. A
// derived context registers through AfterFunc, so the context package
// starts no goroutine for it.
func TestAttemptContextIgnoresAnEarlierAttempt(t *testing.T) {
	var a attemptContext
	first, cancelFirst := context.WithCancel(context.Background())
	a.begin(first, time.Hour)
	_, stopEarlier := context.WithCancel(&a)
	ran := false
	stopFunc := a.AfterFunc(func() { ran = true })
	a.end()
	cancelFirst()

	second, cancelSecond := context.WithCancel(context.Background())
	a.begin(second, time.Hour)
	derived, stopDerived := context.WithCancel(&a)
	defer stopDerived()
	a.mu.Lock()
	registered := len(a.funcs)
	a.mu.Unlock()
	if registered != 1 {
		t.Fatalf("deriving a context made %d registrations with the attempt's AfterFunc, want 1: without it the context package watches the attempt from a goroutine per derived context", registered)
	}
	a.cancelIfDue() // the earlier attempt's timer, or its parent's callback
	if stopFunc() {
		t.Error("an earlier attempt's stop unregistered a registration of the later one")
	}
	stopEarlier()
	if err := a.Err(); err != nil {
		t.Fatalf("the later attempt was cancelled by what the earlier one left: %v", err)
	}
	if d, ok := a.Deadline(); !ok || time.Until(d) < 59*time.Minute {
		t.Errorf("deadline %v, %v; want the later attempt's", d, ok)
	}
	cancelSecond()
	select {
	case <-derived.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("the later attempt's parent did not cancel what was derived from it")
	}
	if !errors.Is(a.Err(), context.Canceled) || !errors.Is(derived.Err(), context.Canceled) {
		t.Errorf("after the parent's cancellation: %v and %v, want %v", a.Err(), derived.Err(), context.Canceled)
	}
	if ran {
		t.Error("a registration dropped when its attempt ended ran on a later cancellation")
	}
	// A context derived as the attempt is cancelled can register after
	// the fact; its cancellation then runs on a goroutine of its own,
	// reads the attempt's error, and must find it set however late it
	// runs.
	sawErr := make(chan error, 1)
	a.AfterFunc(func() {
		time.Sleep(10 * time.Millisecond)
		sawErr <- a.Err()
	})
	a.end()

	third := context.Background()
	a.begin(third, time.Hour)
	defer a.end()
	if err := <-sawErr; err == nil {
		t.Error("a registration made on a cancelled attempt ran after the next attempt began, and read no error")
	}
	select {
	case <-a.Done():
		t.Fatal("a cancelled attempt's Done channel serves the next attempt")
	default:
	}
	if err := a.Err(); err != nil {
		t.Fatalf("the next attempt starts cancelled: %v", err)
	}
}
