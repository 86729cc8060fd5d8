package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one harness-side measurement at a layer boundary. Spans of
// one request (or one daemon life, or one experiment pass) share Req;
// Parent is the span that caused this one (0 for a root).
type span struct {
	ID     uint64
	Parent uint64
	Req    uint64
	Name   string
	Start  time.Duration // since the tracer's epoch
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: no wrapper is installed anywhere, so the untraced
// path is the program's own.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	// round is the span of the round in progress: the parent of spans
	// that start on a server without a propagated header (replica pushes
	// caused by a daemon tick).
	round atomic.Uint64

	mu     sync.Mutex
	spans  []span
	marked int // spans recorded when set-up ended
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// mark ends the set-up part of the trace: timed returns only the spans
// recorded after it. Nil-safe, since set-up also runs untraced.
func (t *tracer) mark() {
	if t != nil {
		t.mu.Lock()
		t.marked = len(t.spans)
		t.mu.Unlock()
	}
}

// all returns the recorded spans. Call only after every goroutine that
// records has finished (servers shut down).
func (t *tracer) all() []span { return t.spans }

// timed returns the spans of the timed rounds, under all's rule.
func (t *tracer) timed() []span { return t.spans[t.marked:] }

// The two headers that carry a trace across the HTTP hops. The gateway
// copies unknown headers to its upstream request, so they reach the
// replica without the program knowing about them.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

func headerID(h http.Header, key string) uint64 {
	v, _ := strconv.ParseUint(h.Get(key), 10, 64)
	return v
}

// tracedHandler records one span around h per request and re-stamps the
// span header so the next hop hangs under this one.
func tracedHandler(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s := span{ID: t.newID(), Parent: headerID(r.Header, hdrSpan), Req: headerID(r.Header, hdrReq), Name: name}
		if s.Parent == 0 {
			s.Parent = t.round.Load()
		}
		r.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
		s.Start = t.now()
		h.ServeHTTP(w, r)
		s.End = t.now()
		t.record(s)
	})
}

// tracedTransport records one span per upstream attempt, ending when
// the caller has finished with the response body (the gateway reads it
// fully before it forwards a byte).
type tracedTransport struct {
	t    *tracer
	name string
	next http.RoundTripper
}

func (tt tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := span{ID: tt.t.newID(), Parent: headerID(req.Header, hdrSpan), Req: headerID(req.Header, hdrReq), Name: tt.name}
	// The gateway builds a fresh request per attempt and does not look at
	// it again, so stamping its header here is safe.
	req.Header.Set(hdrSpan, strconv.FormatUint(s.ID, 10))
	s.Start = tt.t.now()
	resp, err := tt.next.RoundTrip(req)
	if err != nil {
		s.End = tt.t.now()
		s.Name += ".error"
		tt.t.record(s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	done bool
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.done {
		b.done = true
		b.s.End = b.t.now()
		b.t.record(b.s)
	}
	return err
}

// selfTimes returns, per span ID, the span's duration minus the part of
// it its child spans cover (children of one parent never overlap here:
// every traced layer handles one request on one goroutine).
func selfTimes(spans []span) map[uint64]time.Duration {
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceFileSpans bounds the written file: the statistics use every
// span, the file keeps the first ones (whole early rounds) so that a
// 400K-request run does not spend its time budget encoding JSON.
const traceFileSpans = 40000

type spanJSON struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent"`
	Req     uint64  `json:"req"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// writeTrace writes the spans to bench/out/<workload>.trace.json.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	out := struct {
		Workload string     `json:"workload"`
		Total    int        `json:"spans_total"`
		Spans    []spanJSON `json:"spans"`
	}{Workload: workload, Total: len(spans)}
	for _, s := range spans[:min(len(spans), traceFileSpans)] {
		out.Spans = append(out.Spans, spanJSON{
			ID: s.ID, Parent: s.Parent, Req: s.Req, Name: s.Name,
			StartUS: float64(s.Start) / 1e3, EndUS: float64(s.End) / 1e3,
		})
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".trace.json")
	return path, os.WriteFile(path, raw, 0o644)
}
