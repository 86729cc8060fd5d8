package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestIDGeneration(t *testing.T) {
	tr := New(Config{Service: "test"})
	seen := make(map[TraceID]bool)
	for i := 0; i < 1000; i++ {
		id := tr.newTraceID()
		if id.IsZero() {
			t.Fatal("generated the zero trace id")
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %s after %d draws", id, i)
		}
		seen[id] = true
	}
	if len(tr.newTraceID().String()) != 32 || len(tr.newSpanID().String()) != 16 {
		t.Fatal("hex renderings have the wrong width")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New(Config{})
	s := tr.StartRoot("root")
	hdr := s.Traceparent()
	if len(hdr) != headerLen || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q has the wrong shape", hdr)
	}
	traceID, spanID, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own header %q did not parse", hdr)
	}
	if traceID != s.TraceID() || spanID != s.SpanID() {
		t.Fatalf("round trip changed ids: %s/%s vs %s/%s", traceID, spanID, s.TraceID(), s.SpanID())
	}
	s.End()
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-short",
		"01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // unknown version
		"00-00000000000000000000000000000000-b7ad6b7169203331-01",       // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01",       // zero span id
		"00-0af7651916cd43dd8448eb211c80319X-b7ad6b7169203331-01",       // non-hex
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-zz",       // non-hex flags
		"00x0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01",       // bad separator
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-extra", // too long
		strings.Repeat("0", headerLen),                                  // right length, all-zero ids
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted a malformed header", h)
		}
	}
	if _, _, ok := ParseTraceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-00"); !ok {
		t.Error("unsampled flags byte rejected; any flags should be accepted")
	}
}

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	s := tr.StartRoot("root")
	if s != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// Every span method must be callable on nil.
	s.SetAttr("k", "v")
	s.SetStatus(500)
	s.SetOutcome("error")
	s.AddEvent("e")
	if c := s.StartChild("child"); c != nil {
		t.Fatal("nil span returned a live child")
	}
	if s.TraceIDString() != "" || s.Traceparent() != "" {
		t.Fatal("nil span renders ids")
	}
	s.End()
	ctx := ContextWith(context.Background(), nil)
	if FromContext(ctx) != nil {
		t.Fatal("nil span stored in context")
	}
	if CtxTraceID(ctx) != "" {
		t.Fatal("nil context carries a trace id")
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 0 || len(snap.Captured) != 0 {
		t.Fatal("nil tracer has spans")
	}
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	if got := tr.Middleware(h); fmt.Sprintf("%p", got) != fmt.Sprintf("%p", h) {
		t.Fatal("nil tracer's Middleware wrapped the handler")
	}
}

func TestSpanTreeAndRecentRing(t *testing.T) {
	tr := New(Config{Service: "unit", SlowThreshold: time.Hour})
	root := tr.StartRoot("root")
	child := root.StartChild("child")
	if child.TraceID() != root.TraceID() {
		t.Fatal("child is in a different trace")
	}
	child.SetAttr("backend", "b1")
	child.AddEvent("retry")
	child.SetStatus(200)
	child.End()
	root.SetStatus(200)
	root.End()

	snap := tr.Snapshot()
	if len(snap.Recent) != 2 {
		t.Fatalf("recent holds %d spans, want 2", len(snap.Recent))
	}
	if len(snap.Captured) != 0 {
		t.Fatal("a fast, healthy trace was captured")
	}
	c, r := snap.Recent[0], snap.Recent[1]
	if c.Name != "child" || r.Name != "root" {
		t.Fatalf("span order %q, %q; want child then root (end order)", c.Name, r.Name)
	}
	if c.ParentID != r.SpanID || r.ParentID != "" {
		t.Fatalf("parent links wrong: child.parent=%q root.span=%q root.parent=%q", c.ParentID, r.SpanID, r.ParentID)
	}
	if c.Service != "unit" || len(c.Attrs) != 1 || c.Attrs[0].Key != "backend" || len(c.Events) != 1 {
		t.Fatalf("child export lost detail: %+v", c)
	}
}

func TestRingOverwritesWithoutGrowth(t *testing.T) {
	tr := New(Config{RingSize: 8, CaptureSize: 4, SlowThreshold: time.Hour})
	for i := 0; i < 100; i++ {
		s := tr.StartRoot("s")
		s.SetStatus(200)
		s.End()
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 8 {
		t.Fatalf("recent holds %d spans, ring size is 8", len(snap.Recent))
	}
	if snap.SpansRecorded != 100 {
		t.Fatalf("recorded %d spans, want 100", snap.SpansRecorded)
	}
}

func TestTailSamplingCapturesSlowAndErrorTraces(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Hour})

	// 5xx root: captured with its children.
	root := tr.StartRoot("err")
	child := root.StartChild("attempt")
	child.SetOutcome("error")
	child.End()
	root.SetStatus(503)
	root.End()

	// Healthy root: not captured.
	okRoot := tr.StartRoot("ok")
	okRoot.SetStatus(200)
	okRoot.End()

	// Outcome-marked root (failover with a 200): captured.
	fo := tr.StartRoot("failover")
	fo.SetStatus(200)
	fo.SetOutcome("failover")
	fo.End()

	snap := tr.Snapshot()
	byTrace := make(map[string]int)
	for _, s := range snap.Captured {
		byTrace[s.TraceID]++
	}
	if len(byTrace) != 2 {
		t.Fatalf("captured %d traces (%v), want the 5xx and failover traces only", len(byTrace), byTrace)
	}
	if byTrace[snap.Captured[0].TraceID] == 0 {
		t.Fatal("empty capture")
	}
	// The 5xx trace must carry both its spans.
	found := false
	for id, n := range byTrace {
		if n == 2 {
			found = true
			for _, s := range snap.Captured {
				if s.TraceID == id && s.Name == "attempt" && s.Outcome != "error" {
					t.Fatal("captured child lost its outcome")
				}
			}
		}
	}
	if !found {
		t.Fatal("the 5xx trace was captured without its child span")
	}
}

func TestSlowThresholdCapture(t *testing.T) {
	tr := New(Config{SlowThreshold: time.Nanosecond})
	s := tr.StartRoot("slow")
	time.Sleep(time.Millisecond)
	s.SetStatus(200)
	s.End()
	if snap := tr.Snapshot(); len(snap.Captured) != 1 {
		t.Fatalf("slow trace not captured: %d captured spans", len(snap.Captured))
	}
}

func TestMiddlewareContinuesIncomingTrace(t *testing.T) {
	tr := New(Config{Service: "replica", SlowThreshold: time.Hour})
	var inner *Span
	h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner = FromContext(r.Context())
		w.WriteHeader(http.StatusOK)
	}))

	upstream := New(Config{Service: "gateway"})
	parent := upstream.StartRoot("gateway.request")
	req := httptest.NewRequest(http.MethodGet, "/models", nil)
	Inject(parent, req.Header)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if inner == nil {
		t.Fatal("no span in handler context")
	}
	snap := tr.Snapshot()
	if len(snap.Recent) != 1 {
		t.Fatalf("server recorded %d spans, want 1", len(snap.Recent))
	}
	got := snap.Recent[0]
	if got.TraceID != parent.TraceID().String() {
		t.Fatalf("server span trace %s, want the gateway's %s", got.TraceID, parent.TraceID())
	}
	if got.ParentID != parent.SpanID().String() {
		t.Fatalf("server span parent %s, want the gateway span %s", got.ParentID, parent.SpanID())
	}
	if got.Status != http.StatusOK || got.Name != "GET /models" {
		t.Fatalf("server span %+v", got)
	}
	parent.End()

	// Without a traceparent a fresh trace starts.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/models", nil))
	snap = tr.Snapshot()
	if last := snap.Recent[len(snap.Recent)-1]; last.ParentID != "" || last.TraceID == got.TraceID {
		t.Fatalf("fresh request did not start a fresh root: %+v", last)
	}
}

// A 5xx the handler did not classify is captured as "error"; one it did
// (the gateway's shed and unroutable 503s) keeps the handler's word.
func TestMiddlewareCapturesServerError(t *testing.T) {
	for _, tc := range []struct {
		code         int
		handlerSets  string
		wantCaptured string
	}{
		{http.StatusInternalServerError, "", "error"},
		{http.StatusServiceUnavailable, "shed", "shed"},
	} {
		tr := New(Config{Service: "replica", SlowThreshold: time.Hour})
		h := tr.Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if tc.handlerSets != "" {
				FromContext(r.Context()).SetOutcome(tc.handlerSets)
			}
			http.Error(w, "boom", tc.code)
		}))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/models", nil))
		snap := tr.Snapshot()
		if len(snap.Captured) != 1 || snap.Captured[0].Status != tc.code || snap.Captured[0].Outcome != tc.wantCaptured {
			t.Fatalf("%d response with handler outcome %q: want it captured as %q, got %+v",
				tc.code, tc.handlerSets, tc.wantCaptured, snap.Captured)
		}
	}
}

func TestDebugHandlerJSONAndFilter(t *testing.T) {
	tr := New(Config{Service: "unit", SlowThreshold: time.Hour})
	a := tr.StartRoot("a")
	a.End()
	b := tr.StartRoot("b")
	bID := b.TraceIDString()
	b.End()

	h := tr.DebugHandler(func() any { return map[string]string{"sage_x_seconds": "deadbeef"} })
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace", nil))
	var snap Snapshot
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("debug payload is not strict-decodable: %v", err)
	}
	if snap.Service != "unit" || len(snap.Recent) != 2 || snap.Exemplars == nil {
		t.Fatalf("debug payload wrong: %+v", snap)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?trace="+bID, nil))
	if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Recent) != 1 || snap.Recent[0].Name != "b" {
		t.Fatalf("?trace= filter returned %+v", snap.Recent)
	}
}

func TestEventfAndSpanEventf(t *testing.T) {
	var lines []string
	logf := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }

	Eventf(logf, "wal: event=log_poisoned log=%s", "a.wal")
	Eventf(nil, "discarded %d", 1) // must not panic
	if len(lines) != 1 || lines[0] != "wal: event=log_poisoned log=a.wal" {
		t.Fatalf("Eventf lines: %q", lines)
	}

	tr := New(Config{SlowThreshold: time.Hour})
	s := tr.StartRoot("root")
	ctx := ContextWith(context.Background(), s)
	SpanEventf(ctx, logf, "gateway: event=failover backend=%s", "b1")
	want := fmt.Sprintf("gateway: event=failover backend=b1 trace_id=%s span_id=%s",
		s.TraceID(), s.SpanID())
	if lines[1] != want {
		t.Fatalf("SpanEventf line:\n got %q\nwant %q", lines[1], want)
	}
	s.End()
	if snap := tr.Snapshot(); len(snap.Recent[0].Events) != 1 || snap.Recent[0].Events[0].Name != "failover" {
		t.Fatalf("event not recorded on span: %+v", snap.Recent[0].Events)
	}

	// No span in context: degrades to Eventf, no correlation suffix.
	SpanEventf(context.Background(), logf, "daemon: event=x")
	if lines[2] != "daemon: event=x" {
		t.Fatalf("span-less SpanEventf line: %q", lines[2])
	}
}

func TestEventToken(t *testing.T) {
	cases := map[string]string{
		"gateway: event=breaker backend=x": "breaker",
		"event=solo":                       "solo",
		"no token here":                    "",
	}
	for in, want := range cases {
		if got := eventToken(in); got != want {
			t.Errorf("eventToken(%q) = %q, want %q", in, got, want)
		}
	}
}
