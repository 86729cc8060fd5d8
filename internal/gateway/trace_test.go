package gateway

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/faulty"
	"repro/internal/store"
	"repro/internal/trace"
)

// scrapeTraces fetches the gateway's own /debug/trace (served locally
// when tracing is on, like /metrics) and strict-decodes the export.
func scrapeTraces(t *testing.T, base string) trace.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/trace: HTTP %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	var snap trace.Snapshot
	if err := dec.Decode(&snap); err != nil {
		t.Fatalf("gateway /debug/trace does not strict-decode: %v", err)
	}
	return snap
}

// capturedByOutcome returns the root spans of captured traces whose
// outcome matches, plus a trace-id → spans index over the capture ring.
func capturedByOutcome(snap trace.Snapshot, outcome string) (roots []trace.SpanJSON, byTrace map[string][]trace.SpanJSON) {
	byTrace = make(map[string][]trace.SpanJSON)
	for _, sp := range snap.Captured {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	for _, sp := range snap.Captured {
		if sp.ParentID == "" && sp.Outcome == outcome {
			roots = append(roots, sp)
		}
	}
	return roots, byTrace
}

// TestGatewayTraceCapturesFailover is the chaos half of the tracing
// acceptance: with one replica resetting connections, a request that
// fails over must surface as ONE captured trace — the gateway root span
// (outcome=failover despite the 200) with two gateway.attempt children
// under it, the first marked error, the second clean. That tree is the
// debugging artifact the PR promises: "which backend failed, and where
// the retry went" without grepping logs.
func TestGatewayTraceCapturesFailover(t *testing.T) {
	f := newFleet(t, 2, 1)
	tracer := trace.New(trace.Config{Service: "gateway"})
	g := f.gw(t, func(c *Config) { c.Tracer = tracer })
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	f.injs[0].Set(faulty.Rule{Mode: faulty.Reset})

	// Round-robin tie-breaking alternates the first-choice backend, so
	// within a few sequential requests one lands on the resetting
	// replica first and fails over (well before its breaker opens at 3).
	client := &http.Client{Timeout: 5 * time.Second}
	var roots []trace.SpanJSON
	var byTrace map[string][]trace.SpanJSON
	for i := 0; i < 8; i++ {
		code, body, err := doReq(t, client, http.MethodGet, gsrv.URL+"/models", "")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d %s — failover must hide a single replica reset", i, code, body)
		}
		roots, byTrace = capturedByOutcome(scrapeTraces(t, gsrv.URL), "failover")
		if len(roots) > 0 {
			break
		}
	}
	if len(roots) == 0 {
		t.Fatal("no captured trace with outcome=failover after 8 requests against a resetting replica")
	}

	root := roots[0]
	if root.Name != "GET /models" || root.Service != "gateway" {
		t.Fatalf("failover root span is %q [%s], want \"GET /models\" [gateway]", root.Name, root.Service)
	}
	if root.Status != http.StatusOK {
		t.Fatalf("failover root status %d: the client saw a 200, the trace must agree", root.Status)
	}
	var failed, clean int
	for _, sp := range byTrace[root.TraceID] {
		if sp.ParentID != root.SpanID {
			continue
		}
		if sp.Name != "gateway.attempt" {
			t.Fatalf("unexpected child span %q under the failover root", sp.Name)
		}
		if sp.Outcome == "error" {
			failed++
		} else {
			clean++
		}
	}
	if failed != 1 || clean != 1 {
		t.Fatalf("failover trace has %d failed / %d clean attempt spans, want exactly 1 / 1:\n%+v",
			failed, clean, byTrace[root.TraceID])
	}
}

// TestGatewayTraceCapturesShed: a request refused by admission control
// never reaches a backend, but it still must leave a captured trace —
// root span with status 503, outcome=shed, and no attempt children —
// so shed storms are attributable per class after the fact.
func TestGatewayTraceCapturesShed(t *testing.T) {
	f := newFleet(t, 1, 1)
	tracer := trace.New(trace.Config{Service: "gateway"})
	g := f.gw(t, func(c *Config) {
		c.Tracer = tracer
		c.Limits = Limits{Read: 1, Predict: 1, Batch: 1}
	})
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	// Pin the one batch slot directly (white-box: the test lives in the
	// package) — exactly the state a hung in-flight batch request leaves
	// behind, without racing a real request through the injector.
	if !g.adm.admit(store.ClassBatch) {
		t.Fatal("admitting into an idle gateway failed")
	}
	defer g.adm.release(store.ClassBatch)

	client := &http.Client{Timeout: 5 * time.Second}
	code, body, err := doReq(t, client, http.MethodPost, gsrv.URL+"/predict/batch?model=m", batchBody)
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("batch request with the slot pinned: HTTP %d %s, want a 503 shed", code, body)
	}

	roots, byTrace := capturedByOutcome(scrapeTraces(t, gsrv.URL), "shed")
	if len(roots) == 0 {
		t.Fatal("shed 503 left no captured trace with outcome=shed")
	}
	root := roots[0]
	if root.Status != http.StatusServiceUnavailable {
		t.Fatalf("shed root status %d, want 503", root.Status)
	}
	for _, sp := range byTrace[root.TraceID] {
		if sp.ParentID == root.SpanID {
			t.Fatalf("shed trace has child span %q: a refused request must never reach a backend", sp.Name)
		}
	}
}
