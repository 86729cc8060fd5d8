package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faulty"
	"repro/internal/ml"
	"repro/internal/store"
)

// pushAudit sits directly in front of a replica's handler and records
// the replica's TRUE push replies — before any injected network fault
// mangles them on the way back to the publisher. It is the oracle for
// the replication protocol's safety claims under faults: every version
// is applied exactly once, and the acked watermark never regresses.
type pushAudit struct {
	mu      sync.Mutex
	applied map[string]int // "name@vN" → deliveries with Applied=true
	lastWM  map[string]int // name → last acked watermark
	regress []string
	acks    int
}

func (a *pushAudit) middleware(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/push" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code == http.StatusOK {
			var st PushStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err == nil {
				a.mu.Lock()
				a.acks++
				if st.Applied {
					a.applied[fmt.Sprintf("%s@v%d", st.Name, st.Version)]++
				}
				if st.Watermark < a.lastWM[st.Name] {
					a.regress = append(a.regress, fmt.Sprintf("%s: %d after %d", st.Name, st.Watermark, a.lastWM[st.Name]))
				} else {
					a.lastWM[st.Name] = st.Watermark
				}
				a.mu.Unlock()
			}
		}
		for k, vs := range rec.Header() {
			w.Header()[k] = vs
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

func newPushAudit() *pushAudit {
	return &pushAudit{applied: map[string]int{}, lastWM: map[string]int{}}
}

// TestPublisherConvergesThroughFaults drives the publisher's push path
// through an injected-fault "network" and pins the protocol's safety
// and liveness claims:
//
//   - errors before the replica (500s) are retried until delivery;
//   - an applied push whose ACK is lost in flight (truncated reply —
//     the classic ambiguous outcome) is settled by the next reconcile's
//     status read, which reports it applied: it is neither re-delivered
//     nor ever applied twice;
//   - the acked watermark never regresses;
//   - the replica ends at the source store's frontier.
func TestPublisherConvergesThroughFaults(t *testing.T) {
	rep := NewServer()
	audit := newPushAudit()
	inj := faulty.New(7)
	// Stack order matters: the injector wraps the audited replica, so
	// Error faults drop deliveries before the replica sees them, while
	// Partial faults let the replica apply the push and then corrupt the
	// ack on the wire — exactly the two ambiguous-failure shapes.
	srv := httptest.NewServer(inj.Handler(audit.middleware(rep.Handler())))
	defer srv.Close()
	inj.Set(
		faulty.Rule{Path: "/push", Mode: faulty.Error, First: 2},
		faulty.Rule{Path: "/push", Mode: faulty.Partial, Every: 4},
	)

	src := store.New()
	spec, err := store.Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	if err != nil {
		t.Fatal(err)
	}
	pub := NewPublisher(src, []string{srv.URL})
	const versions = 6
	for v := 1; v <= versions; v++ {
		src.Publish(store.Bundle{Name: "m", Model: spec, Provenance: store.Provenance{Pipeline: "m", Quality: float64(v)}})
		if err := retried(7, syncing(pub)); err != nil {
			t.Fatalf("deliver v%d through faults: %v", v, err)
		}
	}

	if got := rep.Store().VersionCount("m"); got != versions {
		t.Fatalf("replica converged to watermark %d, want %d", got, versions)
	}
	if inj.Fired() == 0 {
		t.Fatal("no fault ever fired — the test exercised nothing")
	}
	audit.mu.Lock()
	defer audit.mu.Unlock()
	for v := 1; v <= versions; v++ {
		key := fmt.Sprintf("m@v%d", v)
		if audit.applied[key] != 1 {
			t.Errorf("%s applied %d times, want exactly 1", key, audit.applied[key])
		}
	}
	if len(audit.regress) > 0 {
		t.Errorf("acked watermark regressed: %v", audit.regress)
	}
	if audit.acks != versions {
		t.Errorf("%d acks for %d versions — a retry reconciles, so a version whose ack was lost is not re-delivered", audit.acks, versions)
	}
}

// TestPublisherConvergesThroughHangs: a replica that stalls (accepts
// the push and never answers) costs the publisher one client timeout,
// then the next reconcile converges — and the duplicate-delivery safety
// holds when the hung delivery WAS applied server-side.
func TestPublisherConvergesThroughHangs(t *testing.T) {
	rep := NewServer()
	audit := newPushAudit()
	inj := faulty.New(11)
	srv := httptest.NewServer(inj.Handler(audit.middleware(rep.Handler())))
	defer srv.Close()
	inj.Set(faulty.Rule{Path: "/push", Mode: faulty.Hang, Every: 3})

	src := store.New()
	spec, err := store.Serialize(&ml.LinearModel{Weights: []float64{2}, Bias: 1})
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 150 * time.Millisecond}
	pub := NewPublisher(src, []string{srv.URL}, WithClient(client))
	const versions = 4
	for v := 1; v <= versions; v++ {
		src.Publish(store.Bundle{Name: "m", Model: spec, Provenance: store.Provenance{Pipeline: "m", Quality: float64(v)}})
		if err := retried(5, syncing(pub)); err != nil {
			t.Fatalf("deliver v%d through hangs: %v", v, err)
		}
	}
	// Release any handler still parked on the injector so the server can
	// shut down cleanly.
	inj.Clear()

	if got := rep.Store().VersionCount("m"); got != versions {
		t.Fatalf("replica converged to watermark %d, want %d", got, versions)
	}
	audit.mu.Lock()
	defer audit.mu.Unlock()
	for v := 1; v <= versions; v++ {
		key := fmt.Sprintf("m@v%d", v)
		if audit.applied[key] != 1 {
			t.Errorf("%s applied %d times, want exactly 1", key, audit.applied[key])
		}
	}
	if len(audit.regress) > 0 {
		t.Errorf("acked watermark regressed: %v", audit.regress)
	}
}

// TestPushCancellationCutsTheRound: a converge waiting on a replica
// that never answers must notice context cancellation promptly instead
// of waiting out the client's timeout.
func TestPushCancellationCutsTheRound(t *testing.T) {
	// Never answers: without cancellation the round below would wait
	// out replyTimeout, 10 s.
	srv := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()

	src := store.New()
	spec, err := store.Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(store.Bundle{Name: "m", Model: spec, Provenance: store.Provenance{Pipeline: "m"}})

	pub := NewPublisher(src, []string{srv.URL})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = pub.Converge(ctx, srv.URL)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("push to a replica that never answers returned nil")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not carry the cancellation: %v", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to cut the round short", elapsed)
	}

	// Sync honors a pre-cancelled context the same way.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if err := pub.Sync(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sync with cancelled context = %v, want context.Canceled", err)
	}
}

// TestDefaultClientBoundsTheReply: a publisher built without WithClient
// shares one client that waits at most replyTimeout for a reply to
// start, well inside requestTimeout.
func TestDefaultClientBoundsTheReply(t *testing.T) {
	c := NewPublisher(store.New(), nil).client
	tr, ok := c.Transport.(*http.Transport)
	if c != defaultClient || !ok || tr.ResponseHeaderTimeout != replyTimeout || c.Timeout != requestTimeout {
		t.Fatalf("default client %+v does not bound replies at %v within %v", c, replyTimeout, requestTimeout)
	}
	if replyTimeout >= requestTimeout {
		t.Fatalf("replyTimeout %v does not cut a request before requestTimeout %v", replyTimeout, requestTimeout)
	}
}

// TestParkedRoundFailsAtTheReplyTimeout: a replica that accepts the
// first request of a round and never answers it fails that round within
// the client's reply bound, as a transient error, and the next round
// converges. Without the bound the first round waits out requestTimeout.
func TestParkedRoundFailsAtTheReplyTimeout(t *testing.T) {
	rep := NewServer()
	var parked atomic.Bool
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if parked.CompareAndSwap(false, true) {
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		rep.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	defer close(release)

	src := store.New()
	spec, err := store.Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(store.Bundle{Name: "m", Model: spec, Provenance: store.Provenance{Pipeline: "m"}})
	pub := NewPublisher(src, []string{srv.URL}, WithClient(newClient(100*time.Millisecond)))

	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- pub.Converge(context.Background(), srv.URL) }()
	select {
	case err := <-done:
		if err == nil || IsPermanent(err) {
			t.Fatalf("round parked on the replica = %v, want a transient error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("round parked on the replica still waits after 5s")
	}
	t.Logf("parked round failed after %v", time.Since(start))
	if err := pub.Converge(context.Background(), srv.URL); err != nil {
		t.Fatalf("next round: %v", err)
	}
	if got := rep.Store().VersionCount("m"); got != 1 {
		t.Fatalf("replica holds %d versions after the next round, want 1", got)
	}
}
