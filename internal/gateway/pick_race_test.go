package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// instantBackend answers every proxied request in-process with a tiny
// 200, so the goroutines below spend nearly all their time in the
// gateway's own admit → pick → forward bookkeeping — the code under
// test — and the backends' in-flight counters change as often as they
// possibly can.
type instantBackend struct{}

func (instantBackend) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode:    http.StatusOK,
		Header:        http.Header{"Content-Type": {"application/json"}},
		Body:          io.NopCloser(strings.NewReader("[]")),
		ContentLength: 2,
		Request:       r,
	}, nil
}

// TestPickUnderConcurrentLoad drives one Gateway from many goroutines at
// once. pick used to read each backend's in-flight counter twice — once
// to sort and take the minimum, again to count the ties — so a request
// starting or finishing in between could leave zero ties and the
// round-robin modulo divided by zero (a handler panic, a lost request).
// Every request must come back 200 and none may panic.
func TestPickUnderConcurrentLoad(t *testing.T) {
	// On a single-CPU machine the window only opens when a goroutine is
	// preempted inside it; more Ps make the interleaving routine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.NumCPU())))

	g, err := New(Config{
		Backends:  []string{"http://replica-a", "http://replica-b"},
		Transport: instantBackend{},
		Limits:    Limits{Read: 1 << 20, Predict: 1 << 20, Batch: 1 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := g.Handler()

	const workers = 8
	perWorker := 40000
	if testing.Short() {
		perWorker = 4000
	}
	var panics, bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodGet, "/models", nil)
			for i := 0; i < perWorker; i++ {
				func() {
					defer func() {
						if recover() != nil {
							panics.Add(1)
						}
					}()
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code/100 != 2 {
						bad.Add(1)
					}
				}()
			}
		}()
	}
	wg.Wait()
	if panics.Load() != 0 || bad.Load() != 0 {
		t.Fatalf("%d requests through one gateway: %d handler panic(s), %d non-2xx", workers*perWorker, panics.Load(), bad.Load())
	}
}
