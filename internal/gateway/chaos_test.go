package gateway

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faulty"
	"repro/internal/metrics"
)

// scrapeGateway fetches the gateway's own /metrics over HTTP (the one
// route ServeHTTP answers locally instead of proxying) and strict-parses
// the exposition.
func scrapeGateway(t *testing.T, base string) metrics.Families {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	fams, err := metrics.Parse(resp.Body)
	if err != nil {
		t.Fatalf("gateway /metrics is not valid exposition: %v", err)
	}
	return fams
}

// transitionsTo reads one backend's breaker-transition counter.
func transitionsTo(t *testing.T, fams metrics.Families, backend, to string) float64 {
	t.Helper()
	v, _ := fams.Value("sage_gateway_breaker_transitions_total",
		map[string]string{"backend": backend, "to": to})
	return v
}

// TestGatewayChaosKillAndStall is the headline fault-injection e2e: a
// three-replica fleet serves mixed read/predict traffic while one
// replica is killed (connection resets) and another stalled (hangs)
// mid-stream. The assertions are the PR's availability contract:
//
//   - every 200 body stays byte-identical to the primary, through every
//     phase (failover never serves wrong or truncated bytes);
//   - after a short convergence window the success rate is 100% — the
//     breakers for the two faulty replicas are open and all traffic
//     flows to the survivor;
//   - when the faults are lifted, the breakers re-close via half-open
//     probes and the recovered replicas serve traffic again.
//
// The health loop is intentionally NOT started: this test isolates the
// request-driven detectors (per-attempt deadlines, failover, breakers).
// The probe-driven detectors (down/draining) have their own tests in
// gateway_test.go.
func TestGatewayChaosKillAndStall(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short mode")
	}
	f := newFleet(t, 3, 3)
	// Cooldown is deliberately longer than the strict window below: a
	// half-open probe IS live traffic, and a request unlucky enough to
	// spend both its attempts on two simultaneous probes of the two
	// faulty replicas would legitimately fail. Keeping the breakers open
	// through the strict window makes the 100%-success assertion exact;
	// recovery still exercises the probe path afterwards.
	// AttemptTimeout must be comfortably above a healthy replica's worst
	// service time (including -race slowdown): a spurious timeout on the
	// surviving replica would count as a breaker failure and can 503 the
	// whole fleet while the other two breakers are open.
	g := f.gw(t, func(c *Config) {
		c.AttemptTimeout = time.Second
		c.Breaker = BreakerConfig{FailThreshold: 3, Cooldown: 2 * time.Second}
	})
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	paths := canonicalPaths()
	canon := make([][]byte, len(paths))
	for i, c := range paths {
		canon[i] = f.canon(t, c.method, c.path, c.body)
	}

	// strictGen tracks the strict/tolerant phase as a generation counter
	// (odd = strict). A non-200 is a failure only if the run was in the
	// SAME strict generation when the request started and when it
	// completed — a request in flight across a fault-injection boundary
	// may legitimately fail without violating the availability contract.
	var (
		strictGen atomic.Int64
		stopped   atomic.Bool
		successes atomic.Int64
		tolerated atomic.Int64 // non-200s outside a strict window
		mu        sync.Mutex
		problems  []string
	)
	setStrict := func(on bool) {
		if (strictGen.Load()%2 == 1) != on {
			strictGen.Add(1)
		}
	}
	start := time.Now()
	fail := func(msg string) {
		snap := ""
		for _, b := range g.Status().Backends {
			snap += " " + b.State + "/" + b.Breaker + "/" + b.LastError + ";"
		}
		mu.Lock()
		if len(problems) < 10 {
			problems = append(problems, time.Since(start).String()+" "+msg+" ["+snap+"]")
		}
		mu.Unlock()
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; !stopped.Load(); i++ {
				c := paths[(w+i)%len(paths)]
				gen := strictGen.Load()
				code, body, err := doReq(t, client, c.method, gsrv.URL+c.path, c.body)
				wasStrict := gen%2 == 1 && strictGen.Load() == gen
				switch {
				case err != nil:
					fail("transport error: " + err.Error())
				case code == http.StatusOK:
					if !bytes.Equal(body, canon[(w+i)%len(paths)]) {
						fail("non-canonical 200 body for " + c.path)
					}
					successes.Add(1)
				case wasStrict:
					fail(c.path + ": HTTP " + http.StatusText(code) + " during strict window")
				default:
					tolerated.Add(1)
				}
			}
		}(w)
	}

	breakerOf := func(url string) string {
		for _, b := range g.Status().Backends {
			if b.URL == url {
				return b.Breaker
			}
		}
		return "?"
	}
	requestsOf := func(url string) int64 {
		for _, b := range g.Status().Backends {
			if b.URL == url {
				return b.Requests
			}
		}
		return -1
	}

	// Phase 1: healthy fleet, strict from the start.
	setStrict(true)
	time.Sleep(150 * time.Millisecond)

	// Phase 2: kill replica 0 (resets) and stall replica 1 (hangs)
	// mid-traffic. Until the breakers trip, a request can draw both
	// faulty replicas and exhaust its two attempts — tolerate 503s for a
	// short convergence window, then demand 100% again.
	setStrict(false)
	f.injs[0].Set(faulty.Rule{Mode: faulty.Reset})
	f.injs[1].Set(faulty.Rule{Mode: faulty.Hang})
	deadline := time.Now().Add(5 * time.Second)
	for breakerOf(f.urls[0]) != "open" || breakerOf(f.urls[1]) != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("breakers never opened under sustained faults: %+v", g.Status().Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// With both breakers open, the transition counters must already show
	// the closed→open edge for exactly the faulty backends.
	midScrape := scrapeGateway(t, gsrv.URL)
	for _, u := range []string{f.urls[0], f.urls[1]} {
		if n := transitionsTo(t, midScrape, u, "open"); n < 1 {
			t.Fatalf("breaker open but sage_gateway_breaker_transitions_total{backend=%s,to=open} = %v", u, n)
		}
	}
	if n := transitionsTo(t, midScrape, f.urls[2], "open"); n != 0 {
		t.Fatalf("healthy survivor shows %v open transitions", n)
	}
	setStrict(true)
	preSuccess := successes.Load()
	time.Sleep(400 * time.Millisecond)
	if got := successes.Load() - preSuccess; got == 0 {
		t.Fatal("no successful requests while two replicas were faulty — the survivor is not carrying the fleet")
	}

	// Phase 3: lift the faults. Cooldowns elapse, half-open probes
	// succeed, breakers re-close, and the recovered replicas serve
	// traffic again — all while strict mode stays on.
	f.injs[0].Clear()
	f.injs[1].Clear()
	req0, req1 := requestsOf(f.urls[0]), requestsOf(f.urls[1])
	deadline = time.Now().Add(8 * time.Second)
	for breakerOf(f.urls[0]) != "closed" || breakerOf(f.urls[1]) != "closed" {
		if time.Now().After(deadline) {
			t.Fatalf("breakers never re-closed after recovery: %+v", g.Status().Backends)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Let the recovered replicas take some traffic, then stop.
	time.Sleep(200 * time.Millisecond)
	stopped.Store(true)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	if len(problems) > 0 {
		t.Fatalf("chaos run failed (%d successes, %d tolerated 503s):\n%s",
			successes.Load(), tolerated.Load(), problems)
	}
	if requestsOf(f.urls[0]) == req0 {
		t.Error("killed replica served no traffic after recovery")
	}
	if requestsOf(f.urls[1]) == req1 {
		t.Error("stalled replica served no traffic after recovery")
	}
	st := g.Status()
	if st.Retries == 0 {
		t.Error("chaos run recorded zero failovers — the faults never engaged")
	}
	if f.injs[0].Fired() == 0 || f.injs[1].Fired() == 0 {
		t.Error("fault injectors never fired")
	}

	// The full breaker cycle must be visible in /metrics: each faulty
	// backend shows open → half-open → closed edges, counters are
	// monotone across the two scrapes, and the state gauges agree with
	// the status report (everything re-closed).
	endScrape := scrapeGateway(t, gsrv.URL)
	for _, u := range []string{f.urls[0], f.urls[1]} {
		for _, to := range []string{"open", "half-open", "closed"} {
			if n := transitionsTo(t, endScrape, u, to); n < 1 {
				t.Errorf("breaker cycle incomplete: transitions{backend=%s,to=%s} = %v", u, to, n)
			}
			if mid, end := transitionsTo(t, midScrape, u, to), transitionsTo(t, endScrape, u, to); end < mid {
				t.Errorf("transition counter went backwards for %s to=%s: %v -> %v", u, to, mid, end)
			}
		}
		if s, ok := endScrape.Value("sage_gateway_breaker_state", map[string]string{"backend": u}); !ok || s != 0 {
			t.Errorf("sage_gateway_breaker_state{backend=%s} = %v, want 0 (closed)", u, s)
		}
	}
	if mid, _ := midScrape.Value("sage_gateway_retries_total", nil); mid == 0 {
		t.Error("zero failover retries in /metrics while two replicas were faulty")
	} else if end, _ := endScrape.Value("sage_gateway_retries_total", nil); end < mid {
		t.Errorf("sage_gateway_retries_total went backwards: %v -> %v", mid, end)
	}
	if got, _ := endScrape.Value("sage_gateway_retries_total", nil); got != float64(st.Retries) {
		t.Errorf("/metrics retries %v, /gateway/status retries %d — the views diverged", got, st.Retries)
	}
	t.Logf("chaos: %d successes, %d tolerated during convergence, %d retries, %d unroutable",
		successes.Load(), tolerated.Load(), st.Retries, st.Unroutable)
}

// TestGatewayChaosHealthLoop runs the same kill/stall scenario with the
// active health prober running: probes mark the dead replica down and
// keep the stalled one from pinning more than bounded attempts, and
// recovery is probe-driven (replicas rejoin without needing traffic to
// re-close a breaker first).
func TestGatewayChaosHealthLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e skipped in -short mode")
	}
	f := newFleet(t, 3, 3)
	g := f.gw(t, func(c *Config) {
		c.AttemptTimeout = time.Second
		c.HealthInterval = 25 * time.Millisecond
		c.Breaker = BreakerConfig{FailThreshold: 3, Cooldown: 250 * time.Millisecond}
	})
	g.Start()
	defer g.Stop()
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	want := f.canon(t, http.MethodGet, "/models", "")

	// Kill replica 0 and stall replica 1 (status probes included: a
	// hung /replica/status looks exactly like a stalled process).
	f.injs[0].Set(faulty.Rule{Mode: faulty.Reset})
	f.injs[1].Set(faulty.Rule{Mode: faulty.Hang})

	stateOf := func(url string) string {
		for _, b := range g.Status().Backends {
			if b.URL == url {
				return b.State
			}
		}
		return "?"
	}
	deadline := time.Now().Add(5 * time.Second)
	for stateOf(f.urls[0]) != "down" || stateOf(f.urls[1]) != "down" {
		if time.Now().After(deadline) {
			t.Fatalf("probes never marked the faulty replicas down: %+v", g.Status().Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// With the probe view converged, every request must succeed.
	for i := 0; i < 20; i++ {
		code, body, err := doReq(t, gsrv.Client(), http.MethodGet, gsrv.URL+"/models", "")
		if err != nil || code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("request %d with two replicas down: %d %v", i, code, err)
		}
	}

	// Recovery is probe-driven: clear the faults and wait for both
	// replicas to be healthy again without sending any traffic.
	f.injs[0].Clear()
	f.injs[1].Clear()
	deadline = time.Now().Add(5 * time.Second)
	for stateOf(f.urls[0]) != "healthy" || stateOf(f.urls[1]) != "healthy" {
		if time.Now().After(deadline) {
			t.Fatalf("probes never saw the recovery: %+v", g.Status().Backends)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGatewayAdmissionShedsUnderSaturation floods the gateway with
// batch traffic far beyond its admission bound and pins the
// shed-before-collapse behavior: the bounded in-flight limit is never
// exceeded at the backend, excess load is refused *fast* with 503 +
// Retry-After (never queued), and cheap reads keep flowing throughout.
func TestGatewayAdmissionShedsUnderSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation test skipped in -short mode")
	}
	// One replica whose batch endpoint takes ~30ms, behind a middleware
	// that measures true backend concurrency.
	f := newFleet(t, 1, 1)
	var cur, peak atomic.Int64
	inner := f.srvs[0].Config.Handler // injector over replica handler
	meter := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/predict/batch" {
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			defer cur.Add(-1)
		}
		inner.ServeHTTP(w, r)
	})
	msrv := httptest.NewServer(meter)
	defer msrv.Close()
	f.injs[0].Set(faulty.Rule{Path: "/predict/batch", Mode: faulty.Pass, Latency: 30 * time.Millisecond})

	limits := Limits{Read: 8, Predict: 8, Batch: 4}
	g, err := New(Config{
		Backends:       []string{msrv.URL},
		AttemptTimeout: 5 * time.Second,
		Limits:         limits,
	})
	if err != nil {
		t.Fatal(err)
	}
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	const clients, perClient = 40, 5
	var (
		accepted, shed atomic.Int64
		slowShed       atomic.Int64
		wg             sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; i < perClient; i++ {
				start := time.Now()
				req, _ := http.NewRequest(http.MethodPost, gsrv.URL+"/predict/batch?model=m", bytes.NewBufferString(batchBody))
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					accepted.Add(1)
				case http.StatusServiceUnavailable:
					shed.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						t.Error("shed 503 without a Retry-After header")
					}
					// A shed must be an immediate refusal, not a queued
					// request that timed out: generous CI bound, but far
					// below any queueing delay.
					if time.Since(start) > 2*time.Second {
						slowShed.Add(1)
					}
				default:
					t.Errorf("unexpected status %d under saturation", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}()
	}
	// Reads keep being admitted while batch saturates.
	readOK := make(chan int64, 1)
	go func() {
		var ok int64
		client := &http.Client{Timeout: 10 * time.Second}
		for i := 0; i < 20; i++ {
			code, _, err := doReq(t, client, http.MethodGet, gsrv.URL+"/models", "")
			if err == nil && code == http.StatusOK {
				ok++
			}
			time.Sleep(5 * time.Millisecond)
		}
		readOK <- ok
	}()
	wg.Wait()

	if accepted.Load() == 0 {
		t.Fatal("saturation shed everything — no batch request was ever admitted")
	}
	if shed.Load() == 0 {
		t.Fatalf("offered load of %d batch requests over a limit of %d produced zero sheds", clients*perClient, limits.Batch)
	}
	if slowShed.Load() != 0 {
		t.Errorf("%d shed responses were slow — sheds must be immediate refusals", slowShed.Load())
	}
	if p := peak.Load(); p > int64(limits.Batch) {
		t.Errorf("backend saw %d concurrent batch requests, admission bound is %d", p, limits.Batch)
	}
	if ok := <-readOK; ok < 15 {
		t.Errorf("only %d/20 reads admitted during batch saturation — cost-ordered shedding is not protecting reads", ok)
	}
	if sc := g.Status().Shed; sc["batch"] == 0 {
		t.Error("status report shows zero batch sheds after a saturating load")
	}
	// The shed counter in /metrics is the same series the status report
	// reads; it must equal both the status view and the 503s clients saw.
	fams := scrapeGateway(t, gsrv.URL)
	if got, _ := fams.Value("sage_gateway_shed_total", map[string]string{"class": "batch"}); got != float64(shed.Load()) {
		t.Errorf("sage_gateway_shed_total{class=batch} = %v, clients counted %d sheds", got, shed.Load())
	} else if got != float64(g.Status().Shed["batch"]) {
		t.Errorf("/metrics sheds %v, /gateway/status sheds %d — the views diverged", got, g.Status().Shed["batch"])
	}
	t.Logf("saturation: %d accepted, %d shed, backend peak concurrency %d/%d",
		accepted.Load(), shed.Load(), peak.Load(), limits.Batch)
}

// BenchmarkGatewayProxyOverhead measures the gateway's added cost on the
// hot read path: a full proxied GET (admission + routing + forward +
// buffer + verify) against a healthy single-backend fleet.
func BenchmarkGatewayProxyOverhead(b *testing.B) {
	benchProxy(b, http.MethodGet, "/models", "")
}

// BenchmarkGatewayProxyOverheadPost64K is the same hop carrying a batch
// request of 64 KiB, the size at which how the gateway buffers the body
// for replay shows in B/op (io.ReadAll's doubling held about five times
// the body; a Content-Length-sized read holds it once).
func BenchmarkGatewayProxyOverheadPost64K(b *testing.B) {
	const row = "[0.1234567890123,0.9876543210987],"
	body := `{"rows":[` + strings.Repeat(row, 64<<10/len(row)) + `[1,2]]}`
	b.SetBytes(int64(len(body)))
	benchProxy(b, http.MethodPost, "/predict/batch?model=m", body)
}

func benchProxy(b *testing.B, method, path, body string) {
	f := newFleet(b, 1, 1)
	g := f.gw(b)
	gsrv := httptest.NewServer(g.Handler())
	defer gsrv.Close()

	client := &http.Client{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		code, _, err := doReq(b, client, method, gsrv.URL+path, body)
		if err != nil || code != http.StatusOK {
			b.Fatalf("proxied request failed: %d %v", code, err)
		}
	}
}
