package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/safety"
)

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// TestHistogramBucketBoundaries pins the bucket semantics: bounds are
// inclusive upper bounds, observations above the last bound land in
// the implicit +Inf bucket, and exposition renders cumulative counts.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "test", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.5, 2, 5, 6} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	if got := h.Sum(); got != 16 {
		t.Fatalf("Sum = %v, want 16", got)
	}
	want := []uint64{2, 2, 1, 1} // per-bucket: (≤1, ≤2, ≤5, +Inf)
	for i := range h.counts {
		if got := h.counts[i].Load(); got != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, got, want[i])
		}
	}

	var b strings.Builder
	if err := r.TextExpose(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, b.String())
	}
	for _, tc := range []struct {
		le   string
		want float64
	}{{"1", 2}, {"2", 4}, {"5", 5}, {"+Inf", 6}} {
		got, ok := fams.Value("h_seconds_bucket", map[string]string{"le": tc.le})
		if !ok || got != tc.want {
			t.Errorf("bucket le=%s = %v (found %v), want %v", tc.le, got, ok, tc.want)
		}
	}
}

// TestExpositionGolden pins the exact rendered text for one of every
// metric kind, then round-trips it through the strict parser.
func TestExpositionGolden(t *testing.T) {
	r := New()
	c := r.Counter("sage_test_requests_total", "Requests served.", Label{"class", "read"})
	c.Add(3)
	r.Counter("sage_test_requests_total", "Requests served.", Label{"class", "batch"}).Inc()
	r.GaugeFunc("sage_test_inflight", "In-flight requests.", func() float64 { return 2 })
	r.GaugeFunc("sage_test_eps_spent", "Privacy spend.", func() float64 { return 0.25 }, Label{"shard", "0"})
	h := r.Histogram("sage_test_latency_seconds", "Request latency.", []float64{0.25, 0.5})
	h.Observe(0.25)
	h.Observe(0.5)
	h.Observe(1)

	const golden = expositionGolden
	var b strings.Builder
	if err := r.TextExpose(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != golden {
		t.Fatalf("exposition mismatch\ngot:\n%s\nwant:\n%s", b.String(), golden)
	}

	fams, err := Parse(strings.NewReader(golden))
	if err != nil {
		t.Fatalf("golden does not parse: %v", err)
	}
	if v, ok := fams.Value("sage_test_requests_total", map[string]string{"class": "read"}); !ok || v != 3 {
		t.Errorf("counter round-trip = %v (found %v), want 3", v, ok)
	}
	if v, ok := fams.Value("sage_test_eps_spent", map[string]string{"shard": "0"}); !ok || v != 0.25 {
		t.Errorf("gauge func round-trip = %v (found %v), want 0.25", v, ok)
	}
	if v, ok := fams.Value("sage_test_latency_seconds_count", nil); !ok || v != 3 {
		t.Errorf("histogram count round-trip = %v (found %v), want 3", v, ok)
	}
	if total, n := fams.Sum("sage_test_requests_total", nil); n != 2 || total != 4 {
		t.Errorf("Sum = %v over %d series, want 4 over 2", total, n)
	}
}

// TestConcurrentIncrementExpose hammers one counter and one histogram
// from many goroutines while the registry is concurrently exposed;
// every intermediate exposition must parse strictly, and the final
// totals must be exact. Run under -race in CI.
func TestConcurrentIncrementExpose(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", LatencyBuckets())
	r.GaugeFunc("g", "g", func() float64 { return float64(c.Value()) })

	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(seed*perWorker+i) * 1e-6)
			}
		}(w)
	}
	exposeDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				exposeDone <- nil
				return
			default:
			}
			var b strings.Builder
			if err := r.TextExpose(&b); err != nil {
				exposeDone <- err
				return
			}
			if _, err := Parse(strings.NewReader(b.String())); err != nil {
				exposeDone <- err
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-exposeDone; err != nil {
		t.Fatalf("concurrent exposition: %v", err)
	}
	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestNilSafety: a nil registry and nil metric handles must be inert,
// so uninstrumented components need no conditionals.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	h := r.Histogram("x_seconds", "x", []float64{1})
	r.GaugeFunc("y", "y", func() float64 { return 1 })
	c.Inc()
	c.Add(2)
	h.Observe(0.5)
	if c.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics must read as zero")
	}
	if err := r.TextExpose(&strings.Builder{}); err != nil {
		t.Errorf("nil TextExpose: %v", err)
	}
}

// TestRegistryMisusePanics: wiring bugs fail loudly at construction.
func TestRegistryMisusePanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"duplicate series":   func(r *Registry) { r.Counter("a_total", "a"); r.Counter("a_total", "a") },
		"type conflict":      func(r *Registry) { r.Counter("a_total", "a"); r.GaugeFunc("a_total", "a", func() float64 { return 0 }) },
		"help conflict":      func(r *Registry) { r.Counter("a_total", "a"); r.Counter("a_total", "b", Label{"l", "v"}) },
		"bad metric name":    func(r *Registry) { r.Counter("1bad", "x") },
		"bad label name":     func(r *Registry) { r.Counter("a_total", "a", Label{"1bad", "v"}) },
		"reserved le label":  func(r *Registry) { r.Histogram("h", "h", []float64{1}, Label{"le", "v"}) },
		"unsorted buckets":   func(r *Registry) { r.Histogram("h", "h", []float64{2, 1}) },
		"explicit inf":       func(r *Registry) { r.Histogram("h", "h", []float64{1, math.Inf(1)}) },
		"duplicate label":    func(r *Registry) { r.Counter("a_total", "a", Label{"l", "1"}, Label{"l", "2"}) },
		"nil gauge func":     func(r *Registry) { r.GaugeFunc("g", "g", nil) },
		"empty buckets":      func(r *Registry) { r.Histogram("h", "h", nil) },
		"bad exp buckets":    func(r *Registry) { ExpBuckets(0, 2, 3) },
		"bad exp bucket fac": func(r *Registry) { ExpBuckets(1, 1, 3) },
	}
	for name, f := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f(New())
		})
	}
}

// TestParseRejects: the parser is strict — malformed or internally
// inconsistent payloads are errors, not best-effort results.
func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"no TYPE":          "a_total 1\n",
		"duplicate series": "# TYPE a_total counter\na_total 1\na_total 2\n",
		"timestamp":        "# TYPE a_total counter\na_total 1 1700000000\n",
		"negative counter": "# TYPE a_total counter\na_total -1\n",
		"nan counter":      "# TYPE a_total counter\na_total NaN\n",
		"duplicate TYPE":   "# TYPE a counter\n# TYPE a gauge\n",
		"TYPE after data":  "# TYPE a gauge\na 1\n# TYPE a gauge\n",
		"unknown type":     "# TYPE a summary\n",
		"free comment":     "# just a note\n",
		"bad label":        "# TYPE a gauge\na{l=\"v} 1\n",
		"missing inf":      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"decreasing buckets": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n" +
			"h_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"count mismatch": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"missing sum":    "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"stray sample":   "# TYPE h histogram\nh_extra 1\n",
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(payload)); err == nil {
				t.Errorf("Parse accepted invalid payload:\n%s", payload)
			}
		})
	}
	// Sanity: the strictness cases above are rejections of nearly-valid
	// input, so make sure a well-formed cousin still parses.
	ok := "# HELP h latency\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n"
	if _, err := Parse(strings.NewReader(ok)); err != nil {
		t.Errorf("Parse rejected valid payload: %v", err)
	}
}

// TestLabelEscaping round-trips label values containing quotes,
// backslashes, and newlines.
func TestLabelEscaping(t *testing.T) {
	r := New()
	ugly := "a\"b\\c\nd"
	r.GaugeFunc("g", "g", func() float64 { return 7 }, Label{"l", ugly})
	var b strings.Builder
	if err := r.TextExpose(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("escaped exposition does not parse: %v\n%q", err, b.String())
	}
	if v, ok := fams.Value("g", map[string]string{"l": ugly}); !ok || v != 7 {
		t.Errorf("escaped label round-trip = %v (found %v), want 7", v, ok)
	}
}

// TestHotPathAllocs pins the instrumentation hot paths at zero
// allocations per op — the property that lets every tier instrument
// its serving paths without touching the repo's alloc budgets.
func TestHotPathAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", LatencyBuckets())
	got := safety.MaxAllocs(t, 1000, 0, func() {
		c.Inc()
		h.Observe(0.00042)
	})
	t.Logf("counter+histogram hot path: %.1f allocs/op (budget 0)", got)
}

// TestExemplars pins the histogram→trace bridge: the most recent
// traced observation wins, untraced observations leave the exemplar
// alone (and allocate nothing), and the registry table keys labeled
// series by name{signature}.
func TestExemplars(t *testing.T) {
	r := New()
	plain := r.Histogram("plain_seconds", "p", LatencyBuckets())
	labeled := r.Histogram("req_seconds", "r", LatencyBuckets(), Label{"class", "read"})

	if _, ok := plain.Exemplar(); ok {
		t.Fatal("fresh histogram has an exemplar")
	}
	plain.ObserveExemplar(0.1, "")
	if _, ok := plain.Exemplar(); ok {
		t.Fatal("empty trace id stored an exemplar")
	}
	if plain.Count() != 1 {
		t.Fatal("ObserveExemplar with empty trace id must still observe")
	}
	plain.ObserveExemplar(0.2, "aaaa")
	plain.ObserveExemplar(0.3, "bbbb")
	e, ok := plain.Exemplar()
	if !ok || e.TraceID != "bbbb" || e.Value != 0.3 {
		t.Fatalf("exemplar = %+v, %v; want most recent traced observation", e, ok)
	}
	labeled.ObserveExemplar(0.4, "cccc")

	table := r.Exemplars()
	if len(table) != 2 {
		t.Fatalf("exemplar table %v, want 2 entries", table)
	}
	if table["plain_seconds"].TraceID != "bbbb" {
		t.Fatalf("plain entry %+v", table["plain_seconds"])
	}
	if table[`req_seconds{class="read"}`].TraceID != "cccc" {
		t.Fatalf("labeled entry missing: %v", table)
	}

	var nilH *Histogram
	nilH.ObserveExemplar(1, "x")
	if _, ok := nilH.Exemplar(); ok {
		t.Fatal("nil histogram has an exemplar")
	}
	var nilR *Registry
	if nilR.Exemplars() != nil {
		t.Fatal("nil registry returned a table")
	}
}

// TestObserveExemplarUntracedAllocs pins that the untraced exemplar
// path is exactly Observe: zero allocations.
func TestObserveExemplarUntracedAllocs(t *testing.T) {
	r := New()
	h := r.Histogram("ex_seconds", "e", LatencyBuckets())
	safety.MaxAllocs(t, 1000, 0, func() {
		h.ObserveExemplar(0.00042, "")
	})
}
