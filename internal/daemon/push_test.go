package daemon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/trace"
)

// stalledReplica is a replica endpoint that accepts every request and
// answers none until the test ends, or until serve holds a replica,
// which answers from then on. Each request's path goes to arrived as
// the request comes in.
type stalledReplica struct {
	url     string
	arrived chan string
	serve   atomic.Pointer[replica.Server]
}

func newStalledReplica(t *testing.T) *stalledReplica {
	t.Helper()
	// arrived outlasts any test's requests; past it a path is dropped,
	// so the handler never blocks on it.
	s := &stalledReplica{arrived: make(chan string, 256)}
	end := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rep := s.serve.Load(); rep != nil {
			rep.Handler().ServeHTTP(w, r)
			return
		}
		select {
		case s.arrived <- r.URL.Path:
		default:
		}
		<-end
	}))
	s.url = srv.URL
	// Cleanups run last-in first-out: the stalled handlers return before
	// Close waits for them.
	t.Cleanup(srv.Close)
	t.Cleanup(func() { close(end) })
	return s
}

// TestHungReplicaDoesNotHoldShutdown: a replica that accepts a push and
// never answers does not keep the daemon running past its cancellation.
// The push runs under Run's context, so cancelling it cuts the push
// short, and the final sync is bounded by DrainTimeout.
func TestHungReplicaDoesNotHoldShutdown(t *testing.T) {
	stalled := newStalledReplica(t)
	stalled.serve.Store(replica.NewServer()) // answers the startup sync
	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{stalled.url}
	cfg.DrainTimeout = 200 * time.Millisecond
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stalled.serve.Store(nil) // and hangs from now on

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- d.Run(ctx) }()
	select {
	case path := <-stalled.arrived:
		t.Logf("the first release's push is in flight (%s)", path)
	case err := <-done:
		t.Fatalf("Run returned before any push: %v", err)
	case <-time.After(time.Minute):
		t.Fatal("no release was pushed within a minute")
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("Run returned %v after cancellation", time.Since(start).Round(time.Millisecond))
	case <-time.After(cfg.DrainTimeout + 2*time.Second):
		t.Fatalf("Run still running %v after cancellation, held by a push to a hung replica", time.Since(start).Round(time.Millisecond))
	}
}

// TestHungReplicaDoesNotHoldStartup: a daemon restarted over releases,
// with one replica hung, returns from New once DrainTimeout has cut the
// startup sync short. The other replica is brought current, and the
// hung one stays flagged: once it answers, the next release reconciles
// it, so every name arrives with that one push, not only the released
// name.
func TestHungReplicaDoesNotHoldStartup(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntil := func(d *Daemon, done func() bool) {
		t.Helper()
		for i := 0; !done(); i++ {
			if i == 64 {
				t.Fatalf("not done in 64 ticks: %v", d.Status().StoreVersions)
			}
			if err := d.step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepUntil(d, func() bool { return len(d.plat.Store.Watermarks()) == cfg.Pipelines })
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	stalled := newStalledReplica(t)
	healthy := replica.NewServer()
	healthySrv := httptest.NewServer(healthy.Handler())
	defer healthySrv.Close()
	cfg.PushEndpoints = []string{stalled.url, healthySrv.URL}
	cfg.DrainTimeout = 200 * time.Millisecond
	type opened struct {
		d   *Daemon
		err error
	}
	res := make(chan opened, 1)
	start := time.Now()
	go func() {
		d, _, err := New(cfg)
		res <- opened{d, err}
	}()
	var d2 *Daemon
	select {
	case o := <-res:
		if o.err != nil {
			t.Fatal(o.err)
		}
		d2 = o.d
		t.Logf("New returned after %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(cfg.DrainTimeout + 2*time.Second):
		t.Fatalf("New still syncing %v after it started, held by a hung replica", time.Since(start).Round(time.Millisecond))
	}
	defer d2.Close()
	want := d2.plat.Store.Watermarks()
	if got := healthy.Store().Watermarks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("healthy replica after the startup sync holds %v, want %v", got, want)
	}

	back := replica.NewServer()
	stalled.serve.Store(back)
	before := countVersions(d2.plat.Store)
	stepUntil(d2, func() bool { return countVersions(d2.plat.Store) > before })
	if got, want := back.Store().Watermarks(), d2.plat.Store.Watermarks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the hung replica, answering again, holds %v after the next release, want %v: it was not flagged", got, want)
	}
}

// TestPushContinuesTheTickTrace: with a traced daemon and a traced
// replica, each push carries a traceparent naming its tick's trace and
// the daemon.train span that published, and the replica's server span
// joins that trace.
func TestPushContinuesTheTickTrace(t *testing.T) {
	repTracer := trace.New(trace.Config{Service: "replica"})
	rep := replica.NewServer(replica.WithTracer(repTracer))
	var (
		mu      sync.Mutex
		parents []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			mu.Lock()
			parents = append(parents, r.Header.Get("traceparent"))
			mu.Unlock()
		}
		rep.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{srv.URL}
	cfg.Tracer = trace.New(trace.Config{Service: "daemon", RingSize: 1 << 14})
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; countVersions(d.plat.Store) < 2; i++ {
		if i == 64 {
			t.Fatalf("no second release in 64 ticks: %v", d.Status().StoreVersions)
		}
		if err := d.step(context.Background()); err != nil {
			t.Fatal(err)
		}
	}

	trains := map[string]string{} // daemon.train span id → its trace id
	for _, sp := range cfg.Tracer.Snapshot().Recent {
		if sp.Name == "daemon.train" {
			trains[sp.SpanID] = sp.TraceID
		}
	}
	joined := map[string]bool{} // trace ids the replica recorded
	for _, sp := range repTracer.Snapshot().Recent {
		joined[sp.TraceID] = true
	}
	mu.Lock()
	defer mu.Unlock()
	if len(parents) == 0 {
		t.Fatal("no push reached the replica")
	}
	for _, tp := range parents {
		traceID, parent, ok := trace.ParseTraceparent(tp)
		if !ok {
			t.Fatalf("push traceparent %q does not parse", tp)
		}
		if trains[parent.String()] != traceID.String() {
			t.Errorf("push traceparent %q names no daemon.train span of its trace", tp)
		}
		if !joined[traceID.String()] {
			t.Errorf("the replica recorded no span of the push's trace %s", traceID)
		}
	}
}

// countingReplica is a replica behind a handler that counts the
// publisher's requests to it, POST /push and GET /replica/status, and
// records the most it ever had in flight at once. While refuse is
// positive, each push is answered 503 and counts it down.
type countingReplica struct {
	url         string
	rep         *replica.Server
	posts, gets atomic.Int32
	inflight    atomic.Int32
	most        atomic.Int32
	refuse      atomic.Int32
}

func newCountingReplica(t *testing.T) *countingReplica {
	t.Helper()
	c := &countingReplica{rep: replica.NewServer()}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.Method + " " + r.URL.Path {
		case "POST /push":
			c.posts.Add(1)
		case "GET /replica/status":
			c.gets.Add(1)
		default:
			c.rep.Handler().ServeHTTP(w, r)
			return
		}
		n := c.inflight.Add(1)
		defer c.inflight.Add(-1)
		for m := c.most.Load(); n > m && !c.most.CompareAndSwap(m, n); m = c.most.Load() {
		}
		// Each request is held a little, so that one overlapping it is
		// seen in flight.
		time.Sleep(time.Millisecond)
		if r.URL.Path == "/push" && c.refuse.Load() > 0 {
			c.refuse.Add(-1)
			http.Error(w, "refusing pushes", http.StatusServiceUnavailable)
			return
		}
		c.rep.Handler().ServeHTTP(w, r)
	}))
	c.url = srv.URL
	t.Cleanup(srv.Close)
	return c
}

// TestDaemonSendsOneRequestAtATimePerReplica pins the traffic the
// publisher relies on for having no per-endpoint lock: the daemon
// pushes and syncs from its loop goroutine, one converge per replica at
// a time, so no replica ever has two of its requests in flight. The
// life covers every caller: the startup sync, plain pushes, retries
// that reconcile (one replica refuses six pushes: a release's push and
// its three retries, then the next release's reconcile and its first
// retry), the drain sync, and the startup sync of a daemon reopened on
// the same directory, over releases.
func TestDaemonSendsOneRequestAtATimePerReplica(t *testing.T) {
	a, b := newCountingReplica(t), newCountingReplica(t)
	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{a.url, b.url}
	stepUntilVersions := func(d *Daemon, n int) {
		t.Helper()
		for i := 0; countVersions(d.plat.Store) < n; i++ {
			if i == 64 {
				t.Fatalf("no release %d in 64 ticks: %v", n, d.Status().StoreVersions)
			}
			if err := d.step(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
	}
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilVersions(d, 2)
	gets := b.gets.Load()
	b.refuse.Store(6)
	stepUntilVersions(d, 4)
	if left := b.refuse.Load(); left != 0 {
		t.Fatalf("%d of the six refusals left after two releases", left)
	}
	if n := b.gets.Load() - gets; n < 5 {
		t.Errorf("%d reconciles behind six refused pushes, want one per retry (at least 5)", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilVersions(d2, 5)
	want := d2.plat.Store.Watermarks()
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*countingReplica{a, b} {
		if n := c.most.Load(); n > 1 {
			t.Errorf("%s had %d requests in flight at once, want at most 1", c.url, n)
		}
		if got := c.rep.Store().Watermarks(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s holds %v, want %v", c.url, got, want)
		}
		t.Logf("%s: %d POST /push, %d GET /replica/status", c.url, c.posts.Load(), c.gets.Load())
	}
}
