package daemon

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/trace"
)

// stalledReplica is a replica endpoint that accepts every request and
// answers none until release, or until serve holds a replica, which
// answers from then on. Once released, a request serve does not answer
// gets an empty reply, which the publisher cannot decode. Each
// unanswered request's path goes to arrived as the request comes in.
type stalledReplica struct {
	url     string
	arrived chan string
	serve   atomic.Pointer[replica.Server]
	end     chan struct{}
	once    sync.Once
}

func newStalledReplica(t *testing.T) *stalledReplica {
	t.Helper()
	// arrived outlasts any test's requests; past it a path is dropped,
	// so the handler never blocks on it.
	s := &stalledReplica{arrived: make(chan string, 256), end: make(chan struct{})}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rep := s.serve.Load(); rep != nil {
			rep.Handler().ServeHTTP(w, r)
			return
		}
		select {
		case s.arrived <- r.URL.Path:
		default:
		}
		<-s.end
	}))
	s.url = srv.URL
	// Cleanups run last-in first-out: the stalled handlers return before
	// Close waits for them.
	t.Cleanup(srv.Close)
	t.Cleanup(s.release)
	return s
}

// release returns every parked handler, and every later one at once.
func (s *stalledReplica) release() { s.once.Do(func() { close(s.end) }) }

// eventually fails the test unless cond holds within a minute.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within a minute", what)
		}
	}
}

// stepUntilVersions steps d until its store holds n releases.
func stepUntilVersions(t *testing.T, d *Daemon, n int) {
	t.Helper()
	for i := 0; countVersions(d.plat.Store) < n; i++ {
		if i == 64 {
			t.Fatalf("no release %d in 64 ticks: %v", n, d.Status().StoreVersions)
		}
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
}

// holds reports whether rep holds every release of src.
func holds(rep, src *store.Store) bool {
	return reflect.DeepEqual(rep.Watermarks(), src.Watermarks())
}

// TestUnsetDrainTimeoutIsBounded: a daemon configured with no
// DrainTimeout bounds its syncs at 30s (sagectl's -drain default), not
// at never.
func TestUnsetDrainTimeoutIsBounded(t *testing.T) {
	d, _, err := New(fastConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.cfg.DrainTimeout; got != 30*time.Second {
		t.Fatalf("an unset DrainTimeout resolves to %v, want 30s", got)
	}
}

// TestHungReplicaDoesNotHoldShutdown: a replica that accepts a push and
// never answers does not keep the daemon running past its cancellation.
// Close cancels the converger, which cuts its request short, and the
// final sync is bounded by DrainTimeout.
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
// startup sync short. The other replica is brought current. Once the
// hung one answers, its converger's next round reconciles it, so every
// name arrives, not only the released one. Its requests parked until
// then get replies the publisher cannot decode.
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
			if err := d.step(); err != nil {
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
	stalled.release()
	before := countVersions(d2.plat.Store)
	stepUntil(d2, func() bool { return countVersions(d2.plat.Store) > before })
	eventually(t, "the hung replica, answering again, holds every release after the next one", func() bool {
		return holds(back.Store(), d2.plat.Store)
	})
}

// TestPushContinuesTheTickTrace: with a traced daemon and a traced
// replica, each push carries a traceparent naming a daemon.push span
// whose parent is the daemon.train span that published, in that tick's
// trace, and the replica's server span joins that trace.
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
	stepUntilVersions(t, d, 2)
	eventually(t, "the replica holds both releases", func() bool { return holds(rep.Store(), d.plat.Store) })
	// Close waits for the converger, so its daemon.push spans have ended.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	trains := map[string]string{} // daemon.train span id → its trace id
	pushes := map[string]string{} // daemon.push span id → its parent's span id
	for _, sp := range cfg.Tracer.Snapshot().Recent {
		switch sp.Name {
		case "daemon.train":
			trains[sp.SpanID] = sp.TraceID
		case "daemon.push":
			pushes[sp.SpanID] = sp.ParentID
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
		train, ok := pushes[parent.String()]
		if !ok {
			t.Errorf("push traceparent %q names no daemon.push span", tp)
		} else if trains[train] != traceID.String() {
			t.Errorf("push traceparent %q names a daemon.push span whose parent is no daemon.train span of its trace", tp)
		}
		if !joined[traceID.String()] {
			t.Errorf("the replica recorded no span of the push's trace %s", traceID)
		}
	}
}

// countingReplica is a replica behind a handler that counts the
// publisher's requests to it, POST /push and GET /replica/status, and
// records the most it ever had in flight at once. While refuse is
// positive, each push is held refuseHold, answered 503 and counts it
// down.
type countingReplica struct {
	url         string
	rep         *replica.Server
	posts, gets atomic.Int32
	inflight    atomic.Int32
	most        atomic.Int32
	refuse      atomic.Int32
}

// refuseHold is how long a countingReplica holds a push it refuses.
const refuseHold = 200 * time.Millisecond

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
			time.Sleep(refuseHold)
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
// publisher relies on for having no per-endpoint lock: New's sync, one
// converger per replica and Close's sync run one after another, so no
// replica ever has two of its requests in flight. The life covers every
// sender: the startup sync, the convergers' rounds, retries (one replica
// refuses six pushes, each after the status read of its own reconcile),
// the drain sync, and the startup sync of a daemon reopened on the same
// directory, over releases.
func TestDaemonSendsOneRequestAtATimePerReplica(t *testing.T) {
	a, b := newCountingReplica(t), newCountingReplica(t)
	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{a.url, b.url}
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilVersions(t, d, 2)
	eventually(t, "both replicas hold the first two releases", func() bool {
		return holds(a.rep.Store(), d.plat.Store) && holds(b.rep.Store(), d.plat.Store)
	})
	gets := b.gets.Load()
	b.refuse.Store(6)
	stepUntilVersions(t, d, 4)
	eventually(t, "the refusing replica holds the next two releases", func() bool { return holds(b.rep.Store(), d.plat.Store) })
	if left := b.refuse.Load(); left != 0 {
		t.Fatalf("%d of the six refusals left after two releases", left)
	}
	if n := b.gets.Load() - gets; n < 7 {
		t.Errorf("%d reconciles behind six refused pushes, want one per attempt (at least 7)", n)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilVersions(t, d2, 5)
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

// TestHungReplicaDoesNotStopTheLoop: with one of two replicas hung after
// the startup sync, the running daemon ticks about as often as with both
// answering — at least half as many ticks in 3s as the slower of two
// healthy lives — and the healthy replica keeps up with its releases.
func TestHungReplicaDoesNotStopTheLoop(t *testing.T) {
	life := func(hung bool) (ticks int) {
		healthy := replica.NewServer()
		healthySrv := httptest.NewServer(healthy.Handler())
		defer healthySrv.Close()
		other := newStalledReplica(t)
		other.serve.Store(replica.NewServer()) // answers the startup sync
		cfg := fastConfig(t.TempDir())
		cfg.PushEndpoints = []string{other.url, healthySrv.URL}
		cfg.DrainTimeout = 200 * time.Millisecond
		d, _, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if hung {
			other.serve.Store(nil)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { done <- d.Run(ctx) }()
		time.Sleep(3 * time.Second)
		ticks = d.Status().Ticks
		released := d.plat.Store.Watermarks()
		eventually(t, "the healthy replica holds the releases made in 3s", func() bool {
			for name, n := range released {
				if healthy.Store().VersionCount(name) < n {
					return false
				}
			}
			return true
		})
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if len(released) == 0 {
			t.Fatalf("no release in %d ticks: nothing was pushed", ticks)
		}
		return ticks
	}
	slower := min(life(false), life(false))
	if hung := life(true); hung < slower/2 {
		t.Fatalf("%d ticks in 3s with one replica hung, %d in the slower of two healthy lives", hung, slower)
	} else {
		t.Logf("%d ticks in 3s with one replica hung, %d in the slower of two healthy lives", hung, slower)
	}
}

// TestRefusingReplicaDoesNotStretchTheTick: a replica that refuses six
// pushes costs the tick that published nothing — the rounds and the
// retries after them are its converger's. Each refusal is held
// refuseHold, so a tick that waited for one round would take 200ms
// longer than one that did not.
func TestRefusingReplicaDoesNotStretchTheTick(t *testing.T) {
	a, b := newCountingReplica(t), newCountingReplica(t)
	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{a.url, b.url}
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// publishing times the ticks until the store holds n releases and
	// returns the longest of those that published.
	publishing := func(n int) (longest time.Duration) {
		t.Helper()
		for i := 0; countVersions(d.plat.Store) < n; i++ {
			if i == 64 {
				t.Fatalf("no release %d in 64 ticks: %v", n, d.Status().StoreVersions)
			}
			before, start := countVersions(d.plat.Store), time.Now()
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); countVersions(d.plat.Store) > before {
				longest = max(longest, took)
			}
		}
		return longest
	}
	answered := publishing(2)
	b.refuse.Store(6)
	refused := publishing(4)
	t.Logf("longest publishing tick %v with both replicas answering, %v with one refusing", answered, refused)
	if refused > answered+100*time.Millisecond {
		t.Fatalf("a publishing tick took %v with one replica refusing pushes, against at most %v with both answering", refused, answered)
	}
	eventually(t, "the refusing replica holds every release", func() bool { return holds(b.rep.Store(), d.plat.Store) })
}

// TestHungReplicaConvergesWithNoFurtherRelease: a replica that hung on
// a round and then failed it is tried again by its converger once
// retryAfter has passed, so when it answers again it converges with no
// further release.
func TestHungReplicaConvergesWithNoFurtherRelease(t *testing.T) {
	stalled := newStalledReplica(t)
	stalled.serve.Store(replica.NewServer()) // answers the startup sync
	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{stalled.url}
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stalled.serve.Store(nil) // and hangs from now on

	stepped := make(chan error, 1)
	go func() {
		for i := 0; countVersions(d.plat.Store) == 0; i++ {
			if i == 64 {
				stepped <- fmt.Errorf("no release in 64 ticks")
				return
			}
			if err := d.step(); err != nil {
				stepped <- err
				return
			}
		}
		stepped <- nil
	}()
	// The round's first request hangs; released, it gets a reply the
	// publisher cannot decode, and the round fails.
	select {
	case <-stalled.arrived:
	case <-time.After(time.Minute):
		t.Fatal("no request reached the replica within a minute")
	}
	stalled.release()
	select {
	case err := <-stepped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("the publishing tick is still running a minute after the replica was released")
	}
	back := replica.NewServer()
	stalled.serve.Store(back)
	start := time.Now()
	eventually(t, "the replica, answering again, holds the release", func() bool { return holds(back.Store(), d.plat.Store) })
	t.Logf("converged %v after the replica answered again", time.Since(start).Round(time.Millisecond))
}

// TestRefusedPushWaitsForTheNextRelease: a replica that refuses the
// daemon's token gets at most one refused POST /push per release, and
// none over an idle stretch of three retryAfter: a permanent failure is
// not retried, it waits for the next release.
func TestRefusedPushWaitsForTheNextRelease(t *testing.T) {
	rep := replica.NewServer(replica.WithAuthToken("tok"))
	var posts atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			posts.Add(1)
		}
		rep.Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()
	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{srv.URL}
	cfg.PushToken = "wrong"
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stepUntilVersions(t, d, 2)
	releases := int32(countVersions(d.plat.Store))
	eventually(t, "a push reaches the replica", func() bool { return posts.Load() > 0 })
	time.Sleep(3*retryAfter + retryAfter/2)
	if n := posts.Load(); n > releases {
		t.Fatalf("%d refused POST /push for %d releases and %v idle, want at most one per release", n, releases, 3*retryAfter+retryAfter/2)
	} else {
		t.Logf("%d refused POST /push for %d releases", n, releases)
	}
	if got := rep.Store().Watermarks(); len(got) != 0 {
		t.Fatalf("the replica applied %v from a publisher with the wrong token", got)
	}
}

// TestReplicaHungThroughStartupConvergesWithNoRelease: a replica hung
// through New's startup sync, which answers again while no pipeline
// publishes, is caught up by its converger within a few retryAfter.
// Those rounds continue no tick's trace: each starts a trace of its own.
func TestReplicaHungThroughStartupConvergesWithNoRelease(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepUntilVersions(t, d, 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	stalled := newStalledReplica(t)
	cfg.PushEndpoints = []string{stalled.url}
	cfg.DrainTimeout = 200 * time.Millisecond
	cfg.Tracer = trace.New(trace.Config{Service: "daemon", RingSize: 1 << 10})
	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	select {
	case <-stalled.arrived:
	default:
		t.Fatal("the startup sync sent the replica nothing")
	}
	back := replica.NewServer()
	stalled.serve.Store(back)
	stalled.release()
	start := time.Now()
	for !holds(back.Store(), d2.plat.Store) {
		if time.Since(start) > 4*retryAfter {
			t.Fatalf("the replica, answering again, holds %v, not %v, %v later", back.Store().Watermarks(), d2.plat.Store.Watermarks(), 4*retryAfter)
		}
		time.Sleep(time.Millisecond)
	}
	t.Logf("converged %v after the replica answered again", time.Since(start).Round(time.Millisecond))
	// Close waits for the converger, so its daemon.push spans have ended.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, sp := range cfg.Tracer.Snapshot().Recent {
		if sp.Name != "daemon.push" {
			continue
		}
		rounds++
		if sp.TraceID == (trace.TraceID{}).String() || sp.ParentID != "" {
			t.Errorf("a start-up round's daemon.push span is in trace %s under parent %q, want a trace of its own", sp.TraceID, sp.ParentID)
		}
	}
	if rounds == 0 {
		t.Error("no daemon.push span was recorded")
	}
}
