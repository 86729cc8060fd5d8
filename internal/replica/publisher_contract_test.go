package replica

import (
	"context"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faulty"
	"repro/internal/ml"
	"repro/internal/store"
)

// rigReplica is one in-process replica behind a URL that outlives it:
// the server can be swapped for an empty one (a restart without a disk),
// faults are injected in front of it, and every request that arrives at
// the URL is counted by kind, faulted or not. While wipeAfterStatus is
// set, the next status reply is followed by a restart before the
// publisher reads it.
type rigReplica struct {
	url             string
	srv             atomic.Pointer[Server]
	inj             *faulty.Injector
	posts           atomic.Int32 // POST /push
	gets            atomic.Int32 // GET /replica/status
	wipeAfterStatus atomic.Bool
}

func newRigReplica(t *testing.T, seed uint64) *rigReplica {
	t.Helper()
	r := &rigReplica{inj: faulty.New(seed)}
	r.srv.Store(NewServer())
	inner := r.inj.Handler(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		r.srv.Load().Handler().ServeHTTP(w, req)
	}))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.Method + " " + req.URL.Path {
		case "POST /push":
			r.posts.Add(1)
		case "GET /replica/status":
			r.gets.Add(1)
			// The reply is flushed once the handler returns, after this.
			defer func() {
				if r.wipeAfterStatus.Swap(false) {
					r.restart()
				}
			}()
		}
		inner.ServeHTTP(w, req)
	}))
	t.Cleanup(srv.Close)
	// Parked handlers are released before the server closes (cleanups
	// run last-in, first-out).
	t.Cleanup(r.inj.Clear)
	r.url = srv.URL
	return r
}

// restart swaps the replica for an empty one behind the same URL.
func (r *rigReplica) restart() { r.srv.Store(NewServer()) }

// traffic reports and resets the requests seen since the last call.
func (r *rigReplica) traffic() (posts, gets int) {
	return int(r.posts.Swap(0)), int(r.gets.Swap(0))
}

// nextBundle is the next release of name: version v carries quality v.
func nextBundle(src *store.Store, name string) store.Bundle {
	spec, _ := store.Serialize(&ml.LinearModel{Weights: []float64{1}, Bias: 0})
	b := store.Bundle{Name: name, Model: spec}
	b.Provenance.Quality = float64(src.VersionCount(name) + 1)
	return b
}

// release publishes the next version of name straight into the source
// store, the way a release made while no publisher was up gets there.
func release(src *store.Store, name string) int { return src.Publish(nextBundle(src, name)) }

// requireConverged fails unless the replica holds exactly the source's
// releases and the publisher's cache says what the replica reports.
func requireConverged(t *testing.T, pub *Publisher, src *store.Store, r *rigReplica) {
	t.Helper()
	have := r.srv.Load().Store().Watermarks()
	for name, n := range src.Watermarks() {
		if have[name] != n {
			t.Errorf("%s holds %d version(s) of %s, the source %d", r.url, have[name], name, n)
		}
		if wm := pub.Watermark(r.url, name); wm != have[name] {
			t.Errorf("Watermark(%s, %s) = %d, the replica reports %d", r.url, name, wm, have[name])
		}
	}
}

// blipSecondPush makes the replica answer its next-but-one POST /push
// with a 500, once; every other request passes.
func (r *rigReplica) blipSecondPush() {
	r.inj.Set(
		faulty.Rule{Path: "/push", First: 1},
		faulty.Rule{Path: "/push", Mode: faulty.Error, First: 1},
	)
}

func urlsOf(reps []*rigReplica) []string {
	urls := make([]string, len(reps))
	for i, r := range reps {
		urls[i] = r.url
	}
	return urls
}

// TestPublisherContract pins what a publisher sends and which replicas
// it leaves behind. seeded is how many releases of "a" and of "b" the
// source holds before the publisher is built over it; prefix[i] how many
// of each replica i already applied.
func TestPublisherContract(t *testing.T) {
	ctx := context.Background()
	down := faulty.Rule{Mode: faulty.Error}
	for _, c := range []struct {
		name   string
		seeded int
		prefix []int
		drive  func(t *testing.T, src *store.Store, pub *Publisher, reps []*rigReplica)
		// wantBehind[i] says replica i lacks releases once drive returns;
		// a replica that is not behind must have converged.
		wantBehind []bool
	}{
		{
			// (i) The benchmark fleets' traffic: over an empty store and
			// never refused, a release is one reconcile per replica — one
			// GET and one POST — and nothing else, the first and every
			// later one.
			name: "empty-store", prefix: []int{0, 0},
			drive: func(t *testing.T, src *store.Store, pub *Publisher, reps []*rigReplica) {
				for range 3 {
					if _, err := pub.Publish(nextBundle(src, "a")); err != nil {
						t.Fatal(err)
					}
					for i, r := range reps {
						if posts, gets := r.traffic(); posts != 1 || gets != 1 {
							t.Fatalf("replica %d saw %d POST /push and %d GET /replica/status for one Publish, want 1 and 1", i, posts, gets)
						}
					}
				}
			},
			wantBehind: []bool{false, false},
		},
		{
			// (ii) A restart: the source holds releases the publisher never
			// pushed. Sync reconciles a replica holding a prefix and an
			// empty one; the one unreachable during Sync gets everything it
			// missed with the next release's reconcile.
			name: "restart", seeded: 3, prefix: []int{1, 0, 0},
			drive: func(t *testing.T, src *store.Store, pub *Publisher, reps []*rigReplica) {
				reps[2].inj.Set(down)
				err := pub.Sync(ctx)
				if err == nil || !strings.Contains(err.Error(), reps[2].url) {
					t.Fatalf("Sync with replica 2 down = %v, want its error", err)
				}
				requireConverged(t, pub, src, reps[0])
				requireConverged(t, pub, src, reps[1])
				reps[2].inj.Clear()
				for _, r := range reps {
					r.traffic()
				}
				if _, err := pub.Publish(nextBundle(src, "a")); err != nil {
					t.Fatal(err)
				}
				for i, want := range []int{1, 1, 7} { // replica 2: v1–v4 of a, v1–v3 of b
					if posts, gets := reps[i].traffic(); posts != want || gets != 1 {
						t.Fatalf("replica %d saw %d POST and %d GET for one release, want %d and 1", i, posts, gets, want)
					}
				}
				if _, err := pub.Publish(nextBundle(src, "b")); err != nil {
					t.Fatal(err)
				}
				for i, r := range reps {
					if posts, gets := r.traffic(); posts != 1 || gets != 1 {
						t.Fatalf("reconciled replica %d saw %d POST and %d GET for one release, want 1 and 1", i, posts, gets)
					}
				}
			},
			wantBehind: []bool{false, false, false},
		},
		{
			// (iii) Sync with a replica that accepts connections and never
			// answers, listed first: it costs the context's deadline and
			// nothing else.
			name: "sync-hung", seeded: 2, prefix: []int{0, 0, 1},
			drive: func(t *testing.T, src *store.Store, pub *Publisher, reps []*rigReplica) {
				reps[0].inj.Set(faulty.Rule{Mode: faulty.Hang})
				dctx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
				defer cancel()
				start := time.Now()
				err := pub.Sync(dctx)
				if elapsed := time.Since(start); elapsed > 3*time.Second {
					t.Fatalf("Sync took %v past a 300ms deadline", elapsed)
				}
				if !errors.Is(err, context.DeadlineExceeded) || !strings.Contains(err.Error(), reps[0].url) {
					t.Fatalf("Sync = %v, want the hung replica's deadline error", err)
				}
				for _, r := range reps[1:] {
					if strings.Contains(err.Error(), r.url) {
						t.Fatalf("Sync blames a healthy replica: %v", err)
					}
				}
			},
			wantBehind: []bool{true, false, false},
		},
		{
			// (iv) A delivery that fails leaves its replica behind, and what
			// it missed while it was away — other names too — arrives with
			// the next delivery that gets through.
			name: "failed-push", prefix: []int{0, 0},
			drive: func(t *testing.T, src *store.Store, pub *Publisher, reps []*rigReplica) {
				reps[1].inj.Set(down)
				_, err := pub.Publish(nextBundle(src, "a"))
				if err == nil || !strings.Contains(err.Error(), reps[1].url) || strings.Contains(err.Error(), reps[0].url) {
					t.Fatalf("publish with replica 1 down = %v, want its error alone", err)
				}
				requireConverged(t, pub, src, reps[0])
				_, _ = pub.Publish(nextBundle(src, "b"))
				reps[1].inj.Clear()
				if _, err := pub.Publish(nextBundle(src, "a")); err != nil {
					t.Fatal(err)
				}
			},
			wantBehind: []bool{false, false},
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := store.New()
			for range c.seeded {
				release(src, "a")
				release(src, "b")
			}
			reps := make([]*rigReplica, len(c.prefix))
			for i, n := range c.prefix {
				reps[i] = newRigReplica(t, uint64(i))
				for v := 1; v <= n; v++ {
					for _, name := range []string{"a", "b"} {
						b, _ := src.Get(name, v)
						if _, err := reps[i].srv.Load().Store().Apply(*b); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			pub := NewPublisher(src, urlsOf(reps), WithRetry(1, time.Millisecond))
			c.drive(t, src, pub, reps)
			for i, r := range reps {
				if !c.wantBehind[i] {
					requireConverged(t, pub, src, r)
				} else if maps.Equal(r.srv.Load().Store().Watermarks(), src.Watermarks()) {
					t.Errorf("replica %d holds every release, want it behind", i)
				}
			}
		})
	}
}

// TestReplicaRestartMidRunConverges: a replica that comes back empty
// while the publisher runs is not where the publisher thinks it is. The
// status read of the next release's reconcile says so, so the name that
// got no new release converges too, and the cache follows the replica
// down instead of reporting it current.
func TestReplicaRestartMidRunConverges(t *testing.T) {
	src := store.New()
	rep := newRigReplica(t, 1)
	pub := NewPublisher(src, []string{rep.url}, WithRetry(1, time.Millisecond))
	for range 3 {
		for _, name := range []string{"a", "b"} {
			if _, err := pub.Publish(nextBundle(src, name)); err != nil {
				t.Fatal(err)
			}
		}
	}
	requireConverged(t, pub, src, rep)

	rep.restart()
	for range 2 {
		if _, err := pub.Publish(nextBundle(src, "a")); err != nil {
			t.Fatal(err)
		}
	}
	requireConverged(t, pub, src, rep)
	for name, n := range map[string]int{"a": 5, "b": 3} {
		for v := 1; v <= n; v++ {
			if b, ok := rep.srv.Load().Store().Get(name, v); !ok || b.Provenance.Quality != float64(v) {
				t.Errorf("%s@v%d missing or wrong on the restarted replica", name, v)
			}
		}
	}
}

// TestSyncHealsRestartedReplica: Sync asks every replica, whatever the
// cache says, so one that restarted empty without the publisher having
// heard from it since — the cache still says current — is backfilled
// from what it reports.
func TestSyncHealsRestartedReplica(t *testing.T) {
	ctx := context.Background()
	src := store.New()
	rep := newRigReplica(t, 1)
	pub := NewPublisher(src, []string{rep.url}, WithRetry(1, time.Millisecond))
	for range 2 {
		if _, err := pub.Publish(nextBundle(src, "a")); err != nil {
			t.Fatal(err)
		}
	}
	rep.restart()
	if wm := pub.Watermark(rep.url, "a"); wm != 2 {
		t.Fatalf("precondition: cached watermark %d, want 2", wm)
	}
	if err := pub.Sync(ctx); err != nil {
		t.Fatalf("sync after restart: %v", err)
	}
	requireConverged(t, pub, src, rep)
}

// TestHealRidesOutABlipDuringGapCatchUp: a replica that holds v1 and v2
// and loses them between its status reply and the push of v3 answers
// with a gap, and the catch-up after it meets one failed POST /push.
// With retries left that costs one more reconcile, not the delivery.
func TestHealRidesOutABlipDuringGapCatchUp(t *testing.T) {
	src := store.New()
	rep := newRigReplica(t, 1)
	pub := NewPublisher(src, []string{rep.url}, WithRetry(3, time.Millisecond))
	for range 2 {
		if _, err := pub.Publish(nextBundle(src, "m")); err != nil {
			t.Fatal(err)
		}
	}
	rep.traffic()
	rep.wipeAfterStatus.Store(true)
	rep.blipSecondPush()
	if _, err := pub.Publish(nextBundle(src, "m")); err != nil {
		t.Fatalf("delivery with one blip and retries left: %v", err)
	}
	requireConverged(t, pub, src, rep)
	// A reconcile: v3 (gap); a reconcile: v1 (the blip); a reconcile:
	// v1, v2, v3.
	if posts, gets := rep.traffic(); posts != 5 || gets != 3 {
		t.Errorf("%d POST /push and %d GET /replica/status, want 5 and 3", posts, gets)
	}
}

// TestHealRidesOutABlipDuringSync: the same blip in the middle of a
// Sync's catch-up is retried as a second reconcile.
func TestHealRidesOutABlipDuringSync(t *testing.T) {
	src := store.New()
	for range 3 {
		release(src, "m")
	}
	rep := newRigReplica(t, 1)
	pub := NewPublisher(src, []string{rep.url}, WithRetry(3, time.Millisecond))
	rep.blipSecondPush()
	if err := pub.Sync(context.Background()); err != nil {
		t.Fatalf("sync with one blip and retries left: %v", err)
	}
	requireConverged(t, pub, src, rep)
	// A reconcile: v1, v2 (the blip); a reconcile: v2, v3.
	if posts, gets := rep.traffic(); posts != 4 || gets != 2 {
		t.Errorf("%d POST /push and %d GET /replica/status, want 4 and 2", posts, gets)
	}
}

// TestSelfHealingConcurrentPushes: racing converges of one endpoint
// reconcile it concurrently without corrupting the bookkeeping (run with
// -race); the duplicates they send are acked as no-ops.
func TestSelfHealingConcurrentPushes(t *testing.T) {
	src := store.New()
	release(src, "a")
	release(src, "a")
	rep := newRigReplica(t, 1)
	pub := NewPublisher(src, []string{rep.url})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pub.Converge(context.Background(), rep.url); err != nil {
				t.Errorf("concurrent converge: %v", err)
			}
		}()
	}
	wg.Wait()
	requireConverged(t, pub, src, rep)
}

// TestPublisherBoundsReplies: a replica that answers with an endless
// JSON string costs the publisher httpkit.StatusReplyBytes of reading
// and an error, not its heap — for a status reply and for a push ack
// alike.
func TestPublisherBoundsReplies(t *testing.T) {
	var ackOnly atomic.Bool // status replies are well formed, push acks endless
	endless := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if ackOnly.Load() && r.URL.Path == "/replica/status" {
			_, _ = w.Write([]byte(`{"watermarks":{}}`))
			return
		}
		_, _ = w.Write([]byte(`{"name":"`))
		chunk := []byte(strings.Repeat("a", 32<<10))
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer endless.Close()

	src := store.New()
	pub := NewPublisher(src, []string{endless.URL}, WithRetry(0, 0))
	spec, err := store.Serialize(&ml.LinearModel{Weights: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	src.Publish(store.Bundle{Name: "m", Model: spec})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, reply := range []string{"status reply", "push ack"} {
		ackOnly.Store(reply == "push ack")
		if err := pub.Sync(ctx); err == nil || !strings.Contains(err.Error(), "reply exceeds") {
			t.Errorf("Sync against an endless %s: %v, want the reply cap's error", reply, err)
		}
	}
}
