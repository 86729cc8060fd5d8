package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/replica"
)

// fastConfig is a daemon configuration scaled for tests: small blocks,
// a short window, loose SLAs the stream meets quickly, no fsync.
func fastConfig(dir string) Config {
	return Config{
		Dir:          dir,
		Global:       privacy.MustBudget(1.0, 1e-6),
		Tick:         time.Millisecond,
		RowsPerBlock: 6000,
		Pipelines:    2,
		SLATargets:   []float64{0.04, 0.042},
		FeatureEps:   0.02,
		MinWindow:    4,
		// Start the adaptive search at the cap: at this reduced scale
		// the SLAed accept test needs the full per-attempt ε to certify
		// the target, so the doubling ladder would only burn budget.
		Epsilon0:     0.5,
		EpsilonCap:   0.5,
		Seed:         5,
		CompactEvery: 5,
		NoSync:       true,
	}
}

// durableFields strips a Status down to the fields a restart must
// preserve.
func durableFields(st Status) Status {
	return Status{
		NextBlock:       st.NextBlock,
		Blocks:          st.Blocks,
		StreamLossEps:   st.StreamLossEps,
		StreamLossDelta: st.StreamLossDelta,
		StoreVersions:   st.StoreVersions,
	}
}

func TestDaemonLoopPublishesAndRestartResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(dir)
	cfg.MaxTicks = 8

	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.Ticks != 8 {
		t.Fatalf("ran %d ticks, want 8", st.Ticks)
	}
	if st.NextBlock != 8 || len(st.Blocks) != 8 {
		t.Fatalf("ingested %d blocks (next %d), want 8", len(st.Blocks), st.NextBlock)
	}
	if st.Published == 0 {
		t.Fatal("no releases published in 8 ticks — SLA targets unreachable?")
	}
	// Every block was charged the feature release.
	for _, b := range st.Blocks {
		if !b.Retired && b.LossEps < cfg.FeatureEps-1e-12 {
			t.Fatalf("block %d loss %v below feature charge", b.ID, b.LossEps)
		}
	}

	// Restart: the recovered daemon reports the identical durable
	// state before its first tick.
	d2, stats, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ledger.Records == 0 {
		t.Fatal("restart recovered an empty ledger log")
	}
	st2 := d2.Status()
	if !reflect.DeepEqual(durableFields(st2), durableFields(st)) {
		t.Fatalf("restart diverges:\n got %+v\nwant %+v", durableFields(st2), durableFields(st))
	}
	// The raw data came back too: training can continue immediately,
	// and the stream resumes at block 8 rather than 0.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d2.Run(ctx) }()
	deadline := time.After(10 * time.Second)
	for {
		cur := d2.Status()
		if cur.NextBlock >= 10 && cur.Published > 0 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("restarted daemon made no progress: %+v", d2.Status())
		case <-time.After(5 * time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	final := d2.Status()
	if final.StoreVersions["taxi-lr-0"] < st.StoreVersions["taxi-lr-0"] {
		t.Fatal("restart lost published versions")
	}
	for _, b := range final.Blocks[:8] {
		prev := st.Blocks[int(b.ID)]
		if b.LossEps+1e-12 < prev.LossEps && !b.Retired {
			t.Fatalf("block %d loss shrank across restart: %v -> %v", b.ID, prev.LossEps, b.LossEps)
		}
	}
}

// TestDaemonCrashMidLoop simulates a hard kill: the daemon is abandoned
// without drain (no final sync/compact/close), and a fresh platform
// opened on the same WAL directory must equal the abandoned daemon's
// live state exactly.
func TestDaemonCrashMidLoop(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(dir)
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	// No Close — this is the crash. The OS file handles stay open in
	// this process, but the bytes are already in the files.
	want := durableFields(d.Status())

	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := durableFields(d2.Status()); !reflect.DeepEqual(got, want) {
		t.Fatalf("crash recovery diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestDaemonLifeIsCoreCountFree: what a daemon's life leaves behind must
// not know how many cores it ran on — the same 12 ticks on one core and
// on two end with the same releases, byte for byte, and the same ledger.
// Nothing under a tick fans out today; whatever does so next has this to
// pass.
func TestDaemonLifeIsCoreCountFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var releases [2][][]byte
	var ledger [2][]byte
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		cfg := fastConfig(t.TempDir())
		cfg.Retention = 3
		d, _, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 12; n++ {
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		}
		releases[i], ledger[i] = d.Platform().Store.SnapshotBundles(), d.Platform().AC.Snapshot()
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(releases[0]) == 0 {
		t.Fatal("no releases in 12 ticks: nothing trained, nothing compared")
	}
	if !reflect.DeepEqual(releases[0], releases[1]) {
		t.Errorf("%d releases on one core, %d on two, or their canonical bytes differ", len(releases[0]), len(releases[1]))
	}
	if !bytes.Equal(ledger[0], ledger[1]) {
		t.Error("ledger snapshots differ between one core and two")
	}
}

func TestDaemonRetentionRetiresAndDeletes(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(dir)
	cfg.Retention = 3
	cfg.MaxTicks = 7
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	// After 7 ticks with a 3-block window, blocks 0..3 are outside the
	// window and must be retired.
	if st.RetiredBlocks < 4 {
		t.Fatalf("retired %d blocks, want >= 4", st.RetiredBlocks)
	}
	for _, b := range st.Blocks {
		if b.ID < st.NextBlock-3 && !b.Retired {
			t.Fatalf("block %d outside retention window still active", b.ID)
		}
	}
	if d.db.Read(nil, []data.BlockID{0}).Len() != 0 {
		t.Fatal("retired block's raw data not deleted")
	}

	// A restarted daemon must not resurrect retired blocks' data.
	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.db.Read(nil, []data.BlockID{0}).Len() != 0 {
		t.Fatal("restart re-ingested a retention-deleted block")
	}
	if !d2.plat.AC.Retired(0) {
		t.Fatal("retirement not recovered")
	}
}

// TestDaemonPushesToReplicas runs the full loop against live replica
// servers (auth on) and requires convergence, including a publisher
// restart healing a wiped replica.
// TestRepeatedPushEndpointIsAnError: each push endpoint registers its
// own lag series, so a repeated or empty URL is refused by New before
// it opens the WAL directory, not a panic in the registry or a replica
// every push to fails.
func TestRepeatedPushEndpointIsAnError(t *testing.T) {
	for _, eps := range [][]string{{"http://a", "http://a"}, {"http://a", ""}} {
		cfg := fastConfig(filepath.Join(t.TempDir(), "wal"))
		cfg.PushEndpoints = eps
		if d, _, err := New(cfg); err == nil {
			d.Close()
			t.Errorf("New with push endpoints %q = nil error, want one", eps)
		}
		if _, err := os.Stat(cfg.Dir); !os.IsNotExist(err) {
			t.Errorf("push endpoints %q: WAL directory opened before the check (stat: %v)", eps, err)
		}
	}
}

// TestMalformedPushEndpointIsAnError: an endpoint no push can be built
// on — no scheme, another scheme, no host, a query or fragment that the
// push path would land in, or a trailing '/' that would double it — is
// refused by New before the WAL directory is opened, not accepted and
// then failed on every delivery.
func TestMalformedPushEndpointIsAnError(t *testing.T) {
	for _, ep := range []string{"10.0.0.7:8081", "ftp://10.0.0.7:8081", "http://", "http//127.0.0.1:1", "http://127.0.0.1:1?b=1", "http://127.0.0.1:1/#top", "http://h/", "http://h/a%20b/"} {
		cfg := fastConfig(filepath.Join(t.TempDir(), "wal"))
		cfg.PushEndpoints = []string{"http://127.0.0.1:1", ep}
		if d, _, err := New(cfg); err == nil {
			d.Close()
			t.Errorf("New with push endpoint %q = nil error, want one", ep)
		}
		if _, err := os.Stat(cfg.Dir); !os.IsNotExist(err) {
			t.Errorf("push endpoint %q: WAL directory opened before the check (stat: %v)", ep, err)
		}
	}
}

func TestDaemonPushesToReplicas(t *testing.T) {
	repA := replica.NewServer(replica.WithAuthToken("tok"))
	srvA := httptest.NewServer(repA.Handler())
	defer srvA.Close()
	repB := replica.NewServer(replica.WithAuthToken("tok"))
	srvB := httptest.NewServer(repB.Handler())
	defer srvB.Close()

	dir := t.TempDir()
	cfg := fastConfig(dir)
	cfg.MaxTicks = 8
	cfg.PushEndpoints = []string{srvA.URL, srvB.URL}
	cfg.PushToken = "tok"
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	versions := d.Platform().Store.Watermarks()
	if len(versions) == 0 {
		t.Fatal("nothing published")
	}
	for name, n := range versions {
		if repA.Store().VersionCount(name) != n || repB.Store().VersionCount(name) != n {
			t.Fatalf("replicas behind on %s: %d/%d vs %d",
				name, repA.Store().VersionCount(name), repB.Store().VersionCount(name), n)
		}
	}

	// Wipe replica B (simulates a replica restart with no disk), then
	// restart the daemon: startup heal must repopulate it with no
	// manual Sync.
	repB2 := replica.NewServer(replica.WithAuthToken("tok"))
	srvB2 := httptest.NewServer(repB2.Handler())
	defer srvB2.Close()
	cfg.PushEndpoints = []string{srvA.URL, srvB2.URL}
	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for name, n := range versions {
		if got := repB2.Store().VersionCount(name); got != n {
			t.Fatalf("startup heal left %s at %d, want %d", name, got, n)
		}
	}
}

// TestDaemonReplicaLagFollowsTheReplica: the watermark cache behind
// /daemon/status "replicas" and sage_daemon_replica_lag_versions is what
// the replica last said about itself, in both directions. A replica that
// restarts empty between two ticks is shown as lagging from the moment
// the publisher hears from it again — its status reply in the round the
// next release wakes — until the missing versions have landed: the round
// is a reconcile, which delivers every name, not only the released one.
func TestDaemonReplicaLagFollowsTheReplica(t *testing.T) {
	var (
		d         *Daemon
		current   atomic.Pointer[replica.Server]
		mu        sync.Mutex
		lagAtPush []float64 // the gauge as each POST /push arrived
	)
	current.Store(replica.NewServer())
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/push" {
			lag := replicaLag(t, d, "http://"+r.Host)
			mu.Lock()
			lagAtPush = append(lagAtPush, lag)
			mu.Unlock()
		}
		current.Load().Handler().ServeHTTP(w, r)
	}))
	defer srv.Close()

	cfg := fastConfig(t.TempDir())
	cfg.PushEndpoints = []string{srv.URL}
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// fastConfig's two pipelines release in turn, one every fourth tick.
	stepUntilVersions := func(n int) {
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
	// settle waits for the replica to hold every release and for the
	// gauge to read 0: the ack of the last push has been heard.
	settle := func(what string) {
		t.Helper()
		eventually(t, what, func() bool {
			return holds(current.Load().Store(), d.plat.Store) && replicaLag(t, d, srv.URL) == 0
		})
	}
	stepUntilVersions(4)
	if got := d.Status().StoreVersions; got["taxi-lr-0"] != 2 || got["taxi-lr-1"] != 2 {
		t.Fatalf("want two releases of each pipeline before the restart, got %v", got)
	}
	settle("lag 0 with the replica current")

	// Restart without a disk. Until the publisher hears from the replica
	// it cannot know.
	current.Store(replica.NewServer())
	mu.Lock()
	lagAtPush = nil
	mu.Unlock()

	// The next release, v3 of one pipeline, wakes a round. Its status
	// read reports nothing applied, which lowers the cache for both
	// names, so when v1 arrives the gauge reads all five versions the
	// replica lacks — not just the new one, as a cache that only ever
	// rises would have it — and each delivery lowers it by one.
	stepUntilVersions(5)
	settle("lag 0 after the reconcile")
	mu.Lock()
	seen := append([]float64(nil), lagAtPush...)
	mu.Unlock()
	if !reflect.DeepEqual(seen, []float64{5, 4, 3, 2, 1}) {
		t.Fatalf("lag gauge at the reconcile's pushes = %v, want [5 4 3 2 1]: three versions of one name and two of the other", seen)
	}

	// The release after that is a round with one push, and the daemon's
	// view is the replica's own.
	stepUntilVersions(6)
	settle("lag 0 after the next release")
	st := d.Status()
	have := current.Load().Store().Watermarks()
	if !reflect.DeepEqual(have, st.StoreVersions) || !reflect.DeepEqual(st.Replicas[srv.URL], have) {
		t.Fatalf("after the reconcile: replica holds %v, status says %v, source %v", have, st.Replicas[srv.URL], st.StoreVersions)
	}
}

// replicaLag scrapes sage_daemon_replica_lag_versions for one endpoint.
func replicaLag(t *testing.T, d *Daemon, endpoint string) float64 {
	t.Helper()
	return gaugeValue(t, d, "sage_daemon_replica_lag_versions", map[string]string{"endpoint": endpoint})
}

func TestDaemonStatusEndpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(dir)
	cfg.MaxTicks = 4
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/daemon/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon always has a publisher; one with no endpoints must not
	// show in the document.
	if bytes.Contains(raw, []byte(`"replicas"`)) {
		t.Fatalf("status of a daemon with no push endpoints mentions replicas: %s", raw)
	}
	var st Status
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Ticks != 4 || len(st.Blocks) != 4 {
		t.Fatalf("status over HTTP: %+v", st)
	}
	// The serving API is mounted on the same handler.
	resp2, err := srv.Client().Get(srv.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("/models returned %d", resp2.StatusCode)
	}
}

// TestDaemonShardedLedgerRestart runs the loop on a sharded ledger and
// checks restart equivalence plus layout stickiness: the restarted
// daemon follows the on-disk segment count even when configured
// differently.
func TestDaemonShardedLedgerRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(dir)
	cfg.LedgerShards = 3
	cfg.MaxTicks = 8

	d, stats, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.LedgerShards != 3 {
		t.Fatalf("fresh dir got %d shards, want 3", stats.LedgerShards)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if st.LedgerShards != 3 {
		t.Fatalf("status reports %d shards, want 3", st.LedgerShards)
	}
	if st.Published == 0 {
		t.Fatal("no releases published on sharded ledger")
	}

	cfg2 := cfg
	cfg2.LedgerShards = 8 // must be ignored: on-disk layout wins
	d2, stats2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.LedgerShards != 3 {
		t.Fatalf("restart re-striped to %d shards", stats2.LedgerShards)
	}
	st2 := d2.Status()
	if !reflect.DeepEqual(durableFields(st2), durableFields(st)) {
		t.Fatalf("sharded restart diverges:\n got %+v\nwant %+v", durableFields(st2), durableFields(st))
	}
}

// TestDaemonCompactBytesThreshold pins the size trigger: with a tiny
// byte threshold and an effectively-disabled tick cadence, the logs are
// still compacted — and state survives.
func TestDaemonCompactBytesThreshold(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig(dir)
	cfg.LedgerShards = 2
	cfg.CompactEvery = 1 << 30 // cadence never fires
	cfg.CompactBytes = 512     // size trigger fires all the time
	cfg.MaxTicks = 12

	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	// Every log was recently compacted down to snapshot+suffix; with 12
	// ticks of traffic and a 512B threshold, an uncompacted ledger would
	// be far larger than snapshot size. Allow suffix slack.
	if st.WALLedgerBytes > 16<<10 {
		t.Fatalf("ledger logs not size-compacted: %dB", st.WALLedgerBytes)
	}

	// State survives a restart after size-triggered compactions.
	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st2 := d2.Status()
	if !reflect.DeepEqual(durableFields(st2), durableFields(st)) {
		t.Fatalf("restart after size-compaction diverges:\n got %+v\nwant %+v", durableFields(st2), durableFields(st))
	}
}

// TestDaemonTickOutcomesPartitionTicks: on a run with no training error
// every tick has exactly one outcome — a run that was ACCEPTed, REJECTed
// or ended in RETRY, or a tick nobody could afford — and /metrics says
// the same as /daemon/status.
func TestDaemonTickOutcomesPartitionTicks(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	cfg.MaxTicks = 14
	cfg.Logf = func(format string, args ...any) {
		if strings.Contains(format, ": pipeline ") || strings.Contains(format, ": serialize ") {
			t.Errorf("training error logged: "+format, args...)
		}
	}
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := d.Status()
	if got := st.Accepted + st.Rejected + st.Retried + st.Blocked; got != st.Ticks {
		t.Fatalf("ticks %d != accepted %d + rejected %d + retried %d + blocked %d",
			st.Ticks, st.Accepted, st.Rejected, st.Retried, st.Blocked)
	}
	if runs := st.Accepted + st.Rejected + st.Retried; st.TrainIterations < runs {
		t.Fatalf("train_iterations %d below the %d training runs they made up", st.TrainIterations, runs)
	}
	// The first tick trains on one block, which cannot certify the
	// target: the search runs out of window and ends in RETRY.
	if st.Retried == 0 || st.Accepted == 0 || st.Blocked == 0 {
		t.Fatalf("want every steady-state outcome in 14 ticks, got %+v", st)
	}
	for name, want := range map[string]int{
		"sage_daemon_retried_runs":     st.Retried,
		"sage_daemon_train_iterations": st.TrainIterations,
	} {
		if got := gaugeValue(t, d, name, nil); int(got) != want {
			t.Errorf("%s = %v, status says %d", name, got, want)
		}
	}
}

// TestTrainingSeedsNeverRepeatAcrossLives: two lives on one directory
// never seed two training runs alike. The second life's tick count
// starts over at 0; the seed must not, or its tick k would redraw the
// first life's split and DP noise of tick k on another window.
func TestTrainingSeedsNeverRepeatAcrossLives(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	const ticksPerLife = 6
	seen := make(map[uint64]string)
	for life := range 2 {
		d, _, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for range ticksPerLife {
			next := tick{n: d.ticks, block: d.nextBlock}
			for idx := range cfg.Pipelines {
				seed := next.trainSeed(cfg.Seed, idx)
				here := fmt.Sprintf("life %d tick %d (block %d) pipeline %d", life, next.n, next.block, idx)
				if prev, ok := seen[seed]; ok {
					t.Fatalf("%s reuses the training seed of %s", here, prev)
				}
				seen[seed] = here
			}
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonLedgerFailureMidTrainStopsTheLoop: when the ledger can no
// longer journal a training run's budget request, the train phase fails
// — Run returns the journal's error in that tick — instead of reading
// it as "wait for new data", counting a blocked tick and dying one tick
// later in ingest.
func TestDaemonLedgerFailureMidTrainStopsTheLoop(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	cfg.MaxTicks = 14
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("journal: disk on fire")
	requests := 0
	d.plat.AC.SetShardJournal(func(_ int, rec core.LedgerRecord) (func() error, error) {
		if rec.Op == core.LedgerRequest {
			if requests++; requests == 2 {
				return nil, boom
			}
		}
		return nil, nil
	})
	err = d.Run(context.Background())
	if !errors.Is(err, boom) || !errors.Is(err, adaptive.ErrLedger) {
		t.Fatalf("Run = %v, want the journal's error under adaptive.ErrLedger", err)
	}
	// Every tick before the failing one had its outcome; the failing one
	// has none — in particular it is not "blocked".
	st := d.Status()
	if got := st.Accepted + st.Rejected + st.Retried + st.Blocked; got != st.Ticks-1 || st.Ticks == cfg.MaxTicks {
		t.Fatalf("stopped after %d ticks with %d outcomes (accepted %d, rejected %d, retried %d, blocked %d): want ticks-1, mid-life",
			st.Ticks, got, st.Accepted, st.Rejected, st.Retried, st.Blocked)
	}
}
