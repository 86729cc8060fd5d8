package main

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/metrics"
	"repro/internal/replica"
)

// scrapeMetrics fetches url's /metrics, strict-parses the exposition,
// and archives the raw payload under the artifact dir (CI uploads it;
// locally it lands in the test's temp dir).
func scrapeMetrics(t *testing.T, url, artifact string) metrics.Families {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/metrics: HTTP %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("GET %s/metrics Content-Type %q, want the 0.0.4 text exposition", url, ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dir := os.Getenv("SAGE_METRICS_ARTIFACT_DIR")
	if dir == "" {
		dir = t.TempDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, artifact), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.Parse(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatalf("GET %s/metrics is not valid exposition: %v\npayload:\n%s", url, err, raw)
	}
	return fams
}

// mustValue reads one sample or fails with the family listing.
func mustValue(t *testing.T, fams metrics.Families, name string, labels map[string]string) float64 {
	t.Helper()
	v, ok := fams.Value(name, labels)
	if !ok {
		var have []string
		for n := range fams {
			have = append(have, n)
		}
		t.Fatalf("metric %s%v missing; families present: %s", name, labels, strings.Join(have, ", "))
	}
	return v
}

// TestDaemonMetricsE2E is the observability acceptance test: run the
// real sagectl daemon binary against live replicas, kill and relaunch
// it, and require that GET /metrics on both the daemon and a replica
// (1) is valid Prometheus text exposition under the in-repo strict
// parser, and (2) agrees exactly with the JSON status endpoints —
// ledger ε spend, store versions, applied-version watermarks, push lag.
func TestDaemonMetricsE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a child binary; skipped in -short")
	}
	bin := buildSagectl(t)
	walDir := filepath.Join(t.TempDir(), "wal")

	tok := "metrics-secret"
	rep := replica.NewServer(replica.WithAuthToken(tok))
	srv := httptest.NewServer(rep.Handler())
	defer srv.Close()

	// Phase 1: make progress (publishes, pushes, ticks), then kill hard
	// so the relaunch exercises the recovery path the metrics report on.
	d1 := startDaemon(t, bin, walDir,
		"-tick", "30ms", "-push", srv.URL, "-push-token", tok)
	deadline := time.Now().Add(120 * time.Second)
	var before daemon.Status
	for {
		var err error
		before, err = d1.status(t)
		if err == nil && before.Published >= 2 && before.Ticks >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon made no progress before deadline; output:\n%s", d1.out.dump())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A live scrape must already be valid and in step with the loop.
	live := scrapeMetrics(t, "http://"+d1.addr, "daemon-live.prom")
	if v := mustValue(t, live, "sage_daemon_ticks", nil); v < 5 {
		t.Fatalf("sage_daemon_ticks = %v on a daemon that reported >=5 ticks", v)
	}
	// Every tick has exactly one outcome. The loop runs on under the
	// scrape, but families are exposed in sorted order, so ticks and
	// train_iterations are read after the outcome counters they bound
	// from above; the status taken before the scrape bounds them from
	// below (its newest tick may still be training).
	runs := mustValue(t, live, "sage_daemon_accepted_runs", nil) +
		mustValue(t, live, "sage_daemon_rejected_runs", nil) +
		mustValue(t, live, "sage_daemon_retried_runs", nil)
	outcomes := runs + mustValue(t, live, "sage_daemon_blocked_ticks", nil)
	if ticks := mustValue(t, live, "sage_daemon_ticks", nil); outcomes > ticks || outcomes < float64(before.Ticks-1) {
		t.Fatalf("%v tick outcomes (%v training runs) for %d..%v ticks; output:\n%s", outcomes, runs, before.Ticks, ticks, d1.out.dump())
	}
	if iters := mustValue(t, live, "sage_daemon_train_iterations", nil); iters < runs {
		t.Fatalf("sage_daemon_train_iterations = %v below the %v training runs they made up", iters, runs)
	}
	if err := d1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = d1.cmd.Process.Wait()

	// Phase 2: relaunch frozen (1h tick): everything scraped below is
	// pure recovered state, directly comparable to /daemon/status.
	d2 := startDaemon(t, bin, walDir,
		"-tick", "1h", "-push", srv.URL, "-push-token", tok)
	st, err := d2.status(t)
	if err != nil {
		t.Fatal(err)
	}
	fams := scrapeMetrics(t, "http://"+d2.addr, "daemon-recovered.prom")

	if got := mustValue(t, fams, "sage_daemon_ledger_eps_spent", nil); got != st.StreamLossEps {
		t.Fatalf("sage_daemon_ledger_eps_spent = %v, /daemon/status stream_loss_eps = %v", got, st.StreamLossEps)
	}
	if spent, rem := mustValue(t, fams, "sage_daemon_ledger_eps_spent", nil),
		mustValue(t, fams, "sage_daemon_ledger_eps_remaining", nil); rem != 0 && math.Abs(spent+rem-1.0) > 1e-9 {
		t.Fatalf("spent %v + remaining %v != global ε 1.0", spent, rem)
	}
	// Per-shard spend: the stream-wide loss is the max over blocks
	// (Theorem 4.2), so the max over the 3 shard gauges must equal it.
	shardMax := 0.0
	for _, k := range []string{"0", "1", "2"} {
		v := mustValue(t, fams, "sage_daemon_ledger_shard_eps_spent", map[string]string{"shard": k})
		shardMax = max(shardMax, v)
	}
	if shardMax != st.StreamLossEps {
		t.Fatalf("max shard eps spent %v, stream loss %v", shardMax, st.StreamLossEps)
	}

	wantVersions := 0
	for _, n := range st.StoreVersions {
		wantVersions += n
	}
	if got := mustValue(t, fams, "sage_daemon_store_versions", nil); got != float64(wantVersions) {
		t.Fatalf("sage_daemon_store_versions = %v, /daemon/status sums to %d", got, wantVersions)
	}
	if got := mustValue(t, fams, "sage_daemon_retired_blocks", nil); got != float64(st.RetiredBlocks) {
		t.Fatalf("sage_daemon_retired_blocks = %v, /daemon/status says %d", got, st.RetiredBlocks)
	}
	// Startup self-healing converged the replica, so its lag gauge and
	// the watermark the replica itself reports must both line up.
	if got := mustValue(t, fams, "sage_daemon_replica_lag_versions", map[string]string{"endpoint": srv.URL}); got != 0 {
		t.Fatalf("sage_daemon_replica_lag_versions = %v after startup heal", got)
	}
	// The recovered WAL's record counts flow through the wal-tier
	// families registered by durable.Open.
	if got := mustValue(t, fams, "sage_wal_records", map[string]string{"log": "store.wal"}); got < float64(len(st.StoreVersions)) {
		t.Fatalf("sage_wal_records{log=store.wal} = %v with %d released names", got, len(st.StoreVersions))
	}

	// Replica scrape: the applied-version sum must equal what
	// /replica/status reports — both are views over the same store.
	rfams := scrapeMetrics(t, srv.URL, "replica.prom")
	wm := fetchWatermarks(t, srv.URL)
	sum := 0
	for _, n := range wm {
		sum += n
	}
	if got := mustValue(t, rfams, "sage_replica_applied_versions_total", nil); got != float64(sum) {
		t.Fatalf("sage_replica_applied_versions_total = %v, /replica/status sums to %d", got, sum)
	}
	if got := mustValue(t, rfams, "sage_replica_models", nil); got != float64(len(wm)) {
		t.Fatalf("sage_replica_models = %v, /replica/status lists %d", got, len(wm))
	}
	applied := mustValue(t, rfams, "sage_replica_pushes_total", map[string]string{"outcome": "applied"})
	if applied < float64(sum) {
		t.Fatalf("sage_replica_pushes_total{outcome=applied} = %v < %d applied versions", applied, sum)
	}
}
