package daemon

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/metrics"
)

// walGroundTruth opens cfg.Dir as bare write-ahead logs — no daemon, no
// recovery logic beyond replay — and returns what they hold, shaped as
// the durable fields of a Status. It is the kill/relaunch e2e's oracle
// (cmd/sagectl TestDaemonKillRestart) without a child process.
func walGroundTruth(t *testing.T, cfg Config) Status {
	t.Helper()
	plat, _, err := durable.Open(cfg.Dir, core.Policy{Global: cfg.Global}, durable.Options{NoSync: true})
	if err != nil {
		t.Fatalf("opening the abandoned directory: %v", err)
	}
	defer plat.Close()
	st := Status{Blocks: LedgerStatus(plat.AC), StoreVersions: plat.Store.Watermarks()}
	loss := plat.AC.StreamLoss()
	st.StreamLossEps, st.StreamLossDelta = loss.Epsilon, loss.Delta
	if n := len(st.Blocks); n > 0 {
		st.NextBlock = st.Blocks[n-1].ID + 1
	}
	return st
}

// TestDaemonKillPointMatrix dies at every phase boundary: run k whole
// ticks, then only the first 0…4 phases of the next, and abandon the
// daemon without Close. A daemon started on the directory must report
// exactly what the write-ahead logs hold — recovery adds nothing,
// repairs nothing — and every block the logs know carries its admission
// charge, and the restarted daemon's two logs agree block by block
// (auditBlockComposition). The ticks are chosen so the interrupted one retires blocks
// (Retention 3, from tick 3 on), publishes, and compacts (tick 4).
func TestDaemonKillPointMatrix(t *testing.T) {
	for _, k := range []int{0, 2, 4, 6} {
		for cut := 0; cut <= len(phases); cut++ {
			t.Run(fmt.Sprintf("ticks=%d/phases=%d", k, cut), func(t *testing.T) {
				cfg := fastConfig(t.TempDir())
				cfg.LedgerShards = 3
				cfg.Retention = 3
				d, _, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < k; i++ {
					if err := d.step(); err != nil {
						t.Fatal(err)
					}
				}
				next := tick{n: k, block: data.BlockID(k)}
				for _, ph := range phases[:cut] {
					if err := ph.run(d, next); err != nil {
						t.Fatal(err)
					}
				}
				// No Close: this is the kill.

				want := walGroundTruth(t, cfg)
				if wantBlocks := k + min(cut, 1); len(want.Blocks) != wantBlocks {
					t.Fatalf("logs hold %d blocks, want %d", len(want.Blocks), wantBlocks)
				}
				for _, b := range want.Blocks {
					if b.LossEps < cfg.FeatureEps-1e-12 || b.Queries == 0 {
						t.Fatalf("block %d is in the logs without its admission charge: %+v", b.ID, b)
					}
				}
				d2, _, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer d2.Close()
				if got := durableFields(d2.Status()); !reflect.DeepEqual(got, want) {
					t.Fatalf("restarted daemon differs from its write-ahead logs:\n got %+v\nwant %+v", got, want)
				}
				auditBlockComposition(t, d2)
			})
		}
	}
}

// gaugeValue scrapes one series of d's registry through the text
// exposition. Problems are reported with t.Error, so it may be called
// off the test's goroutine.
func gaugeValue(t *testing.T, d *Daemon, name string, labels map[string]string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Metrics().TextExpose(&buf); err != nil {
		t.Error(err)
	}
	fams, err := metrics.Parse(&buf)
	if err != nil {
		t.Error(err)
	}
	v, ok := fams.Value(name, labels)
	if !ok {
		t.Errorf("%s%v missing from the scrape", name, labels)
	}
	return v
}

func retiredGauge(t *testing.T, d *Daemon) int {
	t.Helper()
	return int(gaugeValue(t, d, "sage_daemon_retired_blocks", nil))
}

// TestRetiredBlocksSurviveCompactedRestart: the retired-block count is
// read off the ledger, so the metric and the status field agree with
// each other and across a restart whose log starts with a compaction
// snapshot — where the retention hook does not re-fire on replay, so
// counting hook calls would come up short.
func TestRetiredBlocksSurviveCompactedRestart(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	cfg.Retention = 3
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	want := d.Status().RetiredBlocks
	if want != 4 || retiredGauge(t, d) != want {
		t.Fatalf("7 ticks at retention 3: status says %d retired, metric %d, want 4", want, retiredGauge(t, d))
	}
	// Close compacts: blocks 0..3 are now retired in a snapshot record,
	// not by retire ops a replay would re-execute.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Status().RetiredBlocks; got != want || retiredGauge(t, d2) != want {
		t.Fatalf("after a compacted restart: status says %d retired, metric %d, want %d", got, retiredGauge(t, d2), want)
	}
	// One more tick retires one more block; both views move together.
	if err := d2.step(); err != nil {
		t.Fatal(err)
	}
	if got := d2.Status().RetiredBlocks; got != want+1 || retiredGauge(t, d2) != want+1 {
		t.Fatalf("after one more tick: status says %d retired, metric %d, want %d", got, retiredGauge(t, d2), want+1)
	}
}

// TestNewRejectsUnaffordableFeatureCharge: a per-block feature charge
// above the ceiling could never admit a block; New must say so before
// any tick runs or anything is journaled.
func TestNewRejectsUnaffordableFeatureCharge(t *testing.T) {
	cfg := fastConfig(t.TempDir())
	cfg.FeatureEps = cfg.Global.Epsilon * 2
	if _, _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "feature ε") {
		t.Fatalf("New accepted FeatureEps %v under a ceiling of %v: %v", cfg.FeatureEps, cfg.Global, err)
	}
	if files, err := durable.LogFiles(cfg.Dir); err != nil || len(files) != 0 {
		t.Fatalf("rejected config left log files behind: %v, %v", files, err)
	}
	// At the ceiling exactly is admissible (every block arrives exhausted).
	cfg.FeatureEps = cfg.Global.Epsilon
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Close()
}
