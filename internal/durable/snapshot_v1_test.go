package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/wal"
)

// v1SnapshotWant is the ledger the commit before snapshot layout 2 read
// from testdata/v1-snapshot-<N>, at one and at three segments alike. It
// wrote those directories with a no-op retention hook: blocks 0-5
// admitted at (0.05, 1e-9); requests of 0.0295 (δ 1e-8) on 0-3 and
// 0.0405 on 0-2; refunds of 0.012879 on 1 and, after a request of 0.04,
// of (0.011, 3e-9) on 2; block 3 exhausted by 0.9205; block 4 charged
// 0.9 and refunded 0.92, across both charges; block 5 retired by force;
// one release; a compaction (layout-1 snapshots); then a request of 0.1
// on 0-1, a refund of 0.03 on 0 and block 6 admitted. A layout-1
// snapshot restores each block as the sum, in order, of the charges it
// lists: block 4 reads 0.029999999999999985 here, where the ledger that
// wrote it read 0.030000000000000027 live.
var v1SnapshotWant = []core.BlockReport{
	{ID: 0, Loss: privacy.Budget{Epsilon: 0.19, Delta: 1.1000000000000001e-08}, Remain: privacy.Budget{Epsilon: 0.81, Delta: 9.89e-07}, Queries: 4},
	{ID: 1, Loss: privacy.Budget{Epsilon: 0.207121, Delta: 1.1000000000000001e-08}, Remain: privacy.Budget{Epsilon: 0.792879, Delta: 9.89e-07}, Queries: 4},
	{ID: 2, Loss: privacy.Budget{Epsilon: 0.149, Delta: 8e-09}, Remain: privacy.Budget{Epsilon: 0.851, Delta: 9.92e-07}, Queries: 4},
	{ID: 3, Loss: privacy.Budget{Epsilon: 1, Delta: 1.1000000000000001e-08}, Queries: 3, Retired: true, Reason: core.RetireDataDeleted},
	{ID: 4, Loss: privacy.Budget{Epsilon: 0.029999999999999985, Delta: 1e-09}, Remain: privacy.Budget{Epsilon: 0.97, Delta: 9.989999999999999e-07}, Queries: 1},
	{ID: 5, Loss: privacy.Budget{Epsilon: 0.05, Delta: 1e-09}, Queries: 1, Retired: true, Reason: core.RetireForced},
	{ID: 6, Loss: privacy.Budget{Epsilon: 0.05, Delta: 1e-09}, Remain: privacy.Budget{Epsilon: 0.95, Delta: 9.989999999999999e-07}, Queries: 1},
}

// v1SnapshotStreamLoss is that ledger's StreamLoss.
var v1SnapshotStreamLoss = privacy.Budget{Epsilon: 1, Delta: 1.1000000000000001e-08}

// snapshotVersions returns the layout version of the snapshot record
// that opens each of dir's n ledger segments.
func snapshotVersions(t *testing.T, dir string, n int) []uint64 {
	t.Helper()
	var versions []uint64
	for k := 0; k < n; k++ {
		seg, recs, err := wal.Open(filepath.Join(dir, LedgerSegmentName(k, n)), wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		seg.Close()
		if len(recs) == 0 || recs[0].Type != recLedgerSnapshot {
			t.Fatalf("segment %d of %d does not open with a snapshot record", k, n)
		}
		versions = append(versions, core.NewCursor(recs[0].Payload).Uint())
	}
	return versions
}

// TestV1SnapshotFixturesOpen is the format contract of snapshot layout
// 1: a directory compacted before layout 2 opens to the ledger its
// writer read from it, bit for bit; its next compaction writes layout 2,
// and the directory reopens to that same ledger.
func TestV1SnapshotFixturesOpen(t *testing.T) {
	hook := func(data.BlockID) {}
	for _, nshards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d-shard", nshards), func(t *testing.T) {
			fixture := filepath.Join("testdata", fmt.Sprintf("v1-snapshot-%d", nshards))
			names, err := os.ReadDir(fixture)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, e := range names {
				raw, err := os.ReadFile(filepath.Join(fixture, e.Name()))
				if err == nil {
					err = os.WriteFile(filepath.Join(dir, e.Name()), raw, 0o644)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			check := func(stage string, ac *core.AccessControl) {
				t.Helper()
				got := ac.Report(ac.Blocks())
				if len(got) != len(v1SnapshotWant) {
					t.Fatalf("%s: %d blocks, want %d", stage, len(got), len(v1SnapshotWant))
				}
				for i, w := range v1SnapshotWant {
					g := got[i]
					if g.ID != w.ID || !sameBudgetBits(g.Loss, w.Loss) || !sameBudgetBits(g.Remain, w.Remain) ||
						g.Queries != w.Queries || g.Retired != w.Retired || g.Reason != w.Reason {
						t.Errorf("%s: block %d\n got %+v\nwant %+v", stage, w.ID, g, w)
					}
				}
				if sl := ac.StreamLoss(); !sameBudgetBits(sl, v1SnapshotStreamLoss) {
					t.Errorf("%s: StreamLoss %v, want %v", stage, sl, v1SnapshotStreamLoss)
				}
			}
			for k, v := range snapshotVersions(t, dir, nshards) {
				if v != 1 {
					t.Fatalf("fixture segment %d holds a layout-%d snapshot, want layout 1", k, v)
				}
			}

			p := mustOpen(t, dir, Options{NoSync: true, OnRetire: hook})
			check("layout-1 open", p.AC)
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			for k, v := range snapshotVersions(t, dir, nshards) {
				if v != 2 {
					t.Fatalf("compaction wrote a layout-%d snapshot to segment %d, want layout 2", v, k)
				}
			}
			p = mustOpen(t, dir, Options{NoSync: true, OnRetire: hook})
			defer p.Close()
			check("layout-2 reopen", p.AC)
		})
	}
}
