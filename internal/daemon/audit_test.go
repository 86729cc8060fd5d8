package daemon

import (
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/store"
)

// auditBlockComposition holds the daemon's two logs to each other, the
// paper's block composition (§4): for every release its store holds and
// every block the release's provenance names, the block's ledger loss
// must cover its admission charge (FeatureEps) plus one first attempt
// of the search (Epsilon0 and the training δ) for each release naming
// it. Both components are checked.
//
// Admission + Σ Provenance.Spent would be the wrong relation. Spent
// totals every attempt of the search, while Blocks is only the final
// attempt's window, which can hold blocks that entered it late and
// were charged only the later attempts. What every block of the window
// surely paid is one attempt per release: each attempt charges its
// window at least Epsilon0 and the training δ, and an AdaSSP pipeline
// spends its whole request, so nothing is refunded. Retired blocks keep
// their loss, so they are audited too. It returns the number of blocks
// audited.
func auditBlockComposition(t *testing.T, d *Daemon) int {
	t.Helper()
	attempt := privacy.Budget{Epsilon: d.trainer.Epsilon0, Delta: d.trainer.Delta}
	naming := map[data.BlockID]int{}
	for _, raw := range d.plat.Store.SnapshotBundles() {
		b, err := store.DecodeCanonicalBundle(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range b.Provenance.Blocks {
			naming[id]++
		}
	}
	for id, n := range naming {
		want := privacy.Budget{Epsilon: d.cfg.FeatureEps}
		for range n {
			want = want.Add(attempt)
		}
		if got := d.plat.AC.BlockLoss(id); !got.Covers(want) {
			t.Errorf("block %d: ledger loss %v does not cover its admission charge plus the %d release(s) naming it, %v", id, got, n, want)
		}
	}
	return len(naming)
}
