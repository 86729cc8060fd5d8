package durable

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
)

// exactTraffic is TestRecoveryIsExact's admit / request / partial-refund
// sequence, in two halves: the mid-way compaction runs between them.
var exactTraffic = [2][]core.LedgerRecord{
	{
		{Op: core.LedgerRegister, Blocks: []data.BlockID{1}},
		{Op: core.LedgerRegister, Blocks: []data.BlockID{2}},
		{Op: core.LedgerRegister, Blocks: []data.BlockID{3}, Budget: privacy.MustBudget(0.05, 0)},
		{Op: core.LedgerRequest, Blocks: []data.BlockID{1, 2, 3}, Budget: privacy.MustBudget(0.0295, 0)},
		{Op: core.LedgerRequest, Blocks: []data.BlockID{1, 2, 3}, Budget: privacy.MustBudget(0.0405, 1e-8)},
		{Op: core.LedgerRefund, Blocks: []data.BlockID{1}, Budget: privacy.MustBudget(0.012879, 0)},
		{Op: core.LedgerRequest, Blocks: []data.BlockID{2}, Budget: privacy.MustBudget(0.04, 0)},
		{Op: core.LedgerRefund, Blocks: []data.BlockID{2}, Budget: privacy.MustBudget(0.011, 3e-9)},
		{Op: core.LedgerRefund, Blocks: []data.BlockID{3}, Budget: privacy.MustBudget(0.0077, 0)},
	},
	{
		{Op: core.LedgerRegister, Blocks: []data.BlockID{4}, Budget: privacy.MustBudget(0.05, 0)},
		{Op: core.LedgerRequest, Blocks: []data.BlockID{3, 4}, Budget: privacy.MustBudget(0.0295, 0)},
		{Op: core.LedgerRefund, Blocks: []data.BlockID{4}, Budget: privacy.MustBudget(0.012879, 0)},
		{Op: core.LedgerRequest, Blocks: []data.BlockID{3}, Budget: privacy.MustBudget(0.0405, 0)},
		{Op: core.LedgerRefund, Blocks: []data.BlockID{3}, Budget: privacy.MustBudget(0.0277, 0)},
	},
}

// sameBudgetBits reports whether two budgets are equal bit for bit.
func sameBudgetBits(a, b privacy.Budget) bool {
	return math.Float64bits(a.Epsilon) == math.Float64bits(b.Epsilon) &&
		math.Float64bits(a.Delta) == math.Float64bits(b.Delta)
}

// TestRecoveryIsExact: a reopened ledger reads every block's loss bit
// for bit as the live ledger did, whether the directory holds only the
// journal, a snapshot compacted at the end, or a snapshot compacted
// half-way with more records after it — at one and at three segments.
// Partial refunds are what tell these apart: after one, a block's
// running loss is not, in the last bits, the sum of what is left of
// its individual charges, so recovery may only ever restore the
// running loss itself.
func TestRecoveryIsExact(t *testing.T) {
	for _, nshards := range []int{1, 3} {
		for _, compact := range []string{"never", "end", "middle"} {
			t.Run(fmt.Sprintf("%d-shard/compact-%s", nshards, compact), func(t *testing.T) {
				dir := t.TempDir()
				p := mustOpen(t, dir, Options{LedgerShards: nshards, NoSync: true})
				for half, recs := range exactTraffic {
					if half == 1 && compact == "middle" {
						if err := p.Compact(); err != nil {
							t.Fatal(err)
						}
					}
					for _, rec := range recs {
						if err := p.AC.Apply(rec); err != nil {
							t.Fatalf("%s %v %v: %v", rec.Op, rec.Blocks, rec.Budget, err)
						}
					}
				}
				if compact == "end" {
					if err := p.Compact(); err != nil {
						t.Fatal(err)
					}
				}
				ids := p.AC.Blocks()
				want := p.AC.Report(ids)
				wantLoss := make([]privacy.Budget, len(ids))
				for i, id := range ids {
					wantLoss[i] = p.AC.BlockLoss(id)
				}
				if err := p.Close(); err != nil {
					t.Fatal(err)
				}

				re := mustOpen(t, dir, Options{NoSync: true})
				defer re.Close()
				got := re.AC.Report(ids)
				if len(got) != len(want) {
					t.Fatalf("reopened ledger reports %d blocks, want %d", len(got), len(want))
				}
				for i, id := range ids {
					if loss := re.AC.BlockLoss(id); !sameBudgetBits(loss, wantLoss[i]) {
						t.Errorf("block %d: BlockLoss %v (ε bits %x) after reopen, live %v (ε bits %x)",
							id, loss, math.Float64bits(loss.Epsilon), wantLoss[i], math.Float64bits(wantLoss[i].Epsilon))
					}
					g, w := got[i], want[i]
					if g.ID != w.ID || !sameBudgetBits(g.Loss, w.Loss) || !sameBudgetBits(g.Remain, w.Remain) ||
						g.Queries != w.Queries || g.Retired != w.Retired || g.Reason != w.Reason {
						t.Errorf("block %d: Report after reopen\n got %+v\nlive %+v", id, g, w)
					}
				}
			})
		}
	}
}
