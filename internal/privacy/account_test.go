package privacy_test

// The TestAccountant* cases pin a block's account as the ledger keeps
// it (core.AccessControl): a running (ε, δ) sum that charges add to and
// refunds subtract from, and a count of the charges taken.

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
)

var block = []data.BlockID{1}

// chargedBlock returns a one-block ledger under (1, 1e-6) whose block
// was charged each of the given budgets in turn.
func chargedBlock(t *testing.T, charges ...privacy.Budget) *core.AccessControl {
	t.Helper()
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	ac.RegisterBlock(block[0])
	for _, b := range charges {
		if err := ac.Request(block, b); err != nil {
			t.Fatal(err)
		}
	}
	return ac
}

func TestAccountantSpendLoss(t *testing.T) {
	ac := chargedBlock(t, privacy.MustBudget(0.3, 1e-7), privacy.MustBudget(0.2, 0))
	loss := ac.BlockLoss(block[0])
	if math.Abs(loss.Epsilon-0.5) > 1e-12 || loss.Delta != 1e-7 {
		t.Errorf("Loss = %v", loss)
	}
	if q := ac.Report(block)[0].Queries; q != 2 {
		t.Errorf("Queries = %d", q)
	}
}

func TestAccountantWouldExceed(t *testing.T) {
	ac := chargedBlock(t, privacy.MustBudget(0.8, 0))
	if len(ac.AvailableBlocks(block, privacy.MustBudget(0.2, 0))) != 1 {
		t.Error("exactly reaching the ceiling should be allowed")
	}
	if len(ac.AvailableBlocks(block, privacy.MustBudget(0.21, 0))) != 0 {
		t.Error("exceeding the ceiling should be detected")
	}
	if len(ac.AvailableBlocks(block, privacy.MustBudget(0, 2e-6))) != 0 {
		t.Error("delta exhaustion should be detected")
	}
	var exhausted core.ErrBlockExhausted
	if err := ac.Request(block, privacy.MustBudget(0.21, 0)); !errors.As(err, &exhausted) {
		t.Errorf("over-ceiling request = %v, want ErrBlockExhausted", err)
	}
}

func TestAccountantRefund(t *testing.T) {
	ac := chargedBlock(t, privacy.MustBudget(0.5, 1e-7), privacy.MustBudget(0.3, 0))
	if err := ac.Refund(block, privacy.MustBudget(0.3, 0)); err != nil {
		t.Fatal(err)
	}
	if loss := ac.BlockLoss(block[0]); math.Abs(loss.Epsilon-0.5) > 1e-12 {
		t.Errorf("after refund ε=%v, want 0.5", loss.Epsilon)
	}
	// A refund larger than the latest charge comes off the running sum.
	if err := ac.Refund(block, privacy.MustBudget(0.4, 0)); err != nil {
		t.Fatal(err)
	}
	if loss := ac.BlockLoss(block[0]); math.Abs(loss.Epsilon-0.1) > 1e-12 {
		t.Errorf("after second refund ε=%v, want 0.1", loss.Epsilon)
	}
	var over core.ErrRefundExceedsSpend
	if err := ac.Refund(block, privacy.MustBudget(10, 0)); !errors.As(err, &over) {
		t.Errorf("over-refund = %v, want ErrRefundExceedsSpend", err)
	}
	if q := ac.Report(block)[0].Queries; q != 2 {
		t.Errorf("Queries = %d after two charges and two refunds, want 2", q)
	}
}

// TestAccountantCanRefund: a refund is allowed iff the block's loss
// covers it in both components; a refused one changes nothing.
func TestAccountantCanRefund(t *testing.T) {
	charges := []privacy.Budget{privacy.MustBudget(0.5, 1e-7), privacy.MustBudget(0.3, 0)}
	for _, c := range []struct {
		b    privacy.Budget
		want bool
	}{
		{privacy.MustBudget(0, 0), true},
		{privacy.MustBudget(0.3, 0), true},
		{privacy.MustBudget(0.8, 1e-7), true}, // exactly everything, over both charges
		{privacy.MustBudget(0.8000001, 0), false},
		{privacy.MustBudget(0.1, 2e-7), false}, // ε is covered, δ is not
		{privacy.MustBudget(math.MaxFloat64, 1), false},
	} {
		ac := chargedBlock(t, charges...)
		before := ac.Snapshot()
		err := ac.Refund(block, c.b)
		if got := err == nil; got != c.want {
			t.Errorf("Refund(%v) = %v, want accepted %v", c.b, err, c.want)
		}
		var over core.ErrRefundExceedsSpend
		if err != nil && (!errors.As(err, &over) || !bytes.Equal(ac.Snapshot(), before)) {
			t.Errorf("refused Refund(%v) = %v, and must be ErrRefundExceedsSpend changing nothing", c.b, err)
		}
	}
	// A refund over the loss by less than Covers' tolerance — what
	// rounding in the running sum can leave — empties the block.
	ac := chargedBlock(t, charges...)
	if err := ac.Refund(block, privacy.MustBudget(0.8+5e-13, 1e-7)); err != nil || !ac.BlockLoss(block[0]).IsZero() {
		t.Errorf("refund within tolerance of the loss: %v, loss %v, want accepted and zero", err, ac.BlockLoss(block[0]))
	}
	empty := chargedBlock(t)
	if empty.Refund(block, privacy.MustBudget(1e-9, 0)) == nil || empty.Refund(block, privacy.Zero) != nil {
		t.Error("an uncharged block covers exactly the zero refund")
	}
}
