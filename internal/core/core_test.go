package core

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/privacy"
)

func newAC(eps, delta float64) *AccessControl {
	return NewAccessControl(Policy{Global: privacy.MustBudget(eps, delta)})
}

func TestRegisterBlock(t *testing.T) {
	ac := newAC(1, 1e-6)
	if !ac.RegisterBlock(1) {
		t.Fatal("first registration should succeed")
	}
	if ac.RegisterBlock(1) {
		t.Fatal("duplicate registration should return false")
	}
	if ac.NumBlocks() != 1 {
		t.Errorf("NumBlocks = %d", ac.NumBlocks())
	}
	if !ac.BlockLoss(1).IsZero() {
		t.Error("fresh block should have zero loss")
	}
}

func TestRequestDeductsFromAllBlocks(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.RegisterBlock(2)
	ac.RegisterBlock(3)
	b := privacy.MustBudget(0.3, 1e-7)
	if err := ac.Request([]data.BlockID{1, 2}, b); err != nil {
		t.Fatal(err)
	}
	if got := ac.BlockLoss(1); got.Epsilon != 0.3 {
		t.Errorf("block 1 loss = %v", got)
	}
	if got := ac.BlockLoss(2); got.Epsilon != 0.3 {
		t.Errorf("block 2 loss = %v", got)
	}
	if got := ac.BlockLoss(3); !got.IsZero() {
		t.Errorf("untouched block 3 loss = %v", got)
	}
}

func TestRequestAtomicOnFailure(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.RegisterBlock(2)
	// Drain block 2.
	if err := ac.Request([]data.BlockID{2}, privacy.MustBudget(0.9, 0)); err != nil {
		t.Fatal(err)
	}
	// Joint request must fail and leave block 1 untouched.
	err := ac.Request([]data.BlockID{1, 2}, privacy.MustBudget(0.5, 0))
	var exhausted ErrBlockExhausted
	if !errors.As(err, &exhausted) || exhausted.ID != 2 {
		t.Fatalf("err = %v, want ErrBlockExhausted{2}", err)
	}
	if got := ac.BlockLoss(1); !got.IsZero() {
		t.Errorf("failed request leaked %v into block 1", got)
	}
}

func TestRequestUnknownBlock(t *testing.T) {
	ac := newAC(1, 0)
	ac.RegisterBlock(1)
	err := ac.Request([]data.BlockID{1, 99}, privacy.MustBudget(0.1, 0))
	var unknown ErrUnknownBlock
	if !errors.As(err, &unknown) || unknown.ID != 99 {
		t.Fatalf("err = %v, want ErrUnknownBlock{99}", err)
	}
	if !ac.BlockLoss(1).IsZero() {
		t.Error("failed request should not deduct")
	}
}

func TestRequestValidation(t *testing.T) {
	ac := newAC(1, 0)
	ac.RegisterBlock(1)
	if err := ac.Request(nil, privacy.MustBudget(0.1, 0)); err == nil {
		t.Error("empty block list should fail")
	}
	if err := ac.Request([]data.BlockID{1}, privacy.Budget{Epsilon: -1}); err == nil {
		t.Error("invalid budget should fail")
	}
	// Zero budget requests are free no-ops.
	if err := ac.Request([]data.BlockID{1}, privacy.Zero); err != nil {
		t.Errorf("zero request err = %v", err)
	}
}

func TestRetirementAtCeiling(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	var retired []data.BlockID
	ac.SetRetireCallback(func(id data.BlockID) { retired = append(retired, id) })
	if err := ac.Request([]data.BlockID{1}, privacy.MustBudget(1, 1e-6)); err != nil {
		t.Fatal(err)
	}
	if !ac.Retired(1) {
		t.Fatal("block at ceiling should be retired")
	}
	if len(retired) != 1 || retired[0] != 1 {
		t.Errorf("retire callback got %v", retired)
	}
	// Retired block refuses everything, even tiny requests.
	err := ac.Request([]data.BlockID{1}, privacy.MustBudget(1e-9, 0))
	var exhausted ErrBlockExhausted
	if !errors.As(err, &exhausted) {
		t.Fatalf("request on retired block: err = %v", err)
	}
}

func TestStreamLossIsMaxOverBlocks(t *testing.T) {
	// Theorem 4.2: stream loss = max per-block loss, not the sum.
	ac := newAC(1, 1e-6)
	for id := data.BlockID(1); id <= 4; id++ {
		ac.RegisterBlock(id)
	}
	ac.Request([]data.BlockID{1, 2}, privacy.MustBudget(0.4, 1e-7)) // Q1
	ac.Request([]data.BlockID{2, 3}, privacy.MustBudget(0.3, 0))    // Q2
	ac.Request([]data.BlockID{4}, privacy.MustBudget(0.6, 2e-7))    // Q3
	got := ac.StreamLoss()
	// Block 2 has ε=0.7; block 4 has δ=2e-7.
	if math.Abs(got.Epsilon-0.7) > 1e-12 {
		t.Errorf("stream ε = %v, want 0.7 (max block)", got.Epsilon)
	}
	if got.Delta != 2e-7 {
		t.Errorf("stream δ = %v, want 2e-7", got.Delta)
	}
	// Query-level accounting would have charged 0.4+0.3+0.6=1.3 > εg;
	// block accounting stays under the ceiling.
	if got.Epsilon > ac.Policy().Global.Epsilon {
		t.Error("stream loss exceeded global ceiling")
	}
}

func TestRefund(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.Request([]data.BlockID{1}, privacy.MustBudget(1, 0)) // retires the block
	if !ac.Retired(1) {
		t.Fatal("expected retirement")
	}
	if err := ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if ac.Retired(1) {
		t.Error("refund should un-retire the block")
	}
	if got := ac.BlockLoss(1); math.Abs(got.Epsilon-0.5) > 1e-12 {
		t.Errorf("loss after refund = %v", got)
	}
	if err := ac.Refund([]data.BlockID{99}, privacy.MustBudget(0.1, 0)); err == nil {
		t.Error("refund to unknown block should fail")
	}
}

func TestRemainingAndAvailable(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.RegisterBlock(2)
	ac.Request([]data.BlockID{1}, privacy.MustBudget(0.8, 0))
	r1 := ac.Remaining(1)
	if math.Abs(r1.Epsilon-0.2) > 1e-12 {
		t.Errorf("Remaining(1) = %v", r1)
	}
	if !ac.Remaining(99).IsZero() {
		t.Error("unknown block should have zero remaining")
	}
	avail := ac.AvailableBlocks([]data.BlockID{1, 2, 99}, privacy.MustBudget(0.5, 0))
	if len(avail) != 1 || avail[0] != 2 {
		t.Errorf("AvailableBlocks = %v, want [2]", avail)
	}
	avail = ac.AvailableBlocks([]data.BlockID{1, 2}, privacy.MustBudget(0.1, 0))
	if len(avail) != 2 {
		t.Errorf("AvailableBlocks = %v, want both", avail)
	}
}

func TestForcedRetire(t *testing.T) {
	ac := newAC(1, 0)
	ac.RegisterBlock(1)
	if err := ac.Retire(1); err != nil {
		t.Fatal(err)
	}
	if !ac.Retired(1) {
		t.Error("block should be retired")
	}
	if err := ac.Retire(42); err == nil {
		t.Error("retiring unknown block should fail")
	}
}

func TestForcedRetireStickyAcrossRefund(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	if err := ac.Request([]data.BlockID{1}, privacy.MustBudget(0.4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ac.Retire(1); err != nil {
		t.Fatal(err)
	}
	// A refund restores plenty of budget, but a force-retired block must
	// stay retired: Retire is an operator decision, not an accounting one.
	if err := ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.4, 0)); err != nil {
		t.Fatal(err)
	}
	if !ac.Retired(1) {
		t.Error("refund resurrected a force-retired block")
	}
	if !ac.Remaining(1).IsZero() {
		t.Errorf("retired block reports remaining budget %v", ac.Remaining(1))
	}
	var exhausted ErrBlockExhausted
	if err := ac.Request([]data.BlockID{1}, privacy.MustBudget(0.1, 0)); !errors.As(err, &exhausted) {
		t.Errorf("request on force-retired block: err = %v, want ErrBlockExhausted", err)
	}
}

func TestDataDeletedRetirementStickyAcrossRefund(t *testing.T) {
	// With a retention hook registered, retirement deletes the raw data —
	// so even budget-exhaustion retirement must survive a refund.
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	deleted := 0
	ac.SetRetireCallback(func(data.BlockID) { deleted++ })
	if err := ac.Request([]data.BlockID{1}, privacy.MustBudget(1, 1e-6)); err != nil {
		t.Fatal(err)
	}
	if !ac.Retired(1) || deleted != 1 {
		t.Fatalf("retired=%v deleted=%d, want retirement + one deletion", ac.Retired(1), deleted)
	}
	if err := ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.9, 1e-6)); err != nil {
		t.Fatal(err)
	}
	if !ac.Retired(1) {
		t.Error("refund resurrected a block whose raw data was deleted")
	}
	if deleted != 1 {
		t.Errorf("retire callback fired %d times, want exactly 1", deleted)
	}
	if got := ac.AvailableBlocks([]data.BlockID{1}, privacy.MustBudget(0.01, 0)); len(got) != 0 {
		t.Errorf("data-deleted block still listed available: %v", got)
	}
}

func TestExhaustionRetirementReversibleWithoutCallback(t *testing.T) {
	// No retention hook: exhaustion retirement is pure accounting and a
	// refund may reverse it (the pre-existing §3.3 reserve/refund flow).
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.Request([]data.BlockID{1}, privacy.MustBudget(1, 0))
	if !ac.Retired(1) {
		t.Fatal("expected exhaustion retirement")
	}
	if err := ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if ac.Retired(1) {
		t.Error("refund should un-retire a budget-exhausted block with no retention hook")
	}
	// Force-retiring an already (reversibly) retired block upgrades it
	// to sticky without re-firing callbacks.
	ac.Request([]data.BlockID{1}, privacy.MustBudget(0.5, 0))
	if !ac.Retired(1) {
		t.Fatal("expected re-retirement")
	}
	if err := ac.Retire(1); err != nil {
		t.Fatal(err)
	}
	ac.Refund([]data.BlockID{1}, privacy.MustBudget(1, 0))
	if !ac.Retired(1) {
		t.Error("force-retire on a retired block should still make it sticky")
	}
}

func TestReport(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.RegisterBlock(2)
	ac.Request([]data.BlockID{1}, privacy.MustBudget(0.25, 0))
	ac.Request([]data.BlockID{1}, privacy.MustBudget(0.25, 0))
	rep := ac.Report([]data.BlockID{1, 2, 77})
	if len(rep) != 2 {
		t.Fatalf("Report len = %d", len(rep))
	}
	if rep[0].ID != 1 || rep[0].Queries != 2 || math.Abs(rep[0].Loss.Epsilon-0.5) > 1e-12 {
		t.Errorf("report[0] = %+v", rep[0])
	}
	if rep[1].ID != 2 || rep[1].Queries != 0 {
		t.Errorf("report[1] = %+v", rep[1])
	}
	// A refund gives back budget, not a query: refunding block 1's whole
	// latest charge, and then all of its loss, leaves both charges
	// counted.
	for _, refund := range []float64{0.25, 0.25} {
		if err := ac.Refund([]data.BlockID{1}, privacy.MustBudget(refund, 0)); err != nil {
			t.Fatal(err)
		}
		if r := ac.Report([]data.BlockID{1})[0]; r.Queries != 2 {
			t.Errorf("after a refund of %v: report[0] = %+v, want 2 queries", refund, r)
		}
	}
	if loss := ac.BlockLoss(1); !loss.IsZero() {
		t.Errorf("block 1 loss %v after refunding everything, want zero", loss)
	}
}

func TestConcurrentRequestsNeverExceedCeiling(t *testing.T) {
	ac := newAC(1, 1e-6)
	const nBlocks = 8
	ids := make([]data.BlockID, nBlocks)
	for i := range ids {
		ids[i] = data.BlockID(i)
		ac.RegisterBlock(ids[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			req := privacy.MustBudget(0.01, 1e-9)
			for i := 0; i < 100; i++ {
				blocks := []data.BlockID{ids[(w+i)%nBlocks], ids[(w+i+1)%nBlocks]}
				_ = ac.Request(blocks, req)
			}
		}(w)
	}
	wg.Wait()
	for _, id := range ids {
		loss := ac.BlockLoss(id)
		if loss.Epsilon > 1+1e-9 || loss.Delta > 1e-6+1e-15 {
			t.Errorf("block %d loss %v exceeds ceiling", id, loss)
		}
	}
	if sl := ac.StreamLoss(); sl.Epsilon > 1+1e-9 {
		t.Errorf("stream loss %v exceeds ceiling", sl)
	}
}

// TestAdaptiveAdversaryProtocol simulates AdaptiveStreamBlockCompose
// (Alg. 4c): an adversary adaptively creates blocks and issues queries
// with adaptively chosen budgets and block sets, conditioning choices on
// past results. The invariant (Theorem 4.3) is that no block — hence the
// stream — ever exceeds (εg, δg) no matter the adversary's strategy.
func TestAdaptiveAdversaryProtocol(t *testing.T) {
	f := func(script []uint16, seed uint8) bool {
		ac := newAC(1, 1e-6)
		var blocks []data.BlockID
		next := data.BlockID(0)
		observed := uint16(seed) // stand-in for query results driving adaptivity
		for _, op := range script {
			op ^= observed // adversary adapts to past observations
			switch op % 4 {
			case 0: // new block arrives
				ac.RegisterBlock(next)
				blocks = append(blocks, next)
				next++
			default: // adaptive query
				if len(blocks) == 0 {
					continue
				}
				// Adversary picks budget and a contiguous block range.
				eps := float64(op%97)/97*0.5 + 0.001
				lo := int(op) % len(blocks)
				hi := lo + int(op%5) + 1
				if hi > len(blocks) {
					hi = len(blocks)
				}
				err := ac.Request(blocks[lo:hi], privacy.Budget{Epsilon: eps, Delta: 1e-9})
				if err == nil {
					observed = observed*31 + op // result feeds back
				}
			}
		}
		// Invariant: every block and the stream stay under the ceiling.
		for _, id := range blocks {
			l := ac.BlockLoss(id)
			if l.Epsilon > 1+1e-9 || l.Delta > 1e-6+1e-15 {
				return false
			}
		}
		sl := ac.StreamLoss()
		return sl.Epsilon <= 1+1e-9 && sl.Delta <= 1e-6+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: request-then-refund is an exact no-op on block loss.
func TestRequestRefundRoundTripProperty(t *testing.T) {
	f := func(epsRaw []uint8) bool {
		ac := newAC(10, 1e-3)
		ac.RegisterBlock(1)
		var granted []privacy.Budget
		for _, e := range epsRaw {
			b := privacy.Budget{Epsilon: float64(e)/256 + 0.001, Delta: 1e-9}
			if err := ac.Request([]data.BlockID{1}, b); err == nil {
				granted = append(granted, b)
			}
		}
		for i := len(granted) - 1; i >= 0; i-- {
			if err := ac.Refund([]data.BlockID{1}, granted[i]); err != nil {
				return false
			}
		}
		return ac.BlockLoss(1).Epsilon < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Regression: a request naming the same block multiple times used to
// pass the phase-1 check per-occurrence against pre-spend state but
// deduct per-occurrence in phase 2, pushing the block's loss to k·b —
// past the (εg, δg) ceiling for k·b > εg. Duplicates must be coalesced:
// the query reads the block's data once, so it is charged once, and the
// ceiling invariant of Theorem 4.3 must hold afterwards.
func TestRequestDuplicateBlockIDsCannotExceedCeiling(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.RegisterBlock(2)
	b := privacy.MustBudget(0.6, 1e-7)
	// 2×0.6 = 1.2 > εg: per-occurrence deduction would overshoot.
	if err := ac.Request([]data.BlockID{1, 1}, b); err != nil {
		t.Fatalf("duplicate-id request should be granted once: %v", err)
	}
	if got := ac.BlockLoss(1); math.Abs(got.Epsilon-0.6) > 1e-12 || got.Delta != 1e-7 {
		t.Errorf("block charged %v for a duplicate-id request, want one charge of %v", got, b)
	}
	ceiling := ac.Policy().Global
	if got := ac.BlockLoss(1); !ceiling.Covers(got) {
		t.Errorf("block loss %v exceeds global ceiling %v", got, ceiling)
	}
	// Interleaved duplicates across distinct blocks behave the same.
	if err := ac.Request([]data.BlockID{2, 1, 2, 1, 2}, privacy.MustBudget(0.3, 0)); err != nil {
		t.Fatalf("interleaved duplicates: %v", err)
	}
	for _, id := range []data.BlockID{1, 2} {
		if got := ac.BlockLoss(id); !ceiling.Covers(got) {
			t.Errorf("block %d loss %v exceeds ceiling %v", id, got, ceiling)
		}
	}
	if got := ac.BlockLoss(1); math.Abs(got.Epsilon-0.9) > 1e-12 {
		t.Errorf("block 1 loss = %v, want ε=0.9", got)
	}
	if got := ac.BlockLoss(2); math.Abs(got.Epsilon-0.3) > 1e-12 {
		t.Errorf("block 2 loss = %v, want ε=0.3", got)
	}
	if sl := ac.StreamLoss(); !ceiling.Covers(sl) {
		t.Errorf("stream loss %v exceeds ceiling %v", sl, ceiling)
	}
}

// Property: however a request repeats its block IDs, no block ever
// exceeds the ceiling and a duplicate-laden request is exactly
// equivalent to its deduplicated form.
func TestRequestDuplicateBlockIDsProperty(t *testing.T) {
	f := func(picks []uint8, epsRaw uint8) bool {
		if len(picks) == 0 {
			return true
		}
		const nBlocks = 3
		dup := newAC(1, 1e-6)
		ref := newAC(1, 1e-6)
		for id := data.BlockID(0); id < nBlocks; id++ {
			dup.RegisterBlock(id)
			ref.RegisterBlock(id)
		}
		b := privacy.Budget{Epsilon: float64(epsRaw)/256*0.8 + 0.01, Delta: 1e-9}
		ids := make([]data.BlockID, 0, len(picks))
		for _, p := range picks {
			ids = append(ids, data.BlockID(p%nBlocks))
		}
		errDup := dup.Request(ids, b)
		errRef := ref.Request(uniqueIDs(ids), b)
		if (errDup == nil) != (errRef == nil) {
			return false
		}
		for id := data.BlockID(0); id < nBlocks; id++ {
			if dup.BlockLoss(id) != ref.BlockLoss(id) {
				return false
			}
			if !dup.Policy().Global.Covers(dup.BlockLoss(id)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Regression: Refund used to mutate blocks in order and bail midway on
// an unknown ID, leaving earlier blocks refunded — a partial write that
// under-counts privacy loss. It must validate everything first, like
// Request.
func TestRefundAtomicOnUnknownBlock(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.RegisterBlock(2)
	spend := privacy.MustBudget(0.5, 1e-7)
	if err := ac.Request([]data.BlockID{1, 2}, spend); err != nil {
		t.Fatal(err)
	}
	// Block 99 is unknown; blocks 1 and 2 precede it in the refund list.
	err := ac.Refund([]data.BlockID{1, 2, 99}, privacy.MustBudget(0.2, 0))
	var unknown ErrUnknownBlock
	if !errors.As(err, &unknown) || unknown.ID != 99 {
		t.Fatalf("err = %v, want ErrUnknownBlock{99}", err)
	}
	for _, id := range []data.BlockID{1, 2} {
		if got := ac.BlockLoss(id); math.Abs(got.Epsilon-0.5) > 1e-12 {
			t.Errorf("failed refund partially applied: block %d loss = %v, want ε=0.5", id, got)
		}
	}
	// A valid refund still works afterwards.
	if err := ac.Refund([]data.BlockID{1, 2}, privacy.MustBudget(0.2, 0)); err != nil {
		t.Fatal(err)
	}
	if got := ac.BlockLoss(1); math.Abs(got.Epsilon-0.3) > 1e-12 {
		t.Errorf("loss after valid refund = %v, want ε=0.3", got)
	}
}

// Regression (carried from the PR 18 fuzz work): a refund larger than a
// block's loss reached the per-block accountant's panic
// under the shard lock, after the record was journaled. It is refused
// with a typed error first — at 1 and at 3 shards, whichever block of
// the list is the short one — and neither the ledger nor the journal
// moves.
func TestOverRefundRefusedBeforeJournal(t *testing.T) {
	for _, shards := range []int{1, 3} {
		ac := NewShardedAccessControl(Policy{Global: privacy.MustBudget(1, 1e-6)}, shards)
		for id := data.BlockID(1); id <= 4; id++ {
			ac.RegisterBlock(id)
		}
		if err := ac.Request([]data.BlockID{1, 2, 3, 4}, privacy.MustBudget(0.3, 1e-8)); err != nil {
			t.Fatal(err)
		}
		if err := ac.Request([]data.BlockID{1, 2, 4}, privacy.MustBudget(0.2, 0)); err != nil {
			t.Fatal(err)
		}
		journaled := 0
		ac.SetShardJournal(func(int, LedgerRecord) (func() error, error) {
			journaled++
			return nil, nil
		})
		before := ac.Snapshot()
		for _, c := range []struct {
			ids    []data.BlockID
			refund privacy.Budget
			short  data.BlockID
		}{
			{[]data.BlockID{1, 2, 3, 4}, privacy.MustBudget(0.4, 0), 3},    // 3 holds ε = 0.3
			{[]data.BlockID{3}, privacy.MustBudget(0.1, 1e-7), 3},          // δ is short, ε is not
			{[]data.BlockID{2, 1}, privacy.MustBudget(0.5000001, 0), 2},    // just over two spends
			{[]data.BlockID{4}, privacy.MustBudget(math.MaxFloat64, 1), 4}, // what a damaged record holds
		} {
			err := ac.Refund(c.ids, c.refund)
			var over ErrRefundExceedsSpend
			if !errors.As(err, &over) || over.ID != c.short || over.Refund != c.refund {
				t.Fatalf("%d shards, Refund(%v, %v) = %v, want ErrRefundExceedsSpend for block %d", shards, c.ids, c.refund, err, c.short)
			}
		}
		if journaled != 0 {
			t.Errorf("%d shards: %d records journaled for refused refunds", shards, journaled)
		}
		if !bytes.Equal(ac.Snapshot(), before) {
			t.Errorf("%d shards: a refused refund changed the ledger", shards)
		}
		// What the spends do cover still refunds, across two spends.
		if err := ac.Refund([]data.BlockID{1, 2}, privacy.MustBudget(0.5, 1e-8)); err != nil {
			t.Fatalf("%d shards: exact refund: %v", shards, err)
		}
		if got := ac.BlockLoss(1); got.Epsilon > 1e-12 || got.Delta > 1e-20 {
			t.Errorf("%d shards: loss after exact refund = %v, want zero", shards, got)
		}
	}
}

// Refund with duplicate IDs must refund once per distinct block — the
// mirror of Request's coalescing. (Per-occurrence refunds would strip
// more than was spent and panic in the accountant.)
func TestRefundDuplicateBlockIDsCoalesced(t *testing.T) {
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	spend := privacy.MustBudget(0.4, 0)
	if err := ac.Request([]data.BlockID{1}, spend); err != nil {
		t.Fatal(err)
	}
	if err := ac.Refund([]data.BlockID{1, 1, 1}, spend); err != nil {
		t.Fatal(err)
	}
	if got := ac.BlockLoss(1); !got.IsZero() {
		t.Errorf("loss after duplicate-id refund = %v, want zero", got)
	}
}

func TestBlockReportReason(t *testing.T) {
	// budget-exhausted (no retention hook).
	ac := newAC(1, 1e-6)
	ac.RegisterBlock(1)
	ac.RegisterBlock(2)
	ac.RegisterBlock(3)
	ac.Request([]data.BlockID{1}, privacy.MustBudget(1, 0))
	// forced.
	if err := ac.Retire(2); err != nil {
		t.Fatal(err)
	}
	rep := ac.Report([]data.BlockID{1, 2, 3})
	if rep[0].Reason != RetireBudgetExhausted {
		t.Errorf("exhausted block reason = %q, want %q", rep[0].Reason, RetireBudgetExhausted)
	}
	if rep[1].Reason != RetireForced {
		t.Errorf("forced block reason = %q, want %q", rep[1].Reason, RetireForced)
	}
	if rep[2].Reason != RetireNone || rep[2].Retired {
		t.Errorf("active block report = %+v, want no reason", rep[2])
	}
	// Refund un-retires the exhausted block and clears its reason.
	if err := ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.5, 0)); err != nil {
		t.Fatal(err)
	}
	if rep := ac.Report([]data.BlockID{1}); rep[0].Retired || rep[0].Reason != RetireNone {
		t.Errorf("un-retired block report = %+v, want active with no reason", rep[0])
	}

	// retention-deleted: hook registered, exhaustion runs the deletion.
	ac2 := newAC(1, 1e-6)
	ac2.RegisterBlock(1)
	ac2.SetRetireCallback(func(data.BlockID) {})
	ac2.Request([]data.BlockID{1}, privacy.MustBudget(1, 0))
	rep = ac2.Report([]data.BlockID{1})
	if rep[0].Reason != RetireDataDeleted {
		t.Errorf("retention block reason = %q, want %q", rep[0].Reason, RetireDataDeleted)
	}
	// A later forced retirement keeps the retention-deleted audit trail.
	if err := ac2.Retire(1); err != nil {
		t.Fatal(err)
	}
	if rep := ac2.Report([]data.BlockID{1}); rep[0].Reason != RetireDataDeleted {
		t.Errorf("reason after Retire = %q, want %q kept", rep[0].Reason, RetireDataDeleted)
	}
}

func TestMultiContext(t *testing.T) {
	m := NewMultiContextAccessControl(Policy{Global: privacy.MustBudget(1, 1e-6)})
	m.RegisterBlock(1)
	teamA := m.Context("team-a")
	teamB := m.Context("team-b")
	if teamA == teamB {
		t.Fatal("contexts should be distinct")
	}
	if m.Context("team-a") != teamA {
		t.Fatal("context lookup should be stable")
	}
	if err := teamA.Request([]data.BlockID{1}, privacy.MustBudget(0.9, 0)); err != nil {
		t.Fatal(err)
	}
	// Team B has its own budget for the same block.
	if err := teamB.Request([]data.BlockID{1}, privacy.MustBudget(0.9, 0)); err != nil {
		t.Fatalf("team B should have independent budget: %v", err)
	}
	// Blocks registered later appear in existing contexts.
	m.RegisterBlock(2)
	if err := teamA.Request([]data.BlockID{2}, privacy.MustBudget(0.1, 0)); err != nil {
		t.Errorf("late block not visible in context: %v", err)
	}
	// New contexts see previously registered blocks.
	if err := m.Context("team-c").Request([]data.BlockID{1}, privacy.MustBudget(0.1, 0)); err != nil {
		t.Errorf("new context missing block: %v", err)
	}
	names := m.Contexts()
	if len(names) != 3 || names[0] != "team-a" || names[2] != "team-c" {
		t.Errorf("Contexts = %v", names)
	}
	// Worst case (collusion): losses add across contexts.
	wc := m.WorstCaseStreamLoss()
	if math.Abs(wc.Epsilon-1.9) > 1e-9 {
		t.Errorf("worst-case stream ε = %v, want 1.9", wc.Epsilon)
	}
}
