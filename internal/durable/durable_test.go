package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/wal"
)

var testPolicy = core.Policy{Global: privacy.MustBudget(1.0, 1e-6)}

// boundaries reads a log's record boundaries from wal.Inspect: where
// each intact record starts, then where the intact prefix ends — so
// cutting the file at boundaries[k] keeps exactly the first k records.
func boundaries(t *testing.T, path string) []int64 {
	t.Helper()
	rep, err := wal.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	var offsets []int64
	for _, r := range rep.Records {
		if r.CRCOK {
			offsets = append(offsets, r.Offset)
		}
	}
	return append(offsets, rep.GoodBytes)
}

func mustOpen(t *testing.T, dir string, opts Options) *Platform {
	t.Helper()
	p, _, err := Open(dir, testPolicy, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ledgerView captures everything the restart e2e promises to preserve.
type ledgerView struct {
	Blocks []core.BlockReport
	Loss   privacy.Budget
}

func viewOf(ac *core.AccessControl) ledgerView {
	return ledgerView{Blocks: ac.Report(ac.Blocks()), Loss: ac.StreamLoss()}
}

func testBundle(name string, quality float64) store.Bundle {
	return store.Bundle{
		Name:  name,
		Model: store.ModelSpec{Kind: "linear", Weights: []float64{1, 2, 3}, Bias: 0.5},
		Features: map[string][]float64{
			"hour_speed": {30, 25, 12},
		},
		Provenance: store.Provenance{
			Pipeline: name, Spent: privacy.MustBudget(0.25, 1e-8),
			Blocks: []data.BlockID{0, 1}, Decision: "ACCEPT", Quality: quality,
		},
	}
}

func TestReopenReconstructsExactState(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, Options{})
	for id := data.BlockID(0); id < 4; id++ {
		p.AC.RegisterBlock(id)
	}
	if err := p.AC.Request([]data.BlockID{0, 1, 2}, privacy.MustBudget(0.5, 1e-8)); err != nil {
		t.Fatal(err)
	}
	if err := p.AC.Refund([]data.BlockID{1}, privacy.MustBudget(0.25, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.AC.Retire(3); err != nil {
		t.Fatal(err)
	}
	p.Store.Publish(testBundle("m", 0.01))
	p.Store.Publish(testBundle("m", 0.02))
	want := viewOf(p.AC)
	wantWM := p.Store.Watermarks()
	wantRelease, _ := p.Store.Get("m", 2)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := mustOpen(t, dir, Options{})
	defer p2.Close()
	if got := viewOf(p2.AC); !reflect.DeepEqual(got, want) {
		t.Fatalf("ledger differs after reopen:\n got %+v\nwant %+v", got, want)
	}
	if got := p2.Store.Watermarks(); !reflect.DeepEqual(got, wantWM) {
		t.Fatalf("store watermarks differ: %v vs %v", got, wantWM)
	}
	got, ok := p2.Store.Get("m", 2)
	if !ok || !bytes.Equal(got.CanonicalBytes(), wantRelease.CanonicalBytes()) {
		t.Fatal("recovered release diverges")
	}
	// The recovered platform keeps journaling: mutate, reopen again.
	if err := p2.AC.Request([]data.BlockID{0}, privacy.MustBudget(0.1, 0)); err != nil {
		t.Fatal(err)
	}
	want2 := viewOf(p2.AC)
	p2.Close()
	p3 := mustOpen(t, dir, Options{})
	defer p3.Close()
	if got := viewOf(p3.AC); !reflect.DeepEqual(got, want2) {
		t.Fatal("second-generation mutations lost")
	}
}

func TestCompactPreservesStateAndShrinksLog(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, Options{})
	for id := data.BlockID(0); id < 8; id++ {
		p.AC.RegisterBlock(id)
		_ = p.AC.Request([]data.BlockID{id}, privacy.MustBudget(0.25, 1e-9))
	}
	for i := 0; i < 5; i++ {
		p.Store.Publish(testBundle("m", float64(i)))
	}
	before, _ := p.LogSizes()
	want := viewOf(p.AC)
	wantWM := p.Store.Watermarks()
	if err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	after, _ := p.LogSizes()
	if after >= before {
		t.Fatalf("ledger log did not shrink: %d -> %d", before, after)
	}
	// Post-compaction mutations append after the snapshot.
	if err := p.AC.Request([]data.BlockID{0}, privacy.MustBudget(0.1, 0)); err != nil {
		t.Fatal(err)
	}
	want.Blocks = p.AC.Report(p.AC.Blocks())
	want.Loss = p.AC.StreamLoss()
	p.Close()

	p2 := mustOpen(t, dir, Options{})
	defer p2.Close()
	if got := viewOf(p2.AC); !reflect.DeepEqual(got, want) {
		t.Fatalf("state after compact+reopen differs:\n got %+v\nwant %+v", got, want)
	}
	if got := p2.Store.Watermarks(); !reflect.DeepEqual(got, wantWM) {
		t.Fatalf("store watermarks differ: %v vs %v", got, wantWM)
	}
}

// scriptOp is one acknowledged ledger mutation plus the state snapshot
// taken right after it was acknowledged.
type scriptOp struct {
	view ledgerView
	// consumedFloor[id] is the budget genuinely consumed (reserved
	// minus every refund that will EVER be issued for requests
	// journaled so far) — the quantity recovery must never under-count.
	consumedFloor map[data.BlockID]float64
}

// runLedgerScript drives an admit/request/refund/retire workload against
// a durable platform and returns the per-op snapshots, plus the charge
// each AdmitBlock-admitted block arrived with. Refunds are scripted
// against specific earlier requests so the test can compute the true
// consumed-budget floor for every journal prefix.
func runLedgerScript(t *testing.T, dir string) ([]scriptOp, map[data.BlockID]float64) {
	t.Helper()
	p := mustOpen(t, dir, Options{})
	defer p.Close()

	totalReserved := map[data.BlockID]float64{} // all reservations journaled so far (never decremented)
	futureRefund := map[int]float64{}           // op index of request → total refund eventually issued
	requestBlocks := map[int][]data.BlockID{}
	var ops []scriptOp
	opIndex := -1

	snap := func() {
		opIndex++
		// consumed floor at THIS prefix: every journaled request's
		// reservation minus everything EVER refunded against it (even
		// refunds journaled after the prefix: a lost refund only makes
		// recovery more conservative).
		refunds := map[data.BlockID]float64{}
		for reqIdx, blocks := range requestBlocks {
			if reqIdx > opIndex {
				continue
			}
			for _, id := range blocks {
				refunds[id] += futureRefund[reqIdx]
			}
		}
		out := map[data.BlockID]float64{}
		for id, res := range totalReserved {
			out[id] = res - refunds[id]
		}
		ops = append(ops, scriptOp{view: viewOf(p.AC), consumedFloor: out})
	}

	register := func(id data.BlockID) {
		p.AC.RegisterBlock(id)
		snap()
	}
	// An admission charge is consumed on arrival and never refunded.
	charges := map[data.BlockID]float64{}
	admit := func(id data.BlockID, eps float64) {
		if ok, err := p.AC.AdmitBlock(id, privacy.Budget{Epsilon: eps}); !ok || err != nil {
			t.Fatalf("admit %d: %v, %v", id, ok, err)
		}
		charges[id] = eps
		totalReserved[id] += eps
		snap()
	}
	request := func(blocks []data.BlockID, eps, eventualRefund float64) {
		if err := p.AC.Request(blocks, privacy.Budget{Epsilon: eps}); err != nil {
			t.Fatalf("request %v: %v", blocks, err)
		}
		for _, id := range blocks {
			totalReserved[id] += eps
		}
		snap()
		requestBlocks[opIndex] = blocks
		futureRefund[opIndex] = eventualRefund
	}
	refund := func(blocks []data.BlockID, eps float64) {
		if err := p.AC.Refund(blocks, privacy.Budget{Epsilon: eps}); err != nil {
			t.Fatalf("refund %v: %v", blocks, err)
		}
		snap()
	}
	retire := func(id data.BlockID) {
		if err := p.AC.Retire(id); err != nil {
			t.Fatal(err)
		}
		snap()
	}

	for id := data.BlockID(0); id < 6; id++ {
		register(id)
	}
	request([]data.BlockID{0, 1, 2}, 0.5, 0.3) // later refunded 0.3
	request([]data.BlockID{1, 2, 3}, 0.25, 0.1)
	refund([]data.BlockID{0, 1, 2}, 0.3)
	request([]data.BlockID{0, 3}, 0.25, 0)
	refund([]data.BlockID{1, 2, 3}, 0.1)
	request([]data.BlockID{5}, 0.5, 0.5) // fully refunded
	retire(4)
	refund([]data.BlockID{5}, 0.5)
	admit(6, 0.05)
	request([]data.BlockID{3, 6}, 0.25, 0.25) // fully refunded: block 6 falls back to its charge
	admit(7, 0.125)
	refund([]data.BlockID{3, 6}, 0.25)
	return ops, charges
}

// TestLedgerFaultInjectionMatrix cuts the ledger log at every record
// boundary (and mid-record, and with a corrupted tail checksum) and
// asserts three things about the recovered ledger: it equals the exact
// acknowledged state at that boundary; — the privacy-critical direction
// — its per-block loss never under-counts the budget genuinely consumed
// by the journaled prefix; and a block admitted through AdmitBlock is
// either absent or carries at least its admission charge — one op, one
// record (the boundary count below), so "registered, zero loss" is not
// a state any cut can produce.
func TestLedgerFaultInjectionMatrix(t *testing.T) {
	srcDir := t.TempDir()
	ops, charges := runLedgerScript(t, srcDir)
	ledgerPath := filepath.Join(srcDir, LedgerLogName)
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	offsets := boundaries(t, ledgerPath)
	if len(offsets) != len(ops)+1 {
		t.Fatalf("%d record boundaries for %d ops", len(offsets)-1, len(ops))
	}

	checkRecovered := func(t *testing.T, cut []byte, wantOps int) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LedgerLogName), cut, 0o644); err != nil {
			t.Fatal(err)
		}
		p := mustOpen(t, dir, Options{})
		defer p.Close()
		got := viewOf(p.AC)
		for _, b := range got.Blocks {
			if charge, admitted := charges[b.ID]; admitted && b.Loss.Epsilon+1e-12 < charge {
				t.Fatalf("prefix of %d ops: block %d is registered with loss %v, below its admission charge %v",
					wantOps, b.ID, b.Loss.Epsilon, charge)
			}
		}
		if wantOps == 0 {
			if len(got.Blocks) != 0 {
				t.Fatalf("empty prefix recovered %d blocks", len(got.Blocks))
			}
			return
		}
		want := ops[wantOps-1]
		if !reflect.DeepEqual(got, want.view) {
			t.Fatalf("prefix of %d ops: recovered state differs:\n got %+v\nwant %+v", wantOps, got, want.view)
		}
		// Conservativeness: recovered loss ≥ consumed floor, per block.
		const tol = 1e-12
		for id, consumed := range want.consumedFloor {
			if loss := p.AC.BlockLoss(id); loss.Epsilon+tol < consumed {
				t.Fatalf("prefix of %d ops: block %d recovered loss %v under-counts consumed %v",
					wantOps, id, loss.Epsilon, consumed)
			}
		}
	}

	for k := 0; k < len(offsets); k++ {
		// Exact record boundary: recover exactly k ops.
		checkRecovered(t, raw[:offsets[k]], k)
		// Torn tail: a few bytes past the boundary recover the same k
		// ops (the partial record is truncated away).
		if k < len(offsets)-1 {
			cut := offsets[k] + (offsets[k+1]-offsets[k])/2
			checkRecovered(t, raw[:cut], k)
		}
	}
	// Corrupt-checksum tail: damage each record in turn; recovery stops
	// just before it.
	for k := 0; k < len(offsets)-1; k++ {
		bad := append([]byte(nil), raw...)
		bad[offsets[k]+9] ^= 0xA5 // first payload byte of record k
		checkRecovered(t, bad[:offsets[k+1]], k)
	}
}

// TestStoreFaultInjection cuts the store log at every record boundary:
// the recovered store must hold exactly the prefix of releases, each
// byte-identical to the original — so a healed replica tier converges
// back to the same releases.
func TestStoreFaultInjection(t *testing.T) {
	srcDir := t.TempDir()
	p := mustOpen(t, srcDir, Options{})
	var releases [][]byte
	for i := 0; i < 4; i++ {
		v := p.Store.Publish(testBundle("m", float64(i)/100))
		b, _ := p.Store.Get("m", v)
		releases = append(releases, b.CanonicalBytes())
	}
	p.Close()
	storePath := filepath.Join(srcDir, StoreLogName)
	raw, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	offsets := boundaries(t, storePath)
	if len(offsets) != 5 {
		t.Fatalf("expected 4 records, got boundaries %v", offsets)
	}
	for k := 0; k < len(offsets); k++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, StoreLogName), raw[:offsets[k]], 0o644); err != nil {
			t.Fatal(err)
		}
		p2 := mustOpen(t, dir, Options{})
		if got := p2.Store.VersionCount("m"); got != k {
			t.Fatalf("prefix %d: recovered %d versions", k, got)
		}
		for v := 1; v <= k; v++ {
			b, ok := p2.Store.Get("m", v)
			if !ok || !bytes.Equal(b.CanonicalBytes(), releases[v-1]) {
				t.Fatalf("prefix %d: version %d diverges", k, v)
			}
		}
		p2.Close()
	}
}

// TestRandomizedRecoveryConservative drives a random (seeded) workload
// and checks the under-count invariant at every journal boundary —
// the property-test half of the fault-injection satellite.
func TestRandomizedRecoveryConservative(t *testing.T) {
	r := rng.New(1234)
	srcDir := t.TempDir()
	p := mustOpen(t, srcDir, Options{})

	type pending struct {
		blocks []data.BlockID
		remain float64
	}
	var (
		nextBlock data.BlockID
		live      []data.BlockID
		open      []pending
	)

	// Record every acknowledged op as a delta and link refunds to their
	// reservation's op index, so the consumed floor of any journal
	// prefix can be computed retroactively.
	type opDelta struct {
		blocks   []data.BlockID
		eps      float64 // positive = reservation, negative = refund
		resIndex int     // for refunds: index (in resOps) of the reservation
	}
	var deltas []opDelta
	var resOps []int // delta indices that are reservations

	register := func() {
		p.AC.RegisterBlock(nextBlock)
		live = append(live, nextBlock)
		nextBlock++
		deltas = append(deltas, opDelta{})
	}
	register()
	register()

	for i := 0; i < 60; i++ {
		switch {
		case r.Float64() < 0.2:
			register()
		case len(open) > 0 && r.Float64() < 0.45:
			// Refund part of a pending reservation.
			j := r.IntN(len(open))
			amt := open[j].remain * (0.25 + 0.5*r.Float64())
			if err := p.AC.Refund(open[j].blocks, privacy.Budget{Epsilon: amt}); err != nil {
				t.Fatalf("refund: %v", err)
			}
			open[j].remain -= amt
			deltas = append(deltas, opDelta{blocks: open[j].blocks, eps: -amt, resIndex: resOps[j]})
			if open[j].remain < 1e-9 {
				open = append(open[:j], open[j+1:]...)
				resOps = append(resOps[:j], resOps[j+1:]...)
			}
		default:
			// Request a small budget on a random affordable window.
			eps := 0.02 + 0.1*r.Float64()
			cand := p.AC.AvailableBlocks(live, privacy.Budget{Epsilon: eps})
			if len(cand) == 0 {
				register()
				continue
			}
			n := 1 + r.IntN(len(cand))
			blocks := cand[len(cand)-n:]
			if err := p.AC.Request(blocks, privacy.Budget{Epsilon: eps}); err != nil {
				t.Fatalf("request: %v", err)
			}
			open = append(open, pending{blocks: blocks, remain: eps})
			resOps = append(resOps, len(deltas))
			deltas = append(deltas, opDelta{blocks: blocks, eps: eps})
		}
	}
	p.Close()

	// consumedFloor(k): for reservations journaled in the first k ops,
	// reservation minus ALL refunds ever issued against them.
	consumedFloor := func(k int) map[data.BlockID]float64 {
		out := map[data.BlockID]float64{}
		for i := 0; i < k; i++ {
			d := deltas[i]
			if d.eps > 0 {
				for _, id := range d.blocks {
					out[id] += d.eps
				}
			}
		}
		for _, d := range deltas { // refunds at ANY index count against early reservations
			if d.eps < 0 && d.resIndex < k {
				for _, id := range d.blocks {
					out[id] += d.eps
				}
			}
		}
		return out
	}

	ledgerPath := filepath.Join(srcDir, LedgerLogName)
	raw, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	offsets := boundaries(t, ledgerPath)
	if len(offsets) != len(deltas)+1 {
		t.Fatalf("%d boundaries for %d ops", len(offsets)-1, len(deltas))
	}
	const tol = 1e-9
	for k := 0; k <= len(deltas); k++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, LedgerLogName), raw[:offsets[k]], 0o644); err != nil {
			t.Fatal(err)
		}
		p2 := mustOpen(t, dir, Options{})
		for id, consumed := range consumedFloor(k) {
			if loss := p2.AC.BlockLoss(id); loss.Epsilon+tol < consumed {
				t.Fatalf("prefix %d: block %d loss %v under-counts consumed %v", k, id, loss.Epsilon, consumed)
			}
		}
		p2.Close()
	}
}

// TestRetentionStickinessSurvivesRecovery: a block retired through the
// retention hook (raw data deleted) must stay retired after recovery
// even if a refund would otherwise resurrect it.
func TestRetentionStickinessSurvivesRecovery(t *testing.T) {
	dir := t.TempDir()
	deleted := map[data.BlockID]bool{}
	p, _, err := Open(dir, testPolicy, Options{OnRetire: func(id data.BlockID) { deleted[id] = true }})
	if err != nil {
		t.Fatal(err)
	}
	p.AC.RegisterBlock(1)
	// Exhaust the block: retention hook fires, data gone.
	if err := p.AC.Request([]data.BlockID{1}, privacy.MustBudget(1.0, 1e-7)); err != nil {
		t.Fatal(err)
	}
	if !deleted[1] || !p.AC.Retired(1) {
		t.Fatal("block not retired/deleted")
	}
	p.Close()

	recovered := map[data.BlockID]bool{}
	p2, _, err := Open(dir, testPolicy, Options{OnRetire: func(id data.BlockID) { recovered[id] = true }})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !p2.AC.Retired(1) || !recovered[1] {
		t.Fatal("retirement not replayed")
	}
	if err := p2.AC.Refund([]data.BlockID{1}, privacy.MustBudget(0.9, 0)); err != nil {
		t.Fatal(err)
	}
	if !p2.AC.Retired(1) {
		t.Fatal("retention-deleted block resurrected after recovery")
	}
}

// TestMismatchedPolicyFailsClosed: recovering under a smaller global
// ceiling than the log was written with must fail — through BOTH
// recovery paths. Raw op replay fails because a request that was
// admissible then is not now; a compacted snapshot fails because
// RestoreSnapshot validates restored losses against the ceiling. The
// outcome must not depend on whether a compaction happened to run
// before the crash.
func TestMismatchedPolicyFailsClosed(t *testing.T) {
	for _, compacted := range []bool{false, true} {
		dir := t.TempDir()
		p := mustOpen(t, dir, Options{})
		p.AC.RegisterBlock(1)
		if err := p.AC.Request([]data.BlockID{1}, privacy.MustBudget(0.8, 0)); err != nil {
			t.Fatal(err)
		}
		if compacted {
			if err := p.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		p.Close()
		_, _, err := Open(dir, core.Policy{Global: privacy.MustBudget(0.5, 1e-6)}, Options{})
		if err == nil {
			t.Fatalf("journal (compacted=%v) recovered under a tighter policy", compacted)
		}
	}
}

// TestOverRefundRecordFailsOpen: a refund record that is CRC-valid but
// asks a registered block for more than its loss — damage a
// checksum cannot see, or the journal of a caller bug — used to panic
// recovery inside the per-block accountant. Open must fail instead, in
// the single-segment and the three-segment layout, and say which record.
func TestOverRefundRecordFailsOpen(t *testing.T) {
	for _, nshards := range []int{1, 3} {
		dir := t.TempDir()
		p := mustOpen(t, dir, Options{LedgerShards: nshards, NoSync: true})
		const id = data.BlockID(5)
		if _, err := p.AC.AdmitBlock(id, privacy.MustBudget(0.05, 0)); err != nil {
			t.Fatal(err)
		}
		if err := p.AC.Request([]data.BlockID{id}, privacy.MustBudget(0.25, 1e-8)); err != nil {
			t.Fatal(err)
		}
		shard := p.AC.ShardOf(id)
		p.Close()

		// The damaged record goes where the block's records live,
		// framed and checksummed like any other.
		seg, _, err := wal.Open(filepath.Join(dir, LedgerSegmentName(shard, nshards)), wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		over := core.LedgerRecord{Op: core.LedgerRefund, Blocks: []data.BlockID{id}, Budget: privacy.MustBudget(0.75, 0)}
		if err := seg.Append(recLedgerOp, over.Encode()); err != nil {
			t.Fatal(err)
		}
		seg.Close()

		_, _, err = Open(dir, testPolicy, Options{LedgerShards: nshards, NoSync: true})
		var refused core.ErrRefundExceedsSpend
		if !errors.As(err, &refused) || refused.ID != id {
			t.Fatalf("%d shard(s): Open = %v, want an error wrapping ErrRefundExceedsSpend for block %d", nshards, err, id)
		}
	}
}
