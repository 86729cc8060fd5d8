package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
)

// TestShardOfStable pins the id→shard mapping. internal/durable routes
// each shard's journal records to its own WAL segment, so this mapping
// is an on-disk compatibility surface: changing it would replay a
// block's records from the wrong segment. If this test fails you have
// broken recovery of every existing multi-segment durable directory.
func TestShardOfStable(t *testing.T) {
	policy := Policy{Global: privacy.MustBudget(1.0, 1e-6)}
	golden := map[int][]int{
		4: {0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3},
		8: {0, 5, 2, 7, 4, 1, 6, 3, 0, 5, 2, 7},
	}
	for n, want := range golden {
		ac := NewShardedAccessControl(policy, n)
		for id, w := range want {
			if got := ac.ShardOf(data.BlockID(id)); got != w {
				t.Fatalf("ShardOf(%d) with %d shards = %d, want %d", id, n, got, w)
			}
		}
	}
	// One shard always maps to 0, whatever the id.
	ac := NewAccessControl(policy)
	if ac.NumShards() != 1 || ac.ShardOf(123456789) != 0 {
		t.Fatal("single-shard mapping broken")
	}
}

// TestShardedSemanticsMatchSingleShard runs the same scripted workload
// against a 1-shard and an 8-shard ledger and requires identical
// observable state — sharding is a layout change, not a semantics
// change.
func TestShardedSemanticsMatchSingleShard(t *testing.T) {
	policy := Policy{Global: privacy.MustBudget(1.0, 1e-6)}
	one := NewAccessControl(policy)
	many := NewShardedAccessControl(policy, 8)
	rng := rand.New(rand.NewSource(42))

	ids := make([]data.BlockID, 20)
	for i := range ids {
		ids[i] = data.BlockID(i)
		one.RegisterBlock(ids[i])
		many.RegisterBlock(ids[i])
	}
	// granted remembers reservations both ledgers admitted, so refunds
	// always return part of a real reservation (the only refunds the
	// platform issues).
	type grant struct {
		ids []data.BlockID
		b   privacy.Budget
	}
	var granted []grant
	for step := 0; step < 400; step++ {
		// Random subset, duplicates included to exercise coalescing.
		var subset []data.BlockID
		for n := rng.Intn(6) + 1; n > 0; n-- {
			subset = append(subset, ids[rng.Intn(len(ids))])
		}
		b := privacy.Budget{Epsilon: 0.05 + 0.1*rng.Float64(), Delta: 1e-9}
		switch op := rng.Intn(10); {
		case op == 0:
			id := ids[rng.Intn(len(ids))]
			e1, e2 := one.Retire(id), many.Retire(id)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: retire diverged: %v vs %v", step, e1, e2)
			}
		case op <= 2 && len(granted) > 0:
			gi := rng.Intn(len(granted))
			g := granted[gi]
			half := privacy.Budget{Epsilon: g.b.Epsilon / 2, Delta: g.b.Delta / 2}
			e1, e2 := one.Refund(g.ids, half), many.Refund(g.ids, half)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: refund diverged: %v vs %v", step, e1, e2)
			}
			granted = append(granted[:gi], granted[gi+1:]...)
		default:
			e1, e2 := one.Request(subset, b), many.Request(subset, b)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: request diverged: %v vs %v", step, e1, e2)
			}
			if e1 == nil {
				granted = append(granted, grant{ids: subset, b: b})
			}
		}
	}
	if got, want := many.StreamLoss(), one.StreamLoss(); got != want {
		t.Fatalf("stream loss diverged: %v vs %v", got, want)
	}
	r1, r2 := one.Report(ids), many.Report(ids)
	if len(r1) != len(r2) {
		t.Fatalf("report lengths diverged: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("block %d report diverged:\n one: %+v\nmany: %+v", r1[i].ID, r1[i], r2[i])
		}
	}
}

// TestShardedCeilingUnderConcurrency is the multi-shard version of the
// pinned ceiling property: goroutines hammer requests and refunds over
// random cross-shard block sets and no block may ever exceed the global
// ceiling. Run with -race in CI.
func TestShardedCeilingUnderConcurrency(t *testing.T) {
	global := privacy.MustBudget(1.0, 1e-6)
	ac := NewShardedAccessControl(Policy{Global: global}, 8)
	const nBlocks = 64
	ids := make([]data.BlockID, nBlocks)
	for i := range ids {
		ids[i] = data.BlockID(i * 7) // stride so ids spread over shards
		ac.RegisterBlock(ids[i])
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 300; i++ {
				var subset []data.BlockID
				for n := rng.Intn(8) + 1; n > 0; n-- {
					subset = append(subset, ids[rng.Intn(nBlocks)])
				}
				b := privacy.Budget{Epsilon: 0.02 + 0.2*rng.Float64()}
				if err := ac.Request(subset, b); err == nil && rng.Intn(3) == 0 {
					// Refund part of a granted reservation.
					_ = ac.Refund(subset, privacy.Budget{Epsilon: b.Epsilon / 2})
				}
			}
		}(int64(w))
	}
	wg.Wait()
	for _, r := range ac.Report(ids) {
		if !global.Covers(r.Loss) {
			t.Fatalf("block %d exceeded ceiling: loss %v > %v", r.ID, r.Loss, global)
		}
	}
	if sl := ac.StreamLoss(); !global.Covers(sl) {
		t.Fatalf("stream loss %v exceeds ceiling %v", sl, global)
	}
	if wm := ac.StreamLossWatermark(); !global.Covers(wm) {
		t.Fatalf("watermark %v exceeds ceiling %v", wm, global)
	}
}

// TestConcurrentLedgerReads pins that the read API returns consistent,
// untorn views while charges race across shards: every Report row is
// internally consistent, AvailableBlocks never returns a retired block
// as of its shard-locked read, StreamLoss/StreamLossWatermark never
// exceed the ceiling mid-flight, and at quiescence the watermark bounds
// the exact stream loss from above. Run with -race in CI.
func TestConcurrentLedgerReads(t *testing.T) {
	global := privacy.MustBudget(1.0, 1e-6)
	ac := NewShardedAccessControl(Policy{Global: global}, 8)
	const nBlocks = 48
	ids := make([]data.BlockID, nBlocks)
	for i := range ids {
		ids[i] = data.BlockID(i)
		ac.RegisterBlock(ids[i])
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 500; i++ {
				var subset []data.BlockID
				for n := rng.Intn(6) + 1; n > 0; n-- {
					subset = append(subset, ids[rng.Intn(nBlocks)])
				}
				b := privacy.Budget{Epsilon: 0.01 + 0.05*rng.Float64()}
				if err := ac.Request(subset, b); err == nil && rng.Intn(4) == 0 {
					_ = ac.Refund(subset, privacy.Budget{Epsilon: b.Epsilon / 2})
				}
			}
		}(int64(100 + w))
	}

	var readers sync.WaitGroup
	readErr := make(chan error, 4)
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			probe := privacy.Budget{Epsilon: 0.01}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, row := range ac.Report(ids) {
					if !global.Covers(row.Loss) {
						readErr <- fmt.Errorf("torn/overflowed report row: block %d loss %v", row.ID, row.Loss)
						return
					}
					if row.Retired && !row.Remain.IsZero() {
						readErr <- fmt.Errorf("inconsistent row: block %d retired with remain %v", row.ID, row.Remain)
						return
					}
					if !row.Retired {
						if want := global.Sub(row.Loss); row.Remain != want {
							readErr <- fmt.Errorf("torn row: block %d remain %v, want ceiling-loss %v", row.ID, row.Remain, want)
							return
						}
					}
				}
				_ = ac.AvailableBlocks(ids, probe)
				if sl := ac.StreamLoss(); !global.Covers(sl) {
					readErr <- fmt.Errorf("stream loss %v over ceiling mid-flight", sl)
					return
				}
				if wm := ac.StreamLossWatermark(); !global.Covers(wm) {
					readErr <- fmt.Errorf("watermark %v over ceiling mid-flight", wm)
					return
				}
			}
		}()
	}

	writers.Wait()
	close(stop)
	readers.Wait()
	select {
	case err := <-readErr:
		t.Fatal(err)
	default:
	}

	// Quiescent: the monotone watermark must bound the exact loss, and
	// the exact loss must match a fresh per-block max.
	sl, wm := ac.StreamLoss(), ac.StreamLossWatermark()
	if wm.Epsilon < sl.Epsilon || wm.Delta < sl.Delta {
		t.Fatalf("watermark %v below quiescent stream loss %v", wm, sl)
	}
	var maxEps, maxDelta float64
	for _, row := range ac.Report(ids) {
		if row.Loss.Epsilon > maxEps {
			maxEps = row.Loss.Epsilon
		}
		if row.Loss.Delta > maxDelta {
			maxDelta = row.Loss.Delta
		}
	}
	if sl.Epsilon != maxEps || sl.Delta != maxDelta {
		t.Fatalf("quiescent stream loss %v != per-block max (%g, %g)", sl, maxEps, maxDelta)
	}
}

// TestMultiShardRequestAtomicity pins all-or-nothing admission across
// shards: a request naming blocks in several shards where one block
// cannot afford it must deduct nothing anywhere.
func TestMultiShardRequestAtomicity(t *testing.T) {
	global := privacy.MustBudget(1.0, 1e-6)
	ac := NewShardedAccessControl(Policy{Global: global}, 8)
	ids := []data.BlockID{0, 1, 2, 3, 4, 5, 6, 7} // spread over all 8 shards
	for _, id := range ids {
		ac.RegisterBlock(id)
	}
	// Exhaust one block.
	poor := ids[5]
	if err := ac.Request([]data.BlockID{poor}, privacy.Budget{Epsilon: 1.0}); err != nil {
		t.Fatal(err)
	}
	// A cross-shard request including the exhausted block must fail and
	// leave every other block untouched.
	if err := ac.Request(ids, privacy.Budget{Epsilon: 0.5}); err == nil {
		t.Fatal("request through exhausted block granted")
	}
	for _, id := range ids {
		if id == poor {
			continue
		}
		if loss := ac.BlockLoss(id); !loss.IsZero() {
			t.Fatalf("failed request leaked spend into block %d: %v", id, loss)
		}
	}
	// Same for refunds: one unknown block must abort the whole refund.
	if err := ac.Refund(append(append([]data.BlockID{}, ids[:4]...), 999), privacy.Budget{Epsilon: 0.1}); err == nil {
		t.Fatal("refund with unknown block accepted")
	}
	if loss := ac.BlockLoss(poor); loss.Epsilon != 1.0 {
		t.Fatalf("aborted refund mutated block %d: %v", poor, loss)
	}
}

// TestShardJournalSplitsRecords pins the per-shard journal contract: a
// multi-shard mutation stages exactly one sub-record per involved
// shard, each naming only blocks of that shard, whose union is the
// whole mutation.
func TestShardJournalSplitsRecords(t *testing.T) {
	policy := Policy{Global: privacy.MustBudget(10.0, 1e-6)}
	ac := NewShardedAccessControl(policy, 4)
	type staged struct {
		shard int
		rec   LedgerRecord
	}
	var got []staged
	ac.SetShardJournal(func(shard int, rec LedgerRecord) (func() error, error) {
		got = append(got, staged{shard, rec})
		return nil, nil
	})
	ids := []data.BlockID{0, 1, 2, 3, 4, 5} // shards 0 1 2 3 0 1 (golden map)
	for _, id := range ids {
		ac.RegisterBlock(id)
	}
	got = nil
	if err := ac.Request(ids, privacy.Budget{Epsilon: 0.5}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("request over 4 shards staged %d sub-records, want 4", len(got))
	}
	var union []data.BlockID
	lastShard := -1
	for _, s := range got {
		if s.rec.Op != LedgerRequest {
			t.Fatalf("staged op %v, want request", s.rec.Op)
		}
		if s.shard <= lastShard {
			t.Fatalf("sub-records not in ascending shard order: %d after %d", s.shard, lastShard)
		}
		lastShard = s.shard
		for _, id := range s.rec.Blocks {
			if ac.ShardOf(id) != s.shard {
				t.Fatalf("sub-record for shard %d names block %d of shard %d", s.shard, id, ac.ShardOf(id))
			}
			union = append(union, id)
		}
	}
	if len(union) != len(ids) {
		t.Fatalf("sub-records cover %d blocks, want %d", len(union), len(ids))
	}
	seen := map[data.BlockID]bool{}
	for _, id := range union {
		if seen[id] {
			t.Fatalf("block %d journaled twice", id)
		}
		seen[id] = true
	}
}

// TestShardedSnapshotRoundTrip pins that per-shard snapshots restored
// one at a time (merge semantics) reassemble exactly the state a full
// snapshot captures — the multi-segment recovery path.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	policy := Policy{Global: privacy.MustBudget(2.0, 1e-6), Arithmetic: privacy.StrongArithmetic{DeltaSlack: 1e-9}}
	ac := NewShardedAccessControl(policy, 4)
	for i := 0; i < 16; i++ {
		ac.RegisterBlock(data.BlockID(i))
	}
	for i := 0; i < 16; i += 2 {
		if err := ac.Request([]data.BlockID{data.BlockID(i), data.BlockID(i + 1)}, privacy.Budget{Epsilon: 0.3, Delta: 1e-8}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ac.Retire(3); err != nil {
		t.Fatal(err)
	}

	restored := NewShardedAccessControl(policy, 4)
	for k := 0; k < ac.NumShards(); k++ {
		if err := restored.RestoreSnapshot(ac.SnapshotShard(k)); err != nil {
			t.Fatalf("restore shard %d: %v", k, err)
		}
	}
	all := ac.Blocks()
	if got := restored.Blocks(); len(got) != len(all) {
		t.Fatalf("restored %d blocks, want %d", len(got), len(all))
	}
	ra, rb := ac.Report(all), restored.Report(all)
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("block %d diverged after per-shard restore:\nwant %+v\n got %+v", ra[i].ID, ra[i], rb[i])
		}
	}
	if restored.StreamLoss() != ac.StreamLoss() {
		t.Fatalf("stream loss diverged: %v vs %v", restored.StreamLoss(), ac.StreamLoss())
	}
	// Shard snapshots must also restore into a *differently* sharded
	// ledger (ids re-route by ShardOf) — a 1-shard tool reading an
	// 8-shard dir must see the same ledger.
	wide := NewAccessControl(policy)
	for k := 0; k < ac.NumShards(); k++ {
		if err := wide.RestoreSnapshot(ac.SnapshotShard(k)); err != nil {
			t.Fatal(err)
		}
	}
	if wide.StreamLoss() != ac.StreamLoss() {
		t.Fatal("cross-shard-count restore diverged")
	}
}

// TestConcurrentAdmissionAdmitsOnce races AdmitBlock against itself and
// against requests on the same ids: each block must be admitted by
// exactly one caller, journaled as exactly one register record carrying
// the charge, never seen by a request without that charge already
// spent, and never pushed past the ceiling. Run with -race in CI.
func TestConcurrentAdmissionAdmitsOnce(t *testing.T) {
	global := privacy.MustBudget(1.0, 1e-6)
	ac := NewShardedAccessControl(Policy{Global: global}, 4)
	var (
		mu        sync.Mutex
		registers = map[data.BlockID]int{}
	)
	ac.SetShardJournal(func(_ int, rec LedgerRecord) (func() error, error) {
		if rec.Op == LedgerRegister {
			mu.Lock()
			registers[rec.Blocks[0]]++
			mu.Unlock()
		}
		return nil, nil
	})
	const nBlocks = 200
	charge := privacy.Budget{Epsilon: 0.25}
	admitted := make([]int, 4)
	var wg sync.WaitGroup
	for w := range admitted {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := data.BlockID(0); id < nBlocks; id++ {
				ok, err := ac.AdmitBlock(id, charge)
				if err != nil {
					t.Errorf("admit %d: %v", id, err)
				}
				if ok {
					admitted[w]++
				}
				// A block a request can see has paid its admission.
				if err := ac.Request([]data.BlockID{id}, privacy.Budget{Epsilon: 0.125}); err == nil {
					if loss := ac.BlockLoss(id); loss.Epsilon < charge.Epsilon+0.125 {
						t.Errorf("block %d granted a request at loss %v, below charge + request", id, loss)
					}
				}
			}
		}()
	}
	wg.Wait()
	if total := admitted[0] + admitted[1] + admitted[2] + admitted[3]; total != nBlocks {
		t.Fatalf("%d successful admissions of %d blocks", total, nBlocks)
	}
	for id := data.BlockID(0); id < nBlocks; id++ {
		if registers[id] != 1 {
			t.Fatalf("block %d journaled %d register records", id, registers[id])
		}
	}
	if wm := ac.StreamLossWatermark(); !global.Covers(wm) {
		t.Fatalf("watermark %v exceeds ceiling %v", wm, global)
	}
}
