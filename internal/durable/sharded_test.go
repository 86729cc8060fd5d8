package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
)

// TestShardedLayoutDetection pins the directory-layout rules: the
// segment count is fixed at creation, on-disk layout beats the
// configured flag, and ambiguous/mixed layouts fail closed.
func TestShardedLayoutDetection(t *testing.T) {
	t.Run("fresh dir creates N segments", func(t *testing.T) {
		dir := t.TempDir()
		p, stats, err := Open(dir, testPolicy, Options{LedgerShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		if stats.LedgerShards != 4 || p.LedgerShards() != 4 {
			t.Fatalf("got %d shards, want 4", stats.LedgerShards)
		}
		p.AC.RegisterBlock(1)
		p.Close()
		for k := 0; k < 4; k++ {
			if !fileExists(filepath.Join(dir, LedgerSegmentName(k, 4))) {
				t.Fatalf("segment %d missing", k)
			}
		}
		if fi, err := os.Stat(filepath.Join(dir, LedgerLogName)); err == nil && fi.Size() > 0 {
			t.Fatal("sharded dir also grew a legacy ledger.wal")
		}
	})
	t.Run("on-disk layout wins over flag", func(t *testing.T) {
		dir := t.TempDir()
		p, _, err := Open(dir, testPolicy, Options{LedgerShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		p.AC.RegisterBlock(7)
		p.Close()
		// Reopen asking for 8: the 4-way layout on disk is authoritative.
		p2, stats, err := Open(dir, testPolicy, Options{LedgerShards: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Close()
		if stats.LedgerShards != 4 {
			t.Fatalf("re-striped existing dir: got %d shards, want 4", stats.LedgerShards)
		}
		if p2.AC.NumBlocks() != 1 {
			t.Fatal("lost state across shard-flag change")
		}
	})
	t.Run("legacy dir stays single-segment", func(t *testing.T) {
		dir := t.TempDir()
		p := mustOpen(t, dir, Options{})
		p.AC.RegisterBlock(3)
		p.Close()
		p2, stats, err := Open(dir, testPolicy, Options{LedgerShards: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer p2.Close()
		if stats.LedgerShards != 1 {
			t.Fatalf("legacy dir re-striped to %d shards", stats.LedgerShards)
		}
	})
	t.Run("ambiguous layout fails closed", func(t *testing.T) {
		dir := t.TempDir()
		p, _, err := Open(dir, testPolicy, Options{LedgerShards: 2})
		if err != nil {
			t.Fatal(err)
		}
		p.AC.RegisterBlock(1)
		p.Close()
		// A non-empty legacy log alongside segments is ambiguous.
		if err := os.WriteFile(filepath.Join(dir, LedgerLogName), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(dir, testPolicy, Options{}); err == nil {
			t.Fatal("ambiguous layout opened")
		}
	})
	t.Run("mixed segment counts fail closed", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range []string{"ledger-0-of-2.wal", "ledger-0-of-3.wal"} {
			if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := Open(dir, testPolicy, Options{}); err == nil {
			t.Fatal("mixed-stripe layout opened")
		}
	})
}

// TestShardedReopenReconstructsExactState is the sharded twin of
// TestReopenReconstructsExactState: every acknowledged mutation —
// including cross-shard requests and refunds — survives close/reopen
// byte-exactly, with and without compaction in between.
func TestShardedReopenReconstructsExactState(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, Options{LedgerShards: 4})
	for id := data.BlockID(0); id < 12; id++ {
		p.AC.RegisterBlock(id)
	}
	// Cross-shard request/refund/retire traffic.
	if err := p.AC.Request([]data.BlockID{0, 1, 2, 3, 4, 5}, privacy.MustBudget(0.5, 1e-8)); err != nil {
		t.Fatal(err)
	}
	if err := p.AC.Refund([]data.BlockID{1, 2, 3}, privacy.MustBudget(0.25, 0)); err != nil {
		t.Fatal(err)
	}
	if err := p.AC.Retire(11); err != nil {
		t.Fatal(err)
	}
	p.Store.Publish(testBundle("m", 0.01))
	want := viewOf(p.AC)
	p.Close()

	p2 := mustOpen(t, dir, Options{})
	if got := viewOf(p2.AC); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded ledger differs after reopen:\n got %+v\nwant %+v", got, want)
	}
	// Compact (per segment), mutate, reopen again.
	if err := p2.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := p2.AC.Request([]data.BlockID{6, 7}, privacy.MustBudget(0.1, 0)); err != nil {
		t.Fatal(err)
	}
	want2 := viewOf(p2.AC)
	p2.Close()
	p3 := mustOpen(t, dir, Options{})
	defer p3.Close()
	if got := viewOf(p3.AC); !reflect.DeepEqual(got, want2) {
		t.Fatalf("state after per-segment compact+reopen differs:\n got %+v\nwant %+v", got, want2)
	}
}

// TestShardedFaultInjectionAcrossSegments extends the every-boundary
// fault matrix to the multi-segment layout. For each segment s and each
// of its record boundaries, the segment is cut there (torn mid-record
// variants included) while the other segments stay whole — the crash
// shape sharding introduces: one shard's fsync lagging the others. The
// recovered ledger must (a) keep every block of the untouched shards
// byte-exact, (b) never under-count the consumed-budget floor of the
// operations that were actually acknowledged in that crash timeline on
// the cut shard's blocks, and (c) hold every AdmitBlock-admitted block
// either not at all or with at least its admission charge.
func TestShardedFaultInjectionAcrossSegments(t *testing.T) {
	const nshards = 3
	srcDir := t.TempDir()
	p := mustOpen(t, srcDir, Options{LedgerShards: nshards})
	shardOf := p.AC.ShardOf

	// Scripted workload mixing single- and cross-shard ops. Each
	// reservation declares the refunds eventually issued against it.
	type reservation struct {
		op     int // op index
		blocks []data.BlockID
		eps    float64
		refund float64 // total eventually refunded
	}
	var (
		reservations []reservation
		opIndex      = -1
		// segLen[i][s] = byte length of segment s right after op i acked.
		segLen [][]int64
	)
	mark := func() {
		opIndex++
		sizes := make([]int64, nshards)
		for s := 0; s < nshards; s++ {
			sizes[s] = p.ledgerSegs[s].Size()
		}
		segLen = append(segLen, sizes)
	}
	register := func(id data.BlockID) {
		p.AC.RegisterBlock(id)
		mark()
	}
	request := func(blocks []data.BlockID, eps, eventualRefund float64) {
		if err := p.AC.Request(blocks, privacy.Budget{Epsilon: eps}); err != nil {
			t.Fatalf("request %v: %v", blocks, err)
		}
		mark()
		reservations = append(reservations, reservation{op: opIndex, blocks: blocks, eps: eps, refund: eventualRefund})
	}
	// An admission charge is a reservation that is never refunded.
	charges := map[data.BlockID]float64{}
	admit := func(id data.BlockID, eps float64) {
		if ok, err := p.AC.AdmitBlock(id, privacy.Budget{Epsilon: eps}); !ok || err != nil {
			t.Fatalf("admit %d: %v, %v", id, ok, err)
		}
		charges[id] = eps
		mark()
		reservations = append(reservations, reservation{op: opIndex, blocks: []data.BlockID{id}, eps: eps})
	}
	refund := func(blocks []data.BlockID, eps float64) {
		if err := p.AC.Refund(blocks, privacy.Budget{Epsilon: eps}); err != nil {
			t.Fatalf("refund %v: %v", blocks, err)
		}
		mark()
	}

	for id := data.BlockID(0); id < 9; id++ {
		register(id)
	}
	request([]data.BlockID{0, 1, 2}, 0.4, 0.2) // spans shards
	request([]data.BlockID{3, 4}, 0.3, 0)
	refund([]data.BlockID{0, 1, 2}, 0.2)
	request([]data.BlockID{5, 6, 7, 8}, 0.5, 0.25)
	request([]data.BlockID{0, 3, 6}, 0.2, 0)
	refund([]data.BlockID{5, 6, 7, 8}, 0.25)
	admitted := []data.BlockID{9, 11, 14} // one per shard, so every segment is cut around an admission
	for k, id := range admitted {
		if shardOf(id) != (k+1)%nshards {
			t.Fatalf("block %d lives in shard %d: pick admitted ids that cover every shard", id, shardOf(id))
		}
		admit(id, 0.05)
	}
	request(append([]data.BlockID{4}, admitted...), 0.25, 0.25)
	refund(append([]data.BlockID{4}, admitted...), 0.25)
	if err := p.AC.Retire(2); err != nil {
		t.Fatal(err)
	}
	mark()
	finalReport := map[data.BlockID]core.BlockReport{}
	for _, r := range p.AC.Report(p.AC.Blocks()) {
		finalReport[r.ID] = r
	}
	p.Close()

	raws := make([][]byte, nshards)
	for s := 0; s < nshards; s++ {
		raw, err := os.ReadFile(filepath.Join(srcDir, LedgerSegmentName(s, nshards)))
		if err != nil {
			t.Fatal(err)
		}
		raws[s] = raw
	}

	// floor(i, id): consumed budget the recovery of a timeline "ops ≤ i
	// acked on this block's shard" must never under-count: every
	// reservation acked by op i, minus everything EVER refunded against
	// it (a lost refund only makes recovery more conservative).
	floor := func(i int, id data.BlockID) float64 {
		f := 0.0
		for _, r := range reservations {
			if r.op > i {
				continue
			}
			for _, b := range r.blocks {
				if b == id {
					f += r.eps - r.refund
				}
			}
		}
		return f
	}

	checkTimeline := func(t *testing.T, s, i int, cutBytes int64) {
		dir := t.TempDir()
		for k := 0; k < nshards; k++ {
			raw := raws[k]
			if k == s {
				raw = raw[:cutBytes]
			}
			if err := os.WriteFile(filepath.Join(dir, LedgerSegmentName(k, nshards)), raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		p2 := mustOpen(t, dir, Options{})
		defer p2.Close()
		const tol = 1e-12
		for id, want := range finalReport {
			if shardOf(id) != s {
				// Untouched shards recover byte-exact: every one of their
				// records survives, including sub-records of operations
				// that were never acknowledged (journaled-but-unacked is
				// the allowed, conservative direction).
				got := p2.AC.Report([]data.BlockID{id})
				if len(got) != 1 || got[0] != want {
					t.Fatalf("segment %d cut at op %d: untouched block %d diverged:\n got %+v\nwant %+v",
						s, i, id, got, want)
				}
				continue
			}
			// Cut shard: conservativeness floor.
			loss := p2.AC.BlockLoss(id)
			if loss.Epsilon+tol < floor(i, id) {
				t.Fatalf("segment %d cut at op %d: block %d loss %v under-counts consumed %v",
					s, i, id, loss.Epsilon, floor(i, id))
			}
			// An admitted block is absent or charged: no cut of its one
			// record leaves it registered with zero loss.
			if charge, admitted := charges[id]; admitted && len(p2.AC.Report([]data.BlockID{id})) == 1 && loss.Epsilon+tol < charge {
				t.Fatalf("segment %d cut at op %d: block %d is registered with loss %v, below its admission charge %v",
					s, i, id, loss.Epsilon, charge)
			}
		}
	}

	for s := 0; s < nshards; s++ {
		// Every per-op boundary of this segment, plus torn mid-record
		// cuts between consecutive boundaries.
		checkTimeline(t, s, -1, 0)
		for i := 0; i < len(segLen); i++ {
			checkTimeline(t, s, i, segLen[i][s])
			if next := segLen[i][s] + (segmentLenAfter(segLen, i, s)-segLen[i][s])/2; next > segLen[i][s] {
				checkTimeline(t, s, i, next)
			}
		}
	}
}

// segmentLenAfter returns segment s's length after the first op past i
// that grew it (or the final length).
func segmentLenAfter(segLen [][]int64, i, s int) int64 {
	for j := i + 1; j < len(segLen); j++ {
		if segLen[j][s] > segLen[i][s] {
			return segLen[j][s]
		}
	}
	return segLen[i][s]
}

// TestCompactIfLargerIsPerSegment pins size-triggered compaction
// granularity: only segments over the threshold are rewritten, cold
// segments keep their raw journals.
func TestCompactIfLargerIsPerSegment(t *testing.T) {
	dir := t.TempDir()
	p := mustOpen(t, dir, Options{LedgerShards: 2})
	defer p.Close()
	// Find block ids for each shard.
	var hot, cold data.BlockID
	found := 0
	for id := data.BlockID(0); found < 2; id++ {
		switch p.AC.ShardOf(id) {
		case 0:
			if found&1 == 0 {
				hot = id
				found |= 1
			}
		case 1:
			if found&2 == 0 {
				cold = id
				found |= 2
			}
		}
	}
	p.AC.RegisterBlock(hot)
	p.AC.RegisterBlock(cold)
	// Hammer the hot shard only.
	for i := 0; i < 50; i++ {
		if err := p.AC.Request([]data.BlockID{hot}, privacy.Budget{Epsilon: 0.001}); err != nil {
			t.Fatal(err)
		}
	}
	hotSeg := p.ledgerSegs[p.AC.ShardOf(hot)]
	coldSeg := p.ledgerSegs[p.AC.ShardOf(cold)]
	coldRecords := coldSeg.Records()
	threshold := coldSeg.Size() + 1 // cold under, hot far over
	if hotSeg.Size() <= threshold {
		t.Fatalf("test setup: hot segment %d not over threshold %d", hotSeg.Size(), threshold)
	}
	n, err := p.CompactIfLarger(threshold)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("compacted %d logs, want 1 (hot segment only)", n)
	}
	if hotSeg.Records() != 1 {
		t.Fatalf("hot segment has %d records after compaction, want 1 snapshot", hotSeg.Records())
	}
	if coldSeg.Records() != coldRecords {
		t.Fatalf("cold segment rewritten: %d -> %d records", coldRecords, coldSeg.Records())
	}
	// Nothing over threshold → no-op: no log is larger than all of them.
	ledger, bundles := p.LogSizes()
	if n, err := p.CompactIfLarger(ledger + bundles); err != nil || n != 0 {
		t.Fatalf("no-op compaction: n=%d err=%v", n, err)
	}
}

// TestLogFilesListsLayout checks the inspection helper against both
// layouts.
func TestLogFilesListsLayout(t *testing.T) {
	legacy := t.TempDir()
	p := mustOpen(t, legacy, Options{})
	p.AC.RegisterBlock(1)
	p.Close()
	files, err := LogFiles(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 2 || filepath.Base(files[0]) != LedgerLogName || filepath.Base(files[1]) != StoreLogName {
		t.Fatalf("legacy layout listed wrong: %v", files)
	}

	sharded := t.TempDir()
	p2 := mustOpen(t, sharded, Options{LedgerShards: 3})
	p2.AC.RegisterBlock(1)
	p2.Close()
	files, err = LogFiles(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 4 {
		t.Fatalf("sharded layout listed %d files, want 4", len(files))
	}
	for k := 0; k < 3; k++ {
		if filepath.Base(files[k]) != fmt.Sprintf("ledger-%d-of-3.wal", k) {
			t.Fatalf("file %d = %s", k, files[k])
		}
	}
}
