package core

import (
	"bytes"
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
)

var fuzzPolicy = Policy{Global: privacy.MustBudget(1.0, 1e-6)}

// FuzzDecodeLedgerRecord feeds the journal-record decoder arbitrary
// bytes — recovery reads it, and "damaged but CRC-valid" is the case a
// checksum cannot catch. It must never panic; anything it accepts must
// re-encode to exactly the input (the journal is also the audit trail);
// and replaying an accepted record must either fail or leave every block
// under the ceiling — on a fresh ledger, and again on one where the
// record's blocks are already registered and hold a spend, which is the
// only place a refund or a request gets past "unknown block" (a refund
// larger than the spends used to panic there). A refused refund or
// request leaves that ledger byte for byte as it was.
func FuzzDecodeLedgerRecord(f *testing.F) {
	for _, rec := range []LedgerRecord{
		{Op: LedgerRegister, Blocks: []data.BlockID{7}},
		{Op: LedgerRegister, Blocks: []data.BlockID{7}, Budget: privacy.MustBudget(0.05, 0)},
		{Op: LedgerRegister, Blocks: []data.BlockID{1, 2}, Budget: privacy.MustBudget(2, 0)},
		{Op: LedgerRequest, Blocks: []data.BlockID{1, 2, 3}, Budget: privacy.MustBudget(0.25, 1e-8)},
		{Op: LedgerRefund, Blocks: []data.BlockID{2}, Budget: privacy.MustBudget(0.125, 0)},
		{Op: LedgerRefund, Blocks: []data.BlockID{2, 3}, Budget: privacy.MustBudget(0.03125, 1e-9)},
		{Op: LedgerRetire, Blocks: []data.BlockID{42}},
	} {
		raw := rec.Encode()
		f.Add(raw)
		f.Add(raw[:len(raw)-3])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, err := DecodeLedgerRecord(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(rec.Encode(), raw) {
			t.Fatalf("accepted input does not re-encode to itself:\n in  %x\n out %x", raw, rec.Encode())
		}
		checkUnderCeiling := func(ac *AccessControl) {
			if loss := ac.StreamLoss(); !fuzzPolicy.Global.Covers(loss) || !fuzzPolicy.Global.Covers(ac.StreamLossWatermark()) {
				t.Fatalf("replaying %+v put the ledger at %v, above the ceiling %v", rec, loss, fuzzPolicy.Global)
			}
		}
		if ac := NewAccessControl(fuzzPolicy); ac.Apply(rec) == nil {
			checkUnderCeiling(ac)
		}
		live := NewShardedAccessControl(fuzzPolicy, 3)
		for _, id := range rec.Blocks {
			if _, err := live.AdmitBlock(id, privacy.MustBudget(0.0625, 1e-8)); err != nil {
				t.Fatal(err)
			}
		}
		before := live.Snapshot()
		if err := live.Apply(rec); err == nil {
			checkUnderCeiling(live)
		} else if (rec.Op == LedgerRefund || rec.Op == LedgerRequest) && !bytes.Equal(live.Snapshot(), before) {
			t.Fatalf("replaying %+v failed (%v) and still changed the ledger", rec, err)
		}
	})
}

// layout1Block is one block entry of a layout-1 snapshot.
type layout1Block struct {
	id     data.BlockID
	flags  byte // 1 retired, 2 sticky
	reason RetireReason
	spends []privacy.Budget
}

// encodeLayout1 hand-encodes a layout-1 snapshot, the layout written
// before snapshots held each block's loss: the version (1) and the block
// count, then per block its id, flags, reason, and the charges left
// after refunds, each as ε then δ.
func encodeLayout1(blocks ...layout1Block) []byte {
	buf := AppendUint(nil, 1)
	buf = AppendUint(buf, uint64(len(blocks)))
	for _, b := range blocks {
		buf = AppendUint(buf, uint64(b.id))
		buf = append(buf, b.flags)
		buf = AppendString(buf, string(b.reason))
		buf = AppendUint(buf, uint64(len(b.spends)))
		for _, s := range b.spends {
			buf = AppendFloat(buf, s.Epsilon)
			buf = AppendFloat(buf, s.Delta)
		}
	}
	return buf
}

// layout1Blocks is a ledger in layout-1 terms: blocks 0-4 after
// admission, a request on 0-2, a refund on 1, block 0's exhaustion under
// a retention hook and block 4's forced retirement.
var layout1Blocks = []layout1Block{
	{0, 3, RetireDataDeleted, []privacy.Budget{{Epsilon: 0.05, Delta: 1e-9}, {Epsilon: 0.5, Delta: 1e-8}, {Epsilon: 0.45}}},
	{1, 0, RetireNone, []privacy.Budget{{Epsilon: 0.05, Delta: 1e-9}, {Epsilon: 0.25, Delta: 1e-8}}},
	{2, 0, RetireNone, []privacy.Budget{{Epsilon: 0.05, Delta: 1e-9}, {Epsilon: 0.5, Delta: 1e-8}}},
	{3, 0, RetireNone, []privacy.Budget{{Epsilon: 0.05, Delta: 1e-9}}},
	{4, 3, RetireForced, []privacy.Budget{{Epsilon: 0.05, Delta: 1e-9}}},
}

// FuzzRestoreSnapshot feeds the compaction-snapshot decoder arbitrary
// bytes. It must never panic or build more blocks than its payload can
// describe; an accepted snapshot leaves every block under the ceiling,
// and Snapshot → RestoreSnapshot → Snapshot is a fixed point (what
// compaction writes is what the next compaction would write). The
// layout-1 seeds (whole, truncated, one shard's blocks) run the legacy
// decoder: layout 1 in, layout 2 out, and layout 2 is the fixed point.
func FuzzRestoreSnapshot(f *testing.F) {
	ac := NewShardedAccessControl(fuzzPolicy, 3)
	ac.SetRetireCallback(func(data.BlockID) {})
	f.Add(ac.Snapshot())
	for id := data.BlockID(0); id < 5; id++ {
		if _, err := ac.AdmitBlock(id, privacy.MustBudget(0.05, 1e-9)); err != nil {
			f.Fatal(err)
		}
	}
	_ = ac.Request([]data.BlockID{0, 1, 2}, privacy.MustBudget(0.5, 1e-8))
	_ = ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.25, 0))
	_ = ac.Request([]data.BlockID{0}, privacy.MustBudget(0.45, 0)) // exhausts block 0
	_ = ac.Retire(4)
	snap := ac.Snapshot()
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Add(ac.SnapshotShard(1))
	v1 := encodeLayout1(layout1Blocks...)
	f.Add(v1)
	f.Add(v1[:len(v1)-20])
	var shard1 []layout1Block
	for _, b := range layout1Blocks {
		if ac.ShardOf(b.id) == 1 {
			shard1 = append(shard1, b)
		}
	}
	f.Add(encodeLayout1(shard1...))
	f.Fuzz(func(t *testing.T, raw []byte) {
		restored := NewAccessControl(fuzzPolicy)
		if err := restored.RestoreSnapshot(raw); err != nil {
			return
		}
		if n := restored.NumBlocks(); n > len(raw)/25 {
			t.Fatalf("%d blocks restored from %d bytes", n, len(raw))
		}
		if loss := restored.StreamLoss(); !fuzzPolicy.Global.Covers(loss) {
			t.Fatalf("restored ledger is at %v, above the ceiling %v", loss, fuzzPolicy.Global)
		}
		once := restored.Snapshot()
		again := NewAccessControl(fuzzPolicy)
		if err := again.RestoreSnapshot(once); err != nil {
			t.Fatalf("a snapshot the ledger wrote does not restore: %v", err)
		}
		if twice := again.Snapshot(); !bytes.Equal(twice, once) {
			t.Fatalf("Snapshot → RestoreSnapshot → Snapshot is not a fixed point:\n once  %x\n twice %x", once, twice)
		}
	})
}
