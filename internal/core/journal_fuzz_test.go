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

// FuzzRestoreSnapshot feeds the compaction-snapshot decoder arbitrary
// bytes. It must never panic or build more blocks than its payload can
// describe; an accepted snapshot leaves every block under the ceiling,
// and Snapshot → RestoreSnapshot → Snapshot is a fixed point (what
// compaction writes is what the next compaction would write).
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
