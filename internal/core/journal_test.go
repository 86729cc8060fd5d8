package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
)

// collectJournal installs a journal that appends every record to a
// slice and returns the slice pointer.
func collectJournal(ac *AccessControl) *[]LedgerRecord {
	var records []LedgerRecord
	ac.SetShardJournal(func(_ int, rec LedgerRecord) (func() error, error) {
		records = append(records, rec)
		return nil, nil
	})
	return &records
}

// replayRecords applies journal records to a fresh ledger through the
// public mutation methods — exactly what internal/durable's recovery
// does.
func replayRecords(t *testing.T, ac *AccessControl, records []LedgerRecord) {
	t.Helper()
	for i, rec := range records {
		var err error
		switch rec.Op {
		case LedgerRegister:
			for _, id := range rec.Blocks {
				ac.RegisterBlock(id)
			}
		case LedgerRequest:
			err = ac.Request(rec.Blocks, rec.Budget)
		case LedgerRefund:
			err = ac.Refund(rec.Blocks, rec.Budget)
		case LedgerRetire:
			for _, id := range rec.Blocks {
				err = ac.Retire(id)
			}
		}
		if err != nil {
			t.Fatalf("replaying record %d (%v): %v", i, rec.Op, err)
		}
	}
}

func TestLedgerRecordRoundTrip(t *testing.T) {
	cases := []LedgerRecord{
		{Op: LedgerRegister, Blocks: []data.BlockID{7}},
		{Op: LedgerRequest, Blocks: []data.BlockID{1, 2, 3}, Budget: privacy.MustBudget(0.25, 1e-8)},
		{Op: LedgerRefund, Blocks: []data.BlockID{2}, Budget: privacy.MustBudget(0.125, 0)},
		{Op: LedgerRetire, Blocks: []data.BlockID{42}},
	}
	for _, want := range cases {
		got, err := DecodeLedgerRecord(want.Encode())
		if err != nil {
			t.Fatalf("%v: %v", want.Op, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestLedgerRecordDecodeRejectsDamage(t *testing.T) {
	rec := LedgerRecord{Op: LedgerRequest, Blocks: []data.BlockID{1, 2}, Budget: privacy.MustBudget(0.5, 0)}
	raw := rec.Encode()
	if _, err := DecodeLedgerRecord(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated record decoded")
	}
	if _, err := DecodeLedgerRecord(append(append([]byte{}, raw...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	bad := append([]byte{}, raw...)
	bad[0] = 99
	if _, err := DecodeLedgerRecord(bad); err == nil {
		t.Fatal("unknown op accepted")
	}
	// A block count so large that count*8 overflows must produce a
	// decode error, not a makeslice panic (corruption can pass the WAL
	// CRC if it happened before the frame was written).
	huge := append([]byte{byte(LedgerRequest)}, AppendUint(nil, 1<<61)...)
	huge = AppendFloat(huge, 0.5)
	huge = AppendFloat(huge, 0)
	if _, err := DecodeLedgerRecord(huge); err == nil {
		t.Fatal("overflowing block count accepted")
	}
}

// TestJournalBeforeAcknowledge pins the crash-consistency rule: each
// mutation's record reaches the journal, and a journal failure leaves
// the ledger exactly as it was.
func TestJournalBeforeAcknowledge(t *testing.T) {
	ac := NewAccessControl(Policy{Global: privacy.MustBudget(1.0, 1e-6)})
	records := collectJournal(ac)
	ids := []data.BlockID{1, 2, 3}
	for _, id := range ids {
		ac.RegisterBlock(id)
	}
	budget := privacy.MustBudget(0.25, 1e-8)
	// Duplicates must be journaled deduplicated, matching what is
	// charged.
	if err := ac.Request([]data.BlockID{1, 2, 2, 3, 1}, budget); err != nil {
		t.Fatal(err)
	}
	if err := ac.Refund(ids, privacy.MustBudget(0.125, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ac.Retire(3); err != nil {
		t.Fatal(err)
	}
	want := []LedgerRecord{
		{Op: LedgerRegister, Blocks: []data.BlockID{1}},
		{Op: LedgerRegister, Blocks: []data.BlockID{2}},
		{Op: LedgerRegister, Blocks: []data.BlockID{3}},
		{Op: LedgerRequest, Blocks: ids, Budget: budget},
		{Op: LedgerRefund, Blocks: ids, Budget: privacy.MustBudget(0.125, 0)},
		{Op: LedgerRetire, Blocks: []data.BlockID{3}},
	}
	if !reflect.DeepEqual(*records, want) {
		t.Fatalf("journal:\n got %+v\nwant %+v", *records, want)
	}

	// Re-registering is a no-op and must not journal.
	n := len(*records)
	if ac.RegisterBlock(1) {
		t.Fatal("re-register reported true")
	}
	if len(*records) != n {
		t.Fatal("no-op register journaled")
	}

	// Retiring an already-sticky-retired block is a no-op and must not
	// journal (block 3 was force-retired above).
	n = len(*records)
	if err := ac.Retire(3); err != nil {
		t.Fatal(err)
	}
	if len(*records) != n {
		t.Fatal("no-op retire journaled")
	}

	// A failing journal vetoes the mutation.
	boom := errors.New("disk gone")
	ac.SetShardJournal(func(int, LedgerRecord) (func() error, error) { return nil, boom })
	before := ac.BlockLoss(1)
	if err := ac.Request([]data.BlockID{1}, budget); !errors.Is(err, boom) {
		t.Fatalf("request with failing journal: %v", err)
	}
	if got := ac.BlockLoss(1); got != before {
		t.Fatalf("failed journal still deducted: %v vs %v", got, before)
	}
	if err := ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.01, 0)); !errors.Is(err, boom) {
		t.Fatalf("refund with failing journal: %v", err)
	}
	if got := ac.BlockLoss(1); got != before {
		t.Fatalf("failed refund journal still applied: %v vs %v", got, before)
	}
	if err := ac.Retire(1); !errors.Is(err, boom) {
		t.Fatalf("retire with failing journal: %v", err)
	}
	if ac.Retired(1) {
		t.Fatal("failed retire journal still retired the block")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RegisterBlock with failing journal did not panic")
			}
		}()
		ac.RegisterBlock(99)
	}()
	if ac.NumBlocks() != 3 {
		t.Fatalf("failed register still added block: %d", ac.NumBlocks())
	}
}

// TestReplayReconstructsLedger: applying the journal to a fresh ledger
// yields bit-identical accounting state, including retirement reasons
// and sticky bits under a retention hook.
func TestReplayReconstructsLedger(t *testing.T) {
	policy := Policy{Global: privacy.MustBudget(1.0, 1e-6)}
	build := func() (*AccessControl, *int) {
		deleted := 0
		ac := NewAccessControl(policy)
		ac.SetRetireCallback(func(data.BlockID) { deleted++ })
		return ac, &deleted
	}
	ac, deleted := build()
	records := collectJournal(ac)

	for id := data.BlockID(0); id < 6; id++ {
		ac.RegisterBlock(id)
	}
	// A mix of grants, refunds, exhaustion retirement (sticky via the
	// retention hook), and a forced retire.
	if err := ac.Request([]data.BlockID{0, 1, 2}, privacy.MustBudget(0.5, 1e-8)); err != nil {
		t.Fatal(err)
	}
	if err := ac.Refund([]data.BlockID{2}, privacy.MustBudget(0.25, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ac.Request([]data.BlockID{0, 3}, privacy.MustBudget(0.5, 1e-8)); err != nil {
		t.Fatal(err) // exhausts block 0 → retention hook fires
	}
	if err := ac.Retire(4); err != nil {
		t.Fatal(err)
	}

	replayed, replayedDeleted := build()
	replayRecords(t, replayed, *records)

	ids := replayed.Blocks()
	if !reflect.DeepEqual(ids, ac.Blocks()) {
		t.Fatalf("block sets differ: %v vs %v", ids, ac.Blocks())
	}
	if !reflect.DeepEqual(replayed.Report(ids), ac.Report(ids)) {
		t.Fatalf("reports differ:\n got %+v\nwant %+v", replayed.Report(ids), ac.Report(ids))
	}
	if replayed.StreamLoss() != ac.StreamLoss() {
		t.Fatalf("stream loss differs: %v vs %v", replayed.StreamLoss(), ac.StreamLoss())
	}
	if *replayedDeleted != *deleted {
		t.Fatalf("retention hook fired %d times on replay, %d originally", *replayedDeleted, *deleted)
	}
	// The replayed ledger must behave identically going forward: block 0
	// was retention-deleted, so a refund cannot resurrect it.
	for _, a := range []*AccessControl{ac, replayed} {
		if err := a.Refund([]data.BlockID{0}, privacy.MustBudget(0.9, 0)); err != nil {
			t.Fatal(err)
		}
		if !a.Retired(0) {
			t.Fatal("retention-deleted block resurrected by refund")
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	for _, arith := range []privacy.CompositionArithmetic{
		nil, // basic
		privacy.StrongArithmetic{DeltaSlack: 1e-9},
	} {
		name := "basic"
		if arith != nil {
			name = arith.Name()
		}
		t.Run(name, func(t *testing.T) {
			policy := Policy{Global: privacy.MustBudget(1.0, 1e-6), Arithmetic: arith}
			ac := NewAccessControl(policy)
			ac.SetRetireCallback(func(data.BlockID) {})
			for id := data.BlockID(0); id < 5; id++ {
				ac.RegisterBlock(id)
			}
			for i := 0; i < 6; i++ {
				_ = ac.Request([]data.BlockID{data.BlockID(i % 5), data.BlockID((i + 1) % 5)},
					privacy.MustBudget(0.125, 1e-9))
			}
			_ = ac.Refund([]data.BlockID{1}, privacy.MustBudget(0.05, 0))
			_ = ac.Retire(4)

			restored := NewAccessControl(policy)
			if err := restored.RestoreSnapshot(ac.Snapshot()); err != nil {
				t.Fatal(err)
			}
			ids := ac.Blocks()
			if !reflect.DeepEqual(restored.Blocks(), ids) {
				t.Fatalf("blocks differ: %v vs %v", restored.Blocks(), ids)
			}
			if !reflect.DeepEqual(restored.Report(ids), ac.Report(ids)) {
				t.Fatalf("reports differ:\n got %+v\nwant %+v", restored.Report(ids), ac.Report(ids))
			}
			if restored.StreamLoss() != ac.StreamLoss() {
				t.Fatalf("stream loss differs: %v vs %v", restored.StreamLoss(), ac.StreamLoss())
			}
		})
	}
}

func TestRestoreSnapshotRejectsDamage(t *testing.T) {
	ac := NewAccessControl(Policy{Global: privacy.MustBudget(1.0, 1e-6)})
	ac.RegisterBlock(1)
	_ = ac.Request([]data.BlockID{1}, privacy.MustBudget(0.5, 0))
	snap := ac.Snapshot()

	fresh := func() *AccessControl {
		return NewAccessControl(Policy{Global: privacy.MustBudget(1.0, 1e-6)})
	}
	if err := fresh().RestoreSnapshot(snap[:len(snap)-3]); err == nil {
		t.Fatal("truncated snapshot restored")
	}
	if err := fresh().RestoreSnapshot(append(append([]byte{}, snap...), 1, 2, 3)); err == nil {
		t.Fatal("snapshot with trailing bytes restored")
	}
	bad := append([]byte{}, snap...)
	bad[7] = 99 // version field (big-endian uint64 low byte)
	if err := fresh().RestoreSnapshot(bad); err == nil {
		t.Fatal("wrong-version snapshot restored")
	}
	// Restoring under a tighter ceiling must fail closed, matching the
	// op-replay path (whose admission checks would reject the request).
	tight := NewAccessControl(Policy{Global: privacy.MustBudget(0.25, 1e-6)})
	if err := tight.RestoreSnapshot(snap); err == nil {
		t.Fatal("snapshot with loss above the ceiling restored under tighter policy")
	}
}

func TestCursorRoundTrip(t *testing.T) {
	buf := AppendString(nil, "hello")
	buf = AppendUint(buf, 12345)
	buf = AppendFloat(buf, -0.25)
	buf = AppendFloats(buf, []float64{1, 2, 3})
	buf = AppendBlockIDs(buf, []data.BlockID{9, 8})
	buf = append(buf, 0x7F)

	c := NewCursor(buf)
	if s := c.String(); s != "hello" {
		t.Fatalf("String = %q", s)
	}
	if u := c.Uint(); u != 12345 {
		t.Fatalf("Uint = %d", u)
	}
	if f := c.Float(); f != -0.25 {
		t.Fatalf("Float = %v", f)
	}
	if fs := c.Floats(); !reflect.DeepEqual(fs, []float64{1, 2, 3}) {
		t.Fatalf("Floats = %v", fs)
	}
	if ids := c.BlockIDs(); !reflect.DeepEqual(ids, []data.BlockID{9, 8}) {
		t.Fatalf("BlockIDs = %v", ids)
	}
	if b := c.Byte(); b != 0x7F {
		t.Fatalf("Byte = %x", b)
	}
	if c.Err() != nil || c.Remaining() != 0 {
		t.Fatalf("err %v, remaining %d", c.Err(), c.Remaining())
	}
	// Reads past the end are sticky errors, not panics.
	if c.Uint(); c.Err() == nil {
		t.Fatal("read past end did not error")
	}
	// A length prefix larger than the buffer must fail cleanly, not
	// allocate.
	huge := AppendUint(nil, 1<<40)
	if NewCursor(huge).Floats(); NewCursor(huge).Err() != nil {
		t.Fatal("fresh cursor should not have an error yet")
	}
	c2 := NewCursor(huge)
	if c2.Floats(); c2.Err() == nil {
		t.Fatal("overlong float slice accepted")
	}
}

// TestAdmitBlockIsOneMutation pins AdmitBlock's contract: register and
// charge are one journal record and one state change, or nothing at all.
func TestAdmitBlockIsOneMutation(t *testing.T) {
	ac := NewAccessControl(Policy{Global: privacy.MustBudget(1.0, 1e-6)})
	var retired []data.BlockID
	ac.SetRetireCallback(func(id data.BlockID) { retired = append(retired, id) })
	records := collectJournal(ac)
	charge := privacy.MustBudget(0.25, 1e-8)

	if ok, err := ac.AdmitBlock(1, charge); !ok || err != nil {
		t.Fatalf("admit: %v, %v", ok, err)
	}
	want := []LedgerRecord{{Op: LedgerRegister, Blocks: []data.BlockID{1}, Budget: charge}}
	if !reflect.DeepEqual(*records, want) {
		t.Fatalf("journal:\n got %+v\nwant %+v", *records, want)
	}
	if rep := ac.Report([]data.BlockID{1}); len(rep) != 1 || rep[0].Loss != charge || rep[0].Queries != 1 {
		t.Fatalf("admitted block: %+v", rep)
	}
	if ac.StreamLossWatermark() != charge {
		t.Fatalf("watermark %v after one admission of %v", ac.StreamLossWatermark(), charge)
	}

	// Existing block: no-op, nothing journaled, nothing charged.
	if ok, err := ac.AdmitBlock(1, charge); ok || err != nil {
		t.Fatalf("re-admit: %v, %v", ok, err)
	}
	// A charge the ceiling cannot cover, or an invalid one: no block.
	var exhausted ErrBlockExhausted
	if ok, err := ac.AdmitBlock(2, privacy.MustBudget(1.5, 0)); ok || !errors.As(err, &exhausted) {
		t.Fatalf("admit above the ceiling: %v, %v", ok, err)
	}
	if ok, err := ac.AdmitBlock(2, privacy.Budget{Epsilon: -1}); ok || err == nil {
		t.Fatalf("admit with a negative charge: %v, %v", ok, err)
	}
	if len(*records) != 1 || ac.NumBlocks() != 1 || ac.BlockLoss(1) != charge {
		t.Fatalf("refused admissions left a trace: %d records, %d blocks, loss %v", len(*records), ac.NumBlocks(), ac.BlockLoss(1))
	}

	// A zero charge is RegisterBlock: an empty history, not a zero spend.
	if ok, err := ac.AdmitBlock(3, privacy.Zero); !ok || err != nil {
		t.Fatalf("admit at zero charge: %v, %v", ok, err)
	}
	if rep := ac.Report([]data.BlockID{3}); rep[0].Queries != 0 || !rep[0].Loss.IsZero() {
		t.Fatalf("zero-charge admission recorded a query: %+v", rep[0])
	}

	// A charge that exhausts the block retires it through the retention
	// hook, exactly as the equivalent Request would.
	if ok, err := ac.AdmitBlock(4, privacy.MustBudget(1.0, 0)); !ok || err != nil {
		t.Fatalf("admit at the ceiling: %v, %v", ok, err)
	}
	if rep := ac.Report([]data.BlockID{4}); !reflect.DeepEqual(retired, []data.BlockID{4}) || rep[0].Reason != RetireDataDeleted {
		t.Fatalf("admission at the ceiling: hook saw %v, block %+v", retired, rep[0])
	}

	// A failing journal vetoes the whole admission — RegisterBlock, which
	// has no error to return, panics instead (TestJournalBeforeAcknowledge).
	boom := errors.New("disk gone")
	ac.SetShardJournal(func(int, LedgerRecord) (func() error, error) { return nil, boom })
	if ok, err := ac.AdmitBlock(5, charge); ok || !errors.Is(err, boom) {
		t.Fatalf("admit with failing journal: %v, %v", ok, err)
	}
	if ac.NumBlocks() != 3 {
		t.Fatalf("failed admission still added a block: %d", ac.NumBlocks())
	}

	// Replaying the journal through Apply rebuilds the same ledger.
	replayed := NewAccessControl(ac.Policy())
	replayed.SetRetireCallback(func(data.BlockID) {})
	for i, rec := range *records {
		if err := replayed.Apply(rec); err != nil {
			t.Fatalf("replaying record %d (%v): %v", i, rec.Op, err)
		}
	}
	if !bytes.Equal(replayed.Snapshot(), ac.Snapshot()) {
		t.Fatalf("replay differs:\n got %+v\nwant %+v", replayed.Report(replayed.Blocks()), ac.Report(ac.Blocks()))
	}
}
