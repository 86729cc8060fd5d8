package core

// Write-ahead journaling for the privacy ledger. The paper's central
// guarantee — no block's cumulative privacy loss ever exceeds (εg, δg),
// and no deduction is ever forgotten — is only as strong as the
// ledger's memory. An in-memory AccessControl that dies between
// granting a Request and the release being published *loses spend*,
// which silently breaks block composition: the recovered platform would
// re-grant budget that was already consumed.
//
// The journal closes that hole with one rule: every mutation is
// journaled *before it is acknowledged*. Request and AdmitBlock journal
// after their admission checks pass and before any budget is deducted
// or the caller unblocked; Refund and Retire journal before mutating;
// each is one record per shard, so no crash point separates admitting
// a block from charging it on arrival.
// A crash can therefore leave the journal strictly *ahead* of what
// callers observed, never behind: replaying it may re-apply a spend
// whose acknowledgement never arrived (conservative — budget is wasted,
// privacy is not), but it can never drop a spend that was acknowledged.
// Refund records are only ever journaled after the Request they correct
// (journal order is mutation order, both taken under the ledger lock),
// so a recovered ledger's per-block loss is always ≥ the budget
// actually consumed by acknowledged releases.
//
// The ledger does not know about files: it calls an injected journal
// func with a LedgerRecord and treats a non-nil error as "this mutation
// cannot be made durable" — the operation fails and state is untouched.
// internal/durable binds the func to a wal.Log and replays records on
// open through Apply — the same public methods, with the journal unset
// — so recovery exercises exactly the code paths that produced them.

import (
	"fmt"
	"sort"

	"repro/internal/data"
	"repro/internal/privacy"
)

// LedgerOp enumerates the journaled ledger mutations.
type LedgerOp byte

const (
	// LedgerRegister records AdmitBlock: Blocks has one entry, Budget is
	// its admission charge (zero from RegisterBlock, and in older logs,
	// where the charge followed as a LedgerRequest).
	LedgerRegister LedgerOp = 1
	// LedgerRequest records a granted Request: Budget deducted from
	// every block in Blocks (already deduplicated).
	LedgerRequest LedgerOp = 2
	// LedgerRefund records a Refund of Budget to every block in Blocks.
	LedgerRefund LedgerOp = 3
	// LedgerRetire records a forced Retire (Blocks has one entry).
	LedgerRetire LedgerOp = 4
)

func (op LedgerOp) String() string {
	switch op {
	case LedgerRegister:
		return "register"
	case LedgerRequest:
		return "request"
	case LedgerRefund:
		return "refund"
	case LedgerRetire:
		return "retire"
	default:
		return fmt.Sprintf("ledger-op(%d)", byte(op))
	}
}

// LedgerRecord is one journaled ledger mutation, encoded canonically
// (audit.go helpers) so the journal doubles as an audit trail: the same
// fixed-order, bit-exact serialization that digests releases.
type LedgerRecord struct {
	Op     LedgerOp
	Blocks []data.BlockID
	Budget privacy.Budget
}

// Encode returns the record's canonical serialization.
func (r LedgerRecord) Encode() []byte {
	buf := make([]byte, 0, 1+8+len(r.Blocks)*8+16)
	buf = append(buf, byte(r.Op))
	buf = AppendBlockIDs(buf, r.Blocks)
	buf = AppendFloat(buf, r.Budget.Epsilon)
	return AppendFloat(buf, r.Budget.Delta)
}

// DecodeLedgerRecord parses a canonical ledger record.
func DecodeLedgerRecord(raw []byte) (LedgerRecord, error) {
	c := NewCursor(raw)
	rec := LedgerRecord{
		Op:     LedgerOp(c.Byte()),
		Blocks: c.BlockIDs(),
	}
	rec.Budget.Epsilon = c.Float()
	rec.Budget.Delta = c.Float()
	if err := c.Err(); err != nil {
		return LedgerRecord{}, fmt.Errorf("core: ledger record: %w", err)
	}
	if c.Remaining() != 0 {
		return LedgerRecord{}, fmt.Errorf("core: ledger record: %d trailing bytes", c.Remaining())
	}
	switch rec.Op {
	case LedgerRegister, LedgerRequest, LedgerRefund, LedgerRetire:
	default:
		return LedgerRecord{}, fmt.Errorf("core: ledger record: unknown op %d", byte(rec.Op))
	}
	return rec, nil
}

// Apply re-executes one journaled mutation through the public mutators —
// recovery's replay step, run before a journal is installed. The journal
// only holds operations that succeeded and the ledger is deterministic,
// so an error means the log does not match the policy it is opened
// under (or is corrupt mid-log).
func (ac *AccessControl) Apply(rec LedgerRecord) error {
	switch rec.Op {
	case LedgerRegister:
		for _, id := range rec.Blocks {
			if _, err := ac.AdmitBlock(id, rec.Budget); err != nil {
				return err
			}
		}
		return nil
	case LedgerRequest:
		return ac.Request(rec.Blocks, rec.Budget)
	case LedgerRefund:
		return ac.Refund(rec.Blocks, rec.Budget)
	case LedgerRetire:
		for _, id := range rec.Blocks {
			if err := ac.Retire(id); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("core: unknown ledger op %d", byte(rec.Op))
	}
}

// JournalStageFunc is the sharded, staged journal interface. The ledger
// calls it under the named shard's lock with one sub-record whose blocks
// all map to that shard; a multi-shard mutation is split into one call
// per involved shard. Staging must make the record's eventual durability
// inevitable-or-failed: the returned wait func blocks until the record
// is durable (or the write failed) and is called by the ledger *after*
// releasing the shard locks — that is what lets concurrent mutations on
// one shard share a group-commit fdatasync. A nil wait means the record
// was made durable synchronously. A non-nil error from staging aborts
// the mutation with no state applied.
type JournalStageFunc func(shard int, rec LedgerRecord) (wait func() error, err error)

// SetShardJournal installs the staged, shard-aware write-ahead journal
// (see JournalStageFunc). Every subsequent mutation stages through it,
// under the mutated shard's lock, before any state changes or the
// caller is acknowledged; a staging error aborts the mutation.
// Multi-shard mutations are split into one sub-record per involved
// shard (with a single shard — NewAccessControl — every record arrives
// whole, which is what the journal-order tests pin). Install the
// journal *after* replaying recovered records — replay uses the public
// mutation methods, and a set journal would re-journal them.
// RegisterBlock and Publish-style paths that cannot surface an error
// treat a journal failure as fatal (panic): a durable ledger that can
// no longer journal must stop taking mutations rather than silently
// diverge from its log. internal/durable binds each shard to its own
// WAL segment here.
//
//sage:nojournal installs the journal itself; runs before any journal exists
func (ac *AccessControl) SetShardJournal(stage JournalStageFunc) {
	ac.cfgMu.Lock()
	defer ac.cfgMu.Unlock()
	ac.stage = stage
}

// Blocks returns every registered block ID in ascending order — the
// recovery path's view of which blocks exist (after a crash the
// GrowingDatabase is empty; the ledger is what remembers the stream's
// extent).
func (ac *AccessControl) Blocks() []data.BlockID {
	var out []data.BlockID
	for _, sh := range ac.shards {
		sh.mu.Lock()
		for id := range sh.blocks {
			out = append(out, id)
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ShardBlocks returns shard k's registered block IDs in ascending order.
func (ac *AccessControl) ShardBlocks(k int) []data.BlockID {
	sh := ac.shards[k]
	sh.mu.Lock()
	out := make([]data.BlockID, 0, len(sh.blocks))
	for id := range sh.blocks {
		out = append(out, id)
	}
	sh.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// snapshotVersion guards the snapshot layout for forward evolution.
const snapshotVersion = 1

// Snapshot returns a canonical serialization of the full ledger state:
// every block's spend history (individual spends, not just the sum —
// strong-composition arithmetics need the sequence), retirement flags,
// and reason. Compaction writes it as the single record that replaces
// the journal's history. The policy is deliberately not included: it is
// configuration, supplied by the operator at open, and RestoreSnapshot
// validates state against it.
func (ac *AccessControl) Snapshot() []byte {
	ac.lockAll()
	defer ac.unlockAll()
	var ids []data.BlockID
	for _, sh := range ac.shards {
		for id := range sh.blocks {
			ids = append(ids, id)
		}
	}
	return ac.encodeSnapshotLocked(ids)
}

// SnapshotShard returns the canonical serialization of shard k's blocks
// only — the per-segment compaction record (internal/durable writes one
// per WAL segment). The format is identical to Snapshot's;
// RestoreSnapshot merges, so replaying one snapshot per segment
// reassembles the full ledger.
func (ac *AccessControl) SnapshotShard(k int) []byte {
	sh := ac.shards[k]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ids := make([]data.BlockID, 0, len(sh.blocks))
	for id := range sh.blocks {
		ids = append(ids, id)
	}
	return ac.encodeSnapshotLocked(ids)
}

// encodeSnapshotLocked serializes the given blocks' state in ascending
// id order. Caller holds the locks of every shard the ids map to.
func (ac *AccessControl) encodeSnapshotLocked(ids []data.BlockID) []byte {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := AppendUint(nil, snapshotVersion)
	buf = AppendUint(buf, uint64(len(ids)))
	for _, id := range ids {
		st := ac.shards[ac.ShardOf(id)].blocks[id]
		buf = AppendUint(buf, uint64(id))
		var flags byte
		if st.retired {
			flags |= 1
		}
		if st.sticky {
			flags |= 2
		}
		buf = append(buf, flags)
		buf = AppendString(buf, string(st.reason))
		spends := st.acct.Spends()
		buf = AppendUint(buf, uint64(len(spends)))
		for _, s := range spends {
			buf = AppendFloat(buf, s.Epsilon)
			buf = AppendFloat(buf, s.Delta)
		}
	}
	return buf
}

// RestoreSnapshot merges a snapshot produced by Snapshot or
// SnapshotShard into the ledger: every block named in the snapshot is
// replaced wholesale with its snapshotted state; blocks not named are
// left untouched. It is the recovery path's first step in each WAL
// segment (journal records recorded after the snapshot replay on top).
// Merge — rather than replace-all — is what makes multi-segment
// recovery compose: each segment opens with a snapshot of its own
// shard's blocks, and restoring segment k must not discard the blocks
// segments 0..k-1 already rebuilt. On a fresh ledger (the only place
// recovery starts) merging into the empty map is a plain restore.
//
//sage:nojournal recovery path — replays the log, must not re-journal it
func (ac *AccessControl) RestoreSnapshot(snap []byte) error {
	c := NewCursor(snap)
	if v := c.Uint(); c.Err() == nil && v != snapshotVersion {
		return fmt.Errorf("core: ledger snapshot version %d, want %d", v, snapshotVersion)
	}
	n := c.Uint()
	// Each block entry is at least id + flags + reason-length + spend
	// count (25 bytes); a damaged count must not size the allocation.
	if n > uint64(c.Remaining())/25 {
		return fmt.Errorf("core: ledger snapshot: block count %d exceeds payload", n)
	}
	blocks := make(map[data.BlockID]*blockState, n)
	for i := uint64(0); i < n && c.Err() == nil; i++ {
		id := data.BlockID(c.Uint())
		flags := c.Byte()
		reason := RetireReason(c.String())
		nspends := c.Uint()
		if c.Err() != nil {
			break
		}
		st := &blockState{
			acct:    privacy.NewAccountant(ac.policy.Arithmetic),
			retired: flags&1 != 0,
			sticky:  flags&2 != 0,
			reason:  reason,
		}
		for j := uint64(0); j < nspends && c.Err() == nil; j++ {
			b := privacy.Budget{Epsilon: c.Float(), Delta: c.Float()}
			if c.Err() != nil {
				break
			}
			if err := b.Validate(); err != nil {
				return fmt.Errorf("core: ledger snapshot block %d spend %d: %w", id, j, err)
			}
			st.acct.Spend(b)
		}
		// Validate against the open policy: every loss the admission
		// checks ever granted stayed under the ceiling, so a restored
		// loss above it means the snapshot was written under a looser
		// policy than this ledger is being opened with. Fail closed —
		// the op-replay path fails the same way (its admission checks
		// reject), so recovery behavior cannot depend on whether a
		// compaction happened to run before the crash.
		if loss := st.acct.Loss(); c.Err() == nil && !ac.policy.Global.Covers(loss) {
			return fmt.Errorf("core: ledger snapshot block %d: restored loss %v exceeds policy ceiling %v",
				id, loss, ac.policy.Global)
		}
		blocks[id] = st
	}
	if err := c.Err(); err != nil {
		return fmt.Errorf("core: ledger snapshot: %w", err)
	}
	if c.Remaining() != 0 {
		return fmt.Errorf("core: ledger snapshot: %d trailing bytes", c.Remaining())
	}
	ac.lockAll()
	for id, st := range blocks {
		ac.shards[ac.ShardOf(id)].blocks[id] = st
		ac.noteLoss(st.acct.Loss())
	}
	ac.unlockAll()
	return nil
}

// stageLocked stages one record through the installed journal (no-op
// when none is installed), returning the durability wait the caller
// must invoke after releasing the shard locks (nil when durability was
// synchronous). Caller holds the shard's lock, and every block in rec
// maps to that shard. A non-nil error means the mutation must not
// proceed.
func (ac *AccessControl) stageLocked(shard int, rec LedgerRecord) (func() error, error) {
	ac.cfgMu.RLock()
	stage := ac.stage
	ac.cfgMu.RUnlock()
	if stage == nil {
		return nil, nil
	}
	wait, err := stage(shard, rec)
	if err != nil {
		return nil, fmt.Errorf("core: journal %s: %w", rec.Op, err)
	}
	if wait == nil {
		return nil, nil
	}
	op := rec.Op
	return func() error {
		if err := wait(); err != nil {
			return fmt.Errorf("core: journal %s: %w", op, err)
		}
		return nil
	}, nil
}
