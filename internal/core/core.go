// Package core implements Sage's central contribution: block composition
// accounting and the access-control layer that enforces a global (εg, δg)
// differential-privacy guarantee over every model and feature ever
// released from a sensitive data stream (§3.2 and §4 of the paper).
//
// The stream is split into disjoint blocks (by time for event-level
// privacy, by user ID for user-level privacy). Training pipelines request
// an (ε, δ) budget against an adaptively chosen set of blocks; the access
// control grants the request only if every involved block stays within
// the global ceiling. By Theorem 4.2, the privacy loss over the whole
// stream is the maximum per-block loss, so fresh blocks restore the
// platform's ability to train: Sage never runs out of budget as long as
// the database grows fast enough.
//
// # Sharding
//
// The block composition theorem is also a concurrency theorem: each
// block's budget is independent state, and the only stream-wide quantity
// is the max per-block loss. The ledger exploits that by striping blocks
// across N shards keyed by block id (NewShardedAccessControl), each with
// its own mutex and block map, so charges against disjoint blocks
// proceed in parallel. Operations naming blocks in several shards lock
// the involved shards in ascending index order (deadlock-free) and hold
// them all across the check/journal/deduct sequence, which preserves the
// all-or-nothing admission the ceiling proof needs: no interleaved
// charge can slip between this request's checks and its deductions. The
// stream-wide loss is additionally tracked by a pair of shared atomics —
// a monotone high-watermark updated with CAS-max on every spend
// (StreamLossWatermark) — so the global ceiling can be observed without
// stopping the world.
package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/data"
	"repro/internal/privacy"
)

// Policy configures the global DP guarantee enforced on each block of a
// stream. A block's losses compose by the basic theorem (Theorem 4.3):
// its cumulative loss is the sum of its charges, less its refunds.
type Policy struct {
	// Global is the (εg, δg) ceiling every block's cumulative privacy
	// loss must stay under.
	Global privacy.Budget
}

// RetireReason records why a block was retired, for audit output
// (cmd/sagectl's ledger and BlockReport).
type RetireReason string

const (
	// RetireNone means the block is active.
	RetireNone RetireReason = ""
	// RetireBudgetExhausted means the block's cumulative loss reached the
	// global ceiling through normal accounting; absent a retention hook
	// this retirement is reversible by refunds.
	RetireBudgetExhausted RetireReason = "budget-exhausted"
	// RetireForced means an operator called Retire; never reversible.
	RetireForced RetireReason = "forced"
	// RetireDataDeleted means the DP-retention hook ran on retirement and
	// deleted the block's raw data (§3.2); never reversible.
	RetireDataDeleted RetireReason = "retention-deleted"
)

// blockState tracks one block's accounting.
type blockState struct {
	// loss is the block's running (ε, δ) sum: every charge added, every
	// refund subtracted, in the order the ledger applied them.
	loss privacy.Budget
	// queries counts the charges the block has taken; a refund gives
	// back budget, not a query.
	queries int
	retired bool
	// sticky marks retirements that must never be reversed: forced
	// retirements (Retire) and any retirement whose onRetire callback
	// ran — the DP-retention hook may have deleted the block's raw data
	// (§3.2), so a later budget refund cannot resurrect it.
	sticky bool
	// reason says why the block is retired (RetireNone while active).
	reason RetireReason
}

// shard is one stripe of the ledger: a mutex and the block states that
// hash to it. All fields are guarded by mu.
type shard struct {
	mu     sync.Mutex
	blocks map[data.BlockID]*blockState
}

// AccessControl is Sage's DP access-control layer for one sensitive
// stream (the "Sage Access Control" box of Fig. 2). It is safe for
// concurrent use: Request atomically checks and deducts budget across all
// blocks involved in a query, which is what makes adaptively chosen block
// sets sound (Alg. 4c, lines 7-8). Blocks are striped across shards (see
// the package docs); NewAccessControl gives one shard,
// NewShardedAccessControl stripes wider for contended write paths.
type AccessControl struct {
	policy Policy
	shards []*shard

	// cfgMu guards the configuration hooks, which are installed at
	// setup (before traffic) and read on every mutation.
	cfgMu    sync.RWMutex
	onRetire func(data.BlockID)
	// stage, when set (SetShardJournal), receives every
	// mutation before it is applied or acknowledged — the ledger half of
	// the durable platform core (see journal.go for the
	// crash-consistency argument). Multi-shard mutations are split into
	// one sub-record per involved shard.
	stage JournalStageFunc

	// watermarkEps/Delta hold math.Float64bits of the largest per-block
	// loss components ever observed — the shared-atomic view of the
	// global ceiling. Non-negative float64s compare like their bit
	// patterns, so CAS-max on the bits is CAS-max on the values.
	watermarkEps   atomic.Uint64
	watermarkDelta atomic.Uint64
}

// NewAccessControl returns an access-control layer enforcing the policy,
// with a single shard — the right default for tests, tools, and
// uncontended streams.
func NewAccessControl(policy Policy) *AccessControl {
	return NewShardedAccessControl(policy, 1)
}

// NewShardedAccessControl returns an access-control layer whose blocks
// are striped across nshards independent stripes. Panics if nshards < 1.
func NewShardedAccessControl(policy Policy, nshards int) *AccessControl {
	if err := policy.Global.Validate(); err != nil {
		panic(err)
	}
	if policy.Global.Epsilon <= 0 {
		panic("core: policy requires εg > 0")
	}
	if nshards < 1 {
		panic("core: shard count must be >= 1")
	}
	ac := &AccessControl{policy: policy, shards: make([]*shard, nshards)}
	for i := range ac.shards {
		ac.shards[i] = &shard{blocks: make(map[data.BlockID]*blockState)}
	}
	return ac
}

// shardMix spreads block ids across shards (Fibonacci hashing) so that
// sequential ids — daily blocks, dense user ids — do not stride into one
// stripe.
const shardMix = 0x9E3779B97F4A7C15

// ShardOf returns the shard index a block id maps to. The mapping is a
// pure function of (id, NumShards) and must stay stable across releases:
// internal/durable gives each shard its own WAL segment, so changing the
// mapping would replay a block's records into the wrong segment order.
func (ac *AccessControl) ShardOf(id data.BlockID) int {
	if len(ac.shards) == 1 {
		return 0
	}
	return int((uint64(id) * shardMix) % uint64(len(ac.shards)))
}

// Policy returns the enforced policy.
func (ac *AccessControl) Policy() Policy { return ac.policy }

// SetRetireCallback registers a function invoked (synchronously, without
// the lock held by callers' view) whenever a block is retired. Sage's
// DP-informed retention policy hooks deletion of the raw data here.
//
//sage:nojournal configuration hook, not ledger state — recovery reinstalls it
func (ac *AccessControl) SetRetireCallback(f func(data.BlockID)) {
	ac.cfgMu.Lock()
	defer ac.cfgMu.Unlock()
	ac.onRetire = f
}

// retireCallback returns the installed retirement hook.
func (ac *AccessControl) retireCallback() func(data.BlockID) {
	ac.cfgMu.RLock()
	defer ac.cfgMu.RUnlock()
	return ac.onRetire
}

// noteLoss folds one block's post-mutation loss into the shared atomic
// stream-loss watermark.
func (ac *AccessControl) noteLoss(l privacy.Budget) {
	atomicMaxFloat(&ac.watermarkEps, l.Epsilon)
	atomicMaxFloat(&ac.watermarkDelta, l.Delta)
}

// atomicMaxFloat raises a to at least v (v non-negative) with CAS-max on
// the float's bit pattern.
func atomicMaxFloat(a *atomic.Uint64, v float64) {
	if v <= 0 {
		return
	}
	bits := math.Float64bits(v)
	for {
		cur := a.Load()
		if cur >= bits {
			return
		}
		if a.CompareAndSwap(cur, bits) {
			return
		}
	}
}

// StreamLossWatermark returns a monotone upper bound on the stream's
// privacy loss, read from shared atomics without taking any shard lock:
// the largest per-block (ε, δ) components ever reached. Unlike
// StreamLoss it never decreases when budget is refunded, and it is never
// torn — each component is a single atomic load. By the admission
// checks it can never exceed the global ceiling; the race test in
// shard_test.go pins that.
func (ac *AccessControl) StreamLossWatermark() privacy.Budget {
	return privacy.Budget{
		Epsilon: math.Float64frombits(ac.watermarkEps.Load()),
		Delta:   math.Float64frombits(ac.watermarkDelta.Load()),
	}
}

// shardGroup is the slice of one operation's block ids that live in one
// shard, in the operation's (deduplicated) order.
type shardGroup struct {
	shard int
	ids   []data.BlockID
}

// groupByShard buckets ids by shard, returning groups in ascending shard
// order — the lock acquisition order for multi-shard operations.
func (ac *AccessControl) groupByShard(ids []data.BlockID) []shardGroup {
	if len(ac.shards) == 1 {
		return []shardGroup{{shard: 0, ids: ids}}
	}
	perShard := make([][]data.BlockID, len(ac.shards))
	for _, id := range ids {
		k := ac.ShardOf(id)
		perShard[k] = append(perShard[k], id)
	}
	groups := make([]shardGroup, 0, 4)
	for k, g := range perShard {
		if len(g) > 0 {
			groups = append(groups, shardGroup{shard: k, ids: g})
		}
	}
	return groups
}

// lockGroups acquires the involved shards' locks in ascending index
// order (groups are sorted by construction).
func (ac *AccessControl) lockGroups(groups []shardGroup) {
	for _, g := range groups {
		ac.shards[g.shard].mu.Lock()
	}
}

func (ac *AccessControl) unlockGroups(groups []shardGroup) {
	for _, g := range groups {
		ac.shards[g.shard].mu.Unlock()
	}
}

// lockAll acquires every shard lock in ascending order — used by
// whole-ledger reads (Snapshot) that need one consistent cut.
func (ac *AccessControl) lockAll() {
	for _, sh := range ac.shards {
		sh.mu.Lock()
	}
}

func (ac *AccessControl) unlockAll() {
	for _, sh := range ac.shards {
		sh.mu.Unlock()
	}
}

// awaitAll waits on every journal durability ticket and returns the
// first error. Every ticket is always awaited — an abandoned ticket
// would leave a staged group-commit batch without a driver. Tickets
// are awaited concurrently: each Wait may itself drive a segment's
// group commit, and a multi-shard operation's latency should be the
// slowest segment's flush, not the sum of all of them.
func awaitAll(waits []func() error) error {
	if len(waits) == 1 {
		return waits[0]()
	}
	errs := make([]error, len(waits))
	var wg sync.WaitGroup
	for i, w := range waits {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = w()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RegisterBlock makes a new block known to the access control with a
// fresh (zero) privacy loss: AdmitBlock with nothing to charge.
// Registering an existing block is a no-op returning false (and is not
// journaled). With a journal installed, a journal failure panics:
// RegisterBlock has no error return, and a ledger that cannot journal
// must stop rather than diverge from its log.
func (ac *AccessControl) RegisterBlock(id data.BlockID) bool {
	admitted, err := ac.AdmitBlock(id, privacy.Zero)
	if err != nil {
		panic(err)
	}
	return admitted
}

// AdmitBlock registers a new block and deducts charge from it — the
// budget of what is released about the block as it arrives (the
// daemon's per-block share of Listing 1's aggregate) — as one mutation
// and one journal record, a LedgerRegister whose Budget is the charge:
// at no instant, in memory or in the log, does the block exist without
// its admission charge, so recovery has nothing to repair. An existing
// block is a no-op returning false (not journaled, not charged); a
// charge above the ceiling fails with ErrBlockExhausted, admitting
// nothing. A failed durability wait is handled as in Request.
//
//sage:journaled
func (ac *AccessControl) AdmitBlock(id data.BlockID, charge privacy.Budget) (bool, error) {
	if err := charge.Validate(); err != nil {
		return false, err
	}
	k := ac.ShardOf(id)
	sh := ac.shards[k]
	cb := ac.retireCallback()
	sh.mu.Lock()
	if _, ok := sh.blocks[id]; ok {
		sh.mu.Unlock()
		return false, nil
	}
	st := &blockState{}
	// A zero charge is not a query: nothing to afford, and the block's
	// charge count stays zero.
	charged := !charge.IsZero()
	if charged && !ac.affords(st, charge) {
		sh.mu.Unlock()
		return false, ErrBlockExhausted{ID: id, Requested: charge, Remaining: ac.policy.Global}
	}
	wait, err := ac.stageLocked(k, LedgerRecord{Op: LedgerRegister, Blocks: []data.BlockID{id}, Budget: charge})
	if err != nil {
		sh.mu.Unlock()
		return false, err
	}
	sh.blocks[id] = st
	retired := charged && ac.spendLocked(st, charge, cb != nil)
	sh.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return false, err
		}
	}
	if retired && cb != nil {
		cb(id)
	}
	return true, nil
}

// spendLocked deducts b from a block that can afford it and reports
// whether that retired the block. With a retention hook installed
// (hooked) the caller runs it once the spend is durable, deleting the
// block's raw data, so the retirement is irreversible even if budget is
// refunded later. Caller holds the block's shard lock.
func (ac *AccessControl) spendLocked(st *blockState, b privacy.Budget, hooked bool) bool {
	st.loss = st.loss.Add(b)
	st.queries++
	ac.noteLoss(st.loss)
	if !ac.shouldRetire(st) {
		return false
	}
	st.retired = true
	st.reason = RetireBudgetExhausted
	if hooked {
		st.sticky = true
		st.reason = RetireDataDeleted
	}
	return true
}

// NumBlocks returns the number of registered blocks.
func (ac *AccessControl) NumBlocks() int {
	n := 0
	for _, sh := range ac.shards {
		sh.mu.Lock()
		n += len(sh.blocks)
		sh.mu.Unlock()
	}
	return n
}

// ErrUnknownBlock is returned when a request names an unregistered block.
type ErrUnknownBlock struct{ ID data.BlockID }

func (e ErrUnknownBlock) Error() string {
	return fmt.Sprintf("core: unknown block %d", e.ID)
}

// ErrBlockExhausted is returned when a request would push a block's
// cumulative privacy loss over the global ceiling.
type ErrBlockExhausted struct {
	ID        data.BlockID
	Requested privacy.Budget
	Remaining privacy.Budget
}

func (e ErrBlockExhausted) Error() string {
	return fmt.Sprintf("core: block %d cannot afford %v (remaining %v)",
		e.ID, e.Requested, e.Remaining)
}

// ErrRefundExceedsSpend is returned when a refund asks a block for more
// budget than its cumulative loss holds. A live caller only refunds what
// it reserved, so this is a caller bug or — at recovery — a damaged
// refund record; either way the ledger is left as it was.
type ErrRefundExceedsSpend struct {
	ID     data.BlockID
	Refund privacy.Budget
	Loss   privacy.Budget
}

func (e ErrRefundExceedsSpend) Error() string {
	return fmt.Sprintf("core: refund of %v exceeds block %d's loss %v",
		e.Refund, e.ID, e.Loss)
}

// uniqueIDs returns ids with duplicates removed, preserving first-
// occurrence order. Short lists — the common case: adaptive training
// windows are a few dozen blocks — are checked with a quadratic scan
// that allocates nothing when there are no duplicates; longer lists pay
// one map.
func uniqueIDs(ids []data.BlockID) []data.BlockID {
	if len(ids) <= 64 {
		for i := 1; i < len(ids); i++ {
			for j := 0; j < i; j++ {
				if ids[j] == ids[i] {
					return dedupIDs(ids)
				}
			}
		}
		return ids
	}
	seen := make(map[data.BlockID]struct{}, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; dup {
			return dedupIDs(ids)
		}
		seen[id] = struct{}{}
	}
	return ids
}

// dedupIDs filters ids to first occurrences. Called only when a
// duplicate is known to exist.
func dedupIDs(ids []data.BlockID) []data.BlockID {
	seen := make(map[data.BlockID]struct{}, len(ids))
	out := make([]data.BlockID, 0, len(ids))
	for _, id := range ids {
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
			out = append(out, id)
		}
	}
	return out
}

// Request atomically deducts budget b from every block in ids. If any
// block cannot afford it the whole request fails with ErrBlockExhausted
// (or ErrUnknownBlock) and no budget is deducted anywhere. This is the
// AccessControl predicate of Alg. (4c): the query may run only if every
// involved block stays within (εg, δg).
//
// Duplicate IDs in ids are coalesced: a query reads each block's data
// once however many times the block is named, so it is checked and
// charged once per distinct block. (Charging per occurrence while
// checking per occurrence against pre-spend state — the old behavior —
// let a request naming a block k times overshoot the ceiling by a factor
// of k.)
//
// With blocks spanning several shards, every involved shard is locked
// (ascending order) for the whole check/journal/deduct sequence — the
// all-or-nothing multi-shard reservation that keeps the ceiling
// invariant un-raceable — and the journal record is split into one
// sub-record per shard so each record lands in its shard's WAL segment.
//
//sage:journaled
func (ac *AccessControl) Request(ids []data.BlockID, b privacy.Budget) error {
	if len(ids) == 0 {
		return fmt.Errorf("core: request names no blocks")
	}
	cb := ac.retireCallback()
	var retiredNow []data.BlockID
	err := ac.stageAndApply(LedgerRequest, ids, b,
		func(id data.BlockID, st *blockState) error {
			if st.retired || !ac.affords(st, b) {
				return ErrBlockExhausted{
					ID:        id,
					Requested: b,
					Remaining: ac.policy.Global.Sub(st.loss),
				}
			}
			return nil
		},
		func(id data.BlockID, st *blockState) {
			if ac.spendLocked(st, b, cb != nil) {
				retiredNow = append(retiredNow, id)
			}
		})
	// A wait failure means the spend may not be on disk: the caller is
	// not acknowledged (error return) and retirement side effects are
	// withheld; the in-memory deduction stands, which is conservative.
	if err == nil && cb != nil {
		for _, id := range retiredNow {
			cb(id)
		}
	}
	return err
}

// stageAndApply is the write skeleton Request and Refund share: validate
// b (zero is a no-op), coalesce duplicate ids, lock the involved shards
// in ascending order, check every block (an unknown id is
// ErrUnknownBlock; a non-nil check adds the operation's own admission
// rule), stage one op sub-record per shard, apply to every block,
// unlock, and only then wait for durability. Nothing is staged unless
// every check passed, nothing applied unless every sub-record staged.
//
//sage:journaled
func (ac *AccessControl) stageAndApply(op LedgerOp, ids []data.BlockID, b privacy.Budget,
	check func(data.BlockID, *blockState) error, apply func(data.BlockID, *blockState)) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if b.IsZero() {
		return nil
	}
	ids = uniqueIDs(ids)
	groups := ac.groupByShard(ids)
	var waits []func() error
	ac.lockGroups(groups)
	err := func() error {
		for _, g := range groups {
			sh := ac.shards[g.shard]
			for _, id := range g.ids {
				st, ok := sh.blocks[id]
				if !ok {
					return ErrUnknownBlock{ID: id}
				}
				if check != nil {
					if err := check(id, st); err != nil {
						return err
					}
				}
			}
		}
		// Journal point: the operation is admissible. One sub-record per
		// involved shard is staged *before* any block changes or the
		// caller is acknowledged, so a crash from here on can only leave
		// the recovered ledger with (part of) a journaled-but-
		// unacknowledged operation. For a request that is over-counted
		// spend — conservative, never the reverse. For a refund it
		// under-counts only relative to the *reserved* budget, never the
		// consumed one: the matching request is already in the same
		// shard's log (journal order within a shard is lock order), and a
		// refund never exceeds that reservation's unconsumed remainder. A
		// staging failure aborts with nothing applied; sub-records already
		// staged recover as unacknowledged, the allowed direction.
		for _, g := range groups {
			w, err := ac.stageLocked(g.shard, LedgerRecord{Op: op, Blocks: g.ids, Budget: b})
			if err != nil {
				return err
			}
			if w != nil {
				waits = append(waits, w)
			}
		}
		for _, g := range groups {
			sh := ac.shards[g.shard]
			for _, id := range g.ids {
				apply(id, sh.blocks[id])
			}
		}
		return nil
	}()
	ac.unlockGroups(groups)
	// The durability wait happens outside the shard locks: that is what
	// lets concurrent operations on one shard stage into the same group-
	// commit batch instead of serializing one fdatasync each.
	if werr := awaitAll(waits); err == nil {
		err = werr
	}
	return err
}

// affords reports whether charging b next keeps the block's loss within
// the ceiling (up to Covers' floating-point tolerance). Caller holds the
// block's shard lock.
func (ac *AccessControl) affords(st *blockState, b privacy.Budget) bool {
	return ac.policy.Global.Covers(st.loss.Add(b))
}

// shouldRetire reports whether a block has no usable budget left. A block
// is retired once the smallest meaningful request (ε = εg/1000) would
// exceed the ceiling; the paper retires blocks whose loss reaches the
// ceiling. Caller holds the block's shard lock.
func (ac *AccessControl) shouldRetire(st *blockState) bool {
	return !ac.affords(st, privacy.Budget{Epsilon: ac.policy.Global.Epsilon / 1000})
}

// Refund returns unspent budget to every block in ids. Pipelines reserve
// budget up front and refund what privacy-adaptive training did not use
// (§3.3). Refunding a block retired purely by budget exhaustion (no
// retention hook involved) un-retires it; forced retirements and
// retirements whose retention callback already ran stay retired — the
// raw data is gone, so regained budget cannot resurrect the block.
// Like Request, Refund is atomic: every id is validated before any block
// is mutated, so an unknown block leaves the ledger untouched instead of
// refunding a prefix. Duplicate IDs are coalesced for symmetry with
// Request — a reservation charged once per distinct block must be
// returned once per distinct block. A refund some block's loss does not
// cover is refused with ErrRefundExceedsSpend before anything is
// journaled: accepting it would under-count privacy loss, and at
// recovery it means a damaged record, which must fail the open. Cover is
// Budget.Covers, the tolerance the ceiling check uses: a caller
// returning exactly what it was charged can find the running sum an ulp
// short of it after rounding, and that refund empties the block (Sub
// clamps at zero) instead of failing. A refund returns budget, not a
// query: BlockReport.Queries does not change.
//
//sage:journaled
func (ac *AccessControl) Refund(ids []data.BlockID, b privacy.Budget) error {
	return ac.stageAndApply(LedgerRefund, ids, b,
		func(id data.BlockID, st *blockState) error {
			if !st.loss.Covers(b) {
				return ErrRefundExceedsSpend{ID: id, Refund: b, Loss: st.loss}
			}
			return nil
		},
		func(_ data.BlockID, st *blockState) {
			st.loss = st.loss.Sub(b)
			if !st.sticky && !ac.shouldRetire(st) {
				st.retired = false
				st.reason = RetireNone
			}
		})
}

// Retire forcibly retires a block regardless of remaining budget. Forced
// retirement is sticky: no refund can reverse it.
//
//sage:journaled
func (ac *AccessControl) Retire(id data.BlockID) error {
	k := ac.ShardOf(id)
	sh := ac.shards[k]
	sh.mu.Lock()
	st, ok := sh.blocks[id]
	if !ok {
		sh.mu.Unlock()
		return ErrUnknownBlock{ID: id}
	}
	// A block that is already sticky-retired cannot change state (the
	// reason is already forced or retention-deleted): pure no-op, not
	// journaled — same rule as re-registering an existing block.
	if st.retired && st.sticky {
		sh.mu.Unlock()
		return nil
	}
	wait, err := ac.stageLocked(k, LedgerRecord{Op: LedgerRetire, Blocks: []data.BlockID{id}})
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	already := st.retired
	st.retired = true
	st.sticky = true
	// An operator decision supersedes a (reversible) budget-exhaustion
	// reason, but never rewrites retention-deleted: the data is gone and
	// the audit trail should keep saying why.
	if st.reason != RetireDataDeleted {
		st.reason = RetireForced
	}
	cb := ac.retireCallback()
	sh.mu.Unlock()
	if wait != nil {
		if err := wait(); err != nil {
			return err
		}
	}
	if !already && cb != nil {
		cb(id)
	}
	return nil
}

// Retired reports whether a block has been retired.
func (ac *AccessControl) Retired(id data.BlockID) bool {
	sh := ac.shards[ac.ShardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.blocks[id]
	return ok && st.retired
}

// BlockLoss returns a block's cumulative privacy loss: the sum of its
// charges less its refunds (zero for unknown blocks).
func (ac *AccessControl) BlockLoss(id data.BlockID) privacy.Budget {
	sh := ac.shards[ac.ShardOf(id)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.blocks[id]
	if !ok {
		return privacy.Zero
	}
	return st.loss
}

// AvailableBlocks returns the registered, non-retired blocks that can
// still afford a request of at least the given budget, filtered from the
// candidate list (pass a GrowingDatabase's Blocks()). Order is preserved.
// Each candidate is evaluated under its own shard's lock, so no block's
// state is ever read torn; across shards the view is per-block
// consistent (the set may interleave with racing charges, as any
// point-in-time filter must).
func (ac *AccessControl) AvailableBlocks(candidates []data.BlockID, atLeast privacy.Budget) []data.BlockID {
	keep := make([]bool, len(candidates))
	ac.forEachShardOf(candidates, func(sh *shard, idx []int) {
		for _, i := range idx {
			st, ok := sh.blocks[candidates[i]]
			keep[i] = ok && !st.retired && ac.affords(st, atLeast)
		}
	})
	var out []data.BlockID
	for i, k := range keep {
		if k {
			out = append(out, candidates[i])
		}
	}
	return out
}

// forEachShardOf groups the candidate indexes by shard and runs fn once
// per involved shard under that shard's lock (one lock held at a time).
func (ac *AccessControl) forEachShardOf(ids []data.BlockID, fn func(sh *shard, idx []int)) {
	if len(ac.shards) == 1 {
		sh := ac.shards[0]
		idx := make([]int, len(ids))
		for i := range ids {
			idx[i] = i
		}
		sh.mu.Lock()
		fn(sh, idx)
		sh.mu.Unlock()
		return
	}
	perShard := make([][]int, len(ac.shards))
	for i, id := range ids {
		k := ac.ShardOf(id)
		perShard[k] = append(perShard[k], i)
	}
	for k, idx := range perShard {
		if len(idx) == 0 {
			continue
		}
		sh := ac.shards[k]
		sh.mu.Lock()
		fn(sh, idx)
		sh.mu.Unlock()
	}
}

// StreamLoss returns the privacy loss of the entire stream: by
// Theorem 4.2 it is the maximum cumulative loss over blocks, so the
// stream-wide guarantee is (εg, δg)-DP as long as every block stays under
// the ceiling (Theorem 4.3). Shards are scanned one lock at a time: each
// block's loss is read consistently, and at quiescence the result is
// exact. For a lock-free monotone bound see StreamLossWatermark.
func (ac *AccessControl) StreamLoss() privacy.Budget {
	max := privacy.Zero
	for _, sh := range ac.shards {
		sh.mu.Lock()
		for _, st := range sh.blocks {
			if st.loss.Epsilon > max.Epsilon {
				max.Epsilon = st.loss.Epsilon
			}
			if st.loss.Delta > max.Delta {
				max.Delta = st.loss.Delta
			}
		}
		sh.mu.Unlock()
	}
	return max
}

// BlockReport summarizes one block's accounting state for inspection
// tools (cmd/sagectl).
type BlockReport struct {
	ID     data.BlockID
	Loss   privacy.Budget
	Remain privacy.Budget
	// Queries counts the charges the block has taken, its admission
	// charge included; refunds do not give queries back.
	Queries int
	Retired bool
	// Reason distinguishes budget-exhausted, forced, and
	// retention-deleted retirements (RetireNone while active).
	Reason RetireReason
}

// Report returns per-block accounting state for the given blocks, in
// their given order (unknown blocks are skipped). Each block's row is
// built under its shard's lock, so a row is never torn — loss, retired,
// and reason are one consistent read.
func (ac *AccessControl) Report(ids []data.BlockID) []BlockReport {
	rows := make([]*BlockReport, len(ids))
	ac.forEachShardOf(ids, func(sh *shard, idx []int) {
		for _, i := range idx {
			id := ids[i]
			st, ok := sh.blocks[id]
			if !ok {
				continue
			}
			remain := ac.policy.Global.Sub(st.loss)
			if st.retired {
				remain = privacy.Zero
			}
			rows[i] = &BlockReport{
				ID:      id,
				Loss:    st.loss,
				Remain:  remain,
				Queries: st.queries,
				Retired: st.retired,
				Reason:  st.reason,
			}
		}
	})
	out := make([]BlockReport, 0, len(ids))
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
	return out
}
