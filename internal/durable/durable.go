// Package durable binds Sage's two stateful layers — the privacy ledger
// (core.AccessControl) and the model & feature store (store.Store) — to
// write-ahead logs (internal/wal), turning the in-memory platform into
// one that survives crashes. This is the durability prerequisite for
// continuous operation (§3.2's indefinitely-growing stream): a platform
// that can lose privacy spend in a crash cannot honestly claim the
// (εg, δg) block-composition guarantee, because a restarted process
// would re-grant budget that was already consumed.
//
// # Layout
//
// Open(dir) manages one store log and N ledger segments in one
// directory. With one ledger shard (the default) the layout is the
// legacy pair:
//
//	ledger.wal — one record per ledger mutation (register / request /
//	             refund / retire, core.LedgerRecord canonical encoding;
//	             a register record carries the block's admission charge,
//	             zero in logs that charged it with a following request),
//	             plus snapshot records written by Compact.
//	store.wal  — one record per release, the bundle's canonical bytes
//	             (store.Bundle.CanonicalBytes). The record is the push
//	             body, so what the WAL certifies is exactly what
//	             replicas hold.
//
// With Options.LedgerShards = N > 1 the ledger is striped: shard k of
// the sharded core.AccessControl journals into its own segment
// `ledger-k-of-N.wal`. A mutation spanning several shards is split by
// the ledger into one sub-record per shard, each naming only that
// shard's blocks, so every block's entire history — register, every
// charge, every refund, retirement, snapshots — lives in exactly one
// segment, in mutation order. That single fact is what makes
// multi-segment recovery trivially correct: segments never need to be
// interleaved by time, because no two segments ever mention the same
// block.
//
// The segment count is a property of the directory, fixed at creation:
// the filenames are self-describing, and Open follows what is on disk
// even if Options.LedgerShards disagrees (Stats.LedgerShards reports
// the effective count). Re-striping an existing directory would move
// blocks between segments and reorder their replay; refusing to is the
// safe behavior.
//
// # Recovery
//
// Open replays each log through the same public mutation methods that
// produced it — core.AccessControl.Apply maps a record to its mutator;
// this package never interprets one — with journals installed only
// after every segment is replayed, so replay does not re-journal, and
// repairs nothing afterwards. Segments are replayed sequentially
// (k = 0..N-1); because segments partition the block space, replay
// order across segments is immaterial. Each segment
// starts with at most one snapshot record (written by per-segment
// compaction) which RestoreSnapshot *merges* — replacing that shard's
// blocks, leaving other shards' already-replayed blocks alone. Torn or
// corrupt tails are truncated independently per segment by the WAL
// layer; a record that fails to decode or re-apply is a hard error —
// that is middle-of-log corruption, which the appendable-journal crash
// model says cannot happen, so refusing to guess is safer than serving
// a ledger with a hole in it.
//
// # Crash-consistency rule
//
// Both layers journal before acknowledging (see core/journal.go and
// store.SetJournal), so for any crash point the recovered state is the
// acknowledged state plus possibly a suffix of journaled-but-
// unacknowledged operations. For the ledger that means recovered
// per-block loss ≥ budget actually consumed by acknowledged releases —
// recovery can waste budget (a spend whose grant never reached the
// caller), never under-count it. The fault-injection tests in this
// package cut the logs at every record boundary — including a single
// segment of a multi-segment layout — and pin that invariant.
//
// Sharding adds one new crash shape: a multi-shard Request journals
// sub-records into several segments and is acknowledged only after all
// of them are durable. A crash between segment writes leaves some
// shards' sub-records on disk and others not — so some blocks of the
// (unacknowledged) request recover charged and others do not. That is
// the same conservative direction as before, now per block instead of
// per operation: no acknowledged spend is ever lost, and refund
// sub-records still follow their request sub-records within each
// segment (per-shard journal order is per-shard lock order), so a
// surviving refund always has its matching request.
//
// Every log commits through the WAL's one batch path (see the wal
// package docs), synced or not. The ledger stages each sub-record under
// the shard lock but waits for durability after releasing it, so
// concurrent charges on one shard amortize a single fdatasync instead
// of paying one each — see BENCH_ledger.json for the measured effect.
//
// The store log and ledger segments are independent. The daemon orders
// its operations so that the cross-log interleavings a crash can
// produce are all safe: budget is journaled (ledger) before a release
// is journaled (store), and the release is journaled before it is
// pushed to replicas — so a crash can leave spend without its release
// (conservative) but never a released or replicated bundle without its
// spend.
package durable

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Record types in ledger.wal.
const (
	recLedgerSnapshot byte = 1
	recLedgerOp       byte = 2
)

// Record type in store.wal: every record is one release's canonical
// bytes (snapshots are just the same records rewritten by compaction).
const recBundle byte = 1

// LedgerLogName and StoreLogName are the file names inside the WAL
// directory (single-shard ledger layout).
const (
	LedgerLogName = "ledger.wal"
	StoreLogName  = "store.wal"
)

// LedgerSegmentName returns the file name of ledger segment k in an
// n-way sharded layout. With n == 1 it is the legacy LedgerLogName, so
// single-shard directories are always the legacy layout.
func LedgerSegmentName(k, n int) string {
	if n == 1 {
		return LedgerLogName
	}
	return fmt.Sprintf("ledger-%d-of-%d.wal", k, n)
}

// Options configures Open.
type Options struct {
	// NoSync disables per-append fsync on all logs (tests/benchmarks
	// only; see wal.Options.NoSync).
	NoSync bool
	// LedgerShards stripes the ledger (and its WAL) N ways. Only
	// consulted when the directory is empty: an existing directory's
	// segment layout wins (see the package docs). 0 means 1.
	LedgerShards int
	// Metrics, when non-nil, instruments every write-ahead log (and the
	// shared sync group, if one is used) in the given registry; series
	// are labeled per log file. See wal.Options.Metrics.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives one-line structured state-transition
	// logs from the logs (e.g. WAL poisoning). See wal.Options.Logf.
	Logf func(format string, args ...any)
	// OnRetire is the DP-retention hook, registered on the ledger
	// *before* replay so that recovery reproduces retirement stickiness
	// (a hook that deleted raw data makes the retirement irreversible)
	// exactly as it happened. During replay the hook re-fires for
	// blocks retired in the journal; retention deletion is idempotent
	// (the post-crash database is empty), but the hook must tolerate
	// being called for blocks it has already processed.
	OnRetire func(data.BlockID)
	// Tracer, when non-nil, records WAL commit cohorts as span trees
	// (append → seal → flush). See wal.Options.Tracer.
	Tracer *trace.Tracer
}

// Platform is the durable platform core: a ledger and a store whose
// every acknowledged mutation is in the write-ahead logs.
type Platform struct {
	AC    *core.AccessControl
	Store *store.Store

	ledgerSegs []*wal.Log // one per ledger shard, index == shard
	storeLog   *wal.Log
	syncGroup  *wal.SyncGroup // shared flush for multi-segment layouts, nil otherwise
}

// detectLedgerShards decides the directory's ledger segment count: the
// on-disk layout if one exists, otherwise the configured count.
func detectLedgerShards(dir string, configured int) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ledger-*-of-*.wal"))
	if err != nil {
		return 0, fmt.Errorf("durable: scan %s: %w", dir, err)
	}
	n := 0
	for _, m := range matches {
		var k, nn int
		if _, err := fmt.Sscanf(filepath.Base(m), "ledger-%d-of-%d.wal", &k, &nn); err != nil {
			continue // not a segment file (e.g. a user's stray file)
		}
		if nn < 2 || k < 0 || k >= nn {
			return 0, fmt.Errorf("durable: segment file %s is inconsistent", filepath.Base(m))
		}
		if n != 0 && n != nn {
			return 0, fmt.Errorf("durable: %s mixes %d-way and %d-way ledger segments", dir, n, nn)
		}
		n = nn
	}
	legacy := false
	if fi, err := os.Stat(filepath.Join(dir, LedgerLogName)); err == nil && fi.Size() > 0 {
		legacy = true
	}
	if n != 0 {
		if legacy {
			return 0, fmt.Errorf("durable: %s has both %s and %d-way segments — ambiguous layout", dir, LedgerLogName, n)
		}
		return n, nil
	}
	if legacy {
		return 1, nil
	}
	if configured < 1 {
		return 1, nil
	}
	return configured, nil
}

// Open opens (creating if needed) the WAL directory, replays every log,
// and returns a platform positioned exactly where the last acknowledged
// operation left it. The returned stats describe what recovery found.
func Open(dir string, policy core.Policy, opts Options) (*Platform, Stats, error) {
	var stats Stats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("durable: create %s: %w", dir, err)
	}
	nshards, err := detectLedgerShards(dir, opts.LedgerShards)
	if err != nil {
		return nil, stats, err
	}
	walOpts := wal.Options{
		NoSync:  opts.NoSync,
		Metrics: opts.Metrics,
		Logf:    opts.Logf,
		Tracer:  opts.Tracer,
	}
	// With several segments on one filesystem, per-segment fsyncs
	// serialize on the filesystem journal; a shared sync group turns a
	// cohort of concurrent cross-segment commits into one flush. Falls
	// back to per-file fsync where syncfs is unavailable.
	var group *wal.SyncGroup
	if nshards > 1 && !opts.NoSync && wal.SyncGroupSupported() {
		if g, err := wal.NewSyncGroup(dir); err == nil {
			if opts.Metrics != nil {
				g.Instrument(opts.Metrics)
			}
			group = g
			walOpts.SyncGroup = g
		}
	}

	segs := make([]*wal.Log, nshards)
	closeSegs := func() {
		for _, l := range segs {
			if l != nil {
				l.Close()
			}
		}
		if group != nil {
			group.Close()
		}
	}
	ac := core.NewShardedAccessControl(policy, nshards)
	if opts.OnRetire != nil {
		ac.SetRetireCallback(opts.OnRetire)
	}
	stats.LedgerShards = nshards
	stats.LedgerSegments = make([]wal.Stats, nshards)
	// Replay segment by segment. Segments partition the block space, so
	// sequential replay is order-correct; the journal is installed only
	// after every segment is in.
	for k := 0; k < nshards; k++ {
		seg, recs, err := wal.Open(filepath.Join(dir, LedgerSegmentName(k, nshards)), walOpts)
		if err != nil {
			closeSegs()
			return nil, stats, err
		}
		segs[k] = seg
		if err := replayLedger(ac, recs); err != nil {
			closeSegs()
			return nil, stats, fmt.Errorf("durable: segment %s: %w", LedgerSegmentName(k, nshards), err)
		}
		st := seg.Stats()
		stats.LedgerSegments[k] = st
		stats.Ledger.Records += st.Records
		stats.Ledger.TornBytes += st.TornBytes
		stats.Ledger.Truncated = stats.Ledger.Truncated || st.Truncated
	}
	ac.SetShardJournal(func(shard int, rec core.LedgerRecord) (func() error, error) {
		c, err := segs[shard].AppendAsync(recLedgerOp, rec.Encode())
		if err != nil {
			return nil, err
		}
		return c.Wait, nil
	})

	storeLog, storeRecs, err := wal.Open(filepath.Join(dir, StoreLogName), walOpts)
	if err != nil {
		closeSegs()
		return nil, stats, err
	}
	st := store.New()
	if err := replayStore(st, storeRecs); err != nil {
		closeSegs()
		storeLog.Close()
		return nil, stats, err
	}
	st.SetJournal(func(canonical []byte) error {
		return storeLog.Append(recBundle, canonical)
	})

	stats.Store = storeLog.Stats()
	return &Platform{AC: ac, Store: st, ledgerSegs: segs, storeLog: storeLog, syncGroup: group}, stats, nil
}

// Stats reports what recovery found in each log.
type Stats struct {
	// Ledger aggregates all ledger segments: total records, total torn
	// bytes, truncated if any segment was.
	Ledger wal.Stats
	Store  wal.Stats
	// LedgerShards is the effective segment count (on-disk layout wins
	// over Options.LedgerShards for an existing directory).
	LedgerShards int
	// LedgerSegments holds each segment's own recovery stats.
	LedgerSegments []wal.Stats
}

// replayLedger applies recovered ledger records in order (no journal is
// installed yet, so core's Apply does not re-journal them).
func replayLedger(ac *core.AccessControl, records []wal.Record) error {
	for i, r := range records {
		switch r.Type {
		case recLedgerSnapshot:
			if err := ac.RestoreSnapshot(r.Payload); err != nil {
				return fmt.Errorf("durable: ledger record %d: %w", i, err)
			}
		case recLedgerOp:
			rec, err := core.DecodeLedgerRecord(r.Payload)
			if err != nil {
				return fmt.Errorf("durable: ledger record %d: %w", i, err)
			}
			if err := ac.Apply(rec); err != nil {
				return fmt.Errorf("durable: ledger record %d (%v): %w", i, rec.Op, err)
			}
		default:
			return fmt.Errorf("durable: ledger record %d: unknown type %d", i, r.Type)
		}
	}
	return nil
}

// replayStore re-applies recovered releases in journal order.
func replayStore(st *store.Store, records []wal.Record) error {
	for i, r := range records {
		if r.Type != recBundle {
			return fmt.Errorf("durable: store record %d: unknown type %d", i, r.Type)
		}
		b, err := store.DecodeCanonicalBundle(r.Payload)
		if err != nil {
			return fmt.Errorf("durable: store record %d: %w", i, err)
		}
		if _, err := st.Apply(*b); err != nil {
			return fmt.Errorf("durable: store record %d (%s@v%d): %w", i, b.Name, b.Version, err)
		}
	}
	return nil
}

// Compact rewrites every log as a snapshot of current state, bounding
// recovery time for a long-running daemon. Each ledger segment is
// rewritten independently as its own shard's snapshot record (each
// rewrite is atomic per segment; a crash mid-way leaves some segments
// compacted and others not, which recovery handles since segments are
// independent). It must not race mutations: the caller (the daemon's
// single-threaded loop) must ensure no Request/Publish/… is in flight,
// or the racing operation's journal record could be rewritten away.
func (p *Platform) Compact() error {
	_, err := p.CompactIfLarger(-1)
	return err
}

// CompactIfLarger compacts only the logs whose current size exceeds
// threshold bytes — the daemon's size-triggered compaction. Each ledger
// segment is judged and rewritten independently, so one hot shard does
// not force rewriting the cold ones. Returns how many logs were
// compacted. The same no-racing-mutations rule as Compact applies.
func (p *Platform) CompactIfLarger(threshold int64) (int, error) {
	n := 0
	for k, seg := range p.ledgerSegs {
		if seg.Size() <= threshold {
			continue
		}
		if err := seg.Compact([]wal.Record{
			{Type: recLedgerSnapshot, Payload: p.AC.SnapshotShard(k)},
		}); err != nil {
			return n, err
		}
		n++
	}
	if p.storeLog.Size() > threshold {
		if err := p.compactStore(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// compactStore rewrites the store log as one record per live bundle.
func (p *Platform) compactStore() error {
	bundles := p.Store.SnapshotBundles()
	records := make([]wal.Record, len(bundles))
	for i, b := range bundles {
		records[i] = wal.Record{Type: recBundle, Payload: b}
	}
	return p.storeLog.Compact(records)
}

// LedgerShards returns the number of ledger WAL segments (== the
// ledger's shard count).
func (p *Platform) LedgerShards() int { return len(p.ledgerSegs) }

// LogSizes returns the current byte sizes of (ledger, store) logs; the
// ledger size is the sum over segments.
func (p *Platform) LogSizes() (int64, int64) {
	var ledger int64
	for _, seg := range p.ledgerSegs {
		ledger += seg.Size()
	}
	return ledger, p.storeLog.Size()
}

// LogFiles returns the WAL file paths present in dir, ledger segments
// first in shard order, then the store log — the inspection tooling's
// (`sagectl wal`) view of a durable directory. It never creates files.
func LogFiles(dir string) ([]string, error) {
	nshards, err := detectLedgerShards(dir, 1)
	if err != nil {
		return nil, err
	}
	var out []string
	for k := 0; k < nshards; k++ {
		if p := filepath.Join(dir, LedgerSegmentName(k, nshards)); fileExists(p) {
			out = append(out, p)
		}
	}
	if p := filepath.Join(dir, StoreLogName); fileExists(p) {
		out = append(out, p)
	}
	return out, nil
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// Close syncs and closes every log. The ledger and store remain usable
// in memory but further mutations will fail their journal writes.
func (p *Platform) Close() error {
	var err error
	for _, seg := range p.ledgerSegs {
		if cerr := seg.Close(); err == nil {
			err = cerr
		}
	}
	if serr := p.storeLog.Close(); err == nil {
		err = serr
	}
	if p.syncGroup != nil {
		if gerr := p.syncGroup.Close(); err == nil {
			err = gerr
		}
	}
	return err
}
