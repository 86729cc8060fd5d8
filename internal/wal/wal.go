// Package wal implements the write-ahead log under Sage's durable
// platform core. Every stateful layer of the platform — the privacy
// ledger (core.AccessControl) and the model & feature store
// (store.Store) — journals its mutations here *before* acknowledging
// them, so a crash at any instant loses at most work that was never
// acknowledged, never privacy spend that was. Recovery is replay: open
// the log, apply the surviving records in order, and the process is
// exactly where the last acknowledged operation left it.
//
// # Format
//
// The log is a single file of length-prefixed, checksummed records:
//
//	uint32 big-endian payload length
//	byte   record type (opaque to this package)
//	uint32 big-endian CRC-32C (Castagnoli) over type byte + payload
//	payload
//
// # Crash consistency
//
// Appends write the whole frame with one write(2) call and (unless
// Options.NoSync) fdatasync before returning, so an acknowledged append
// is on disk. A crash mid-append leaves a torn tail: a partial header,
// a partial payload, or a frame whose checksum does not match. Open
// detects all three, truncates the file back to the last intact record
// boundary, and reports the dropped bytes in Stats — replay never sees
// a half-written record, and the log is immediately appendable again.
// Corruption is treated as tail damage: the first bad frame ends
// recovery, and everything after it is discarded. That is the right
// semantics for a journal whose only writer appends (the only expected
// damage is at the end), and it is what makes the ledger's
// crash-consistency argument go through: the surviving records are
// always a *prefix* of the acknowledged-or-in-flight operations.
//
// A write or sync failure poisons the log: the failed frame may be
// partially on disk, so any record appended after it could land beyond
// a torn frame and become unreachable to recovery even though its own
// write succeeded — an acknowledged-but-unrecoverable record, exactly
// the inversion journal-before-ack forbids. Every subsequent Append on
// a poisoned log therefore fails fast with the original error; the
// only way back is to reopen, which truncates the torn tail.
//
// # Commit path
//
// Every append, synced or not, is a staging step and a durability wait
// (AppendAsync returning a Commit ticket; Append is the two chained).
// AppendAsync stages the frame into the current batch — a lone append
// is a batch of one — and the first Wait on the batch writes all of it
// with one write(2) and, unless NoSync, one flush; the other appenders'
// Wait calls unblock when their frame is durable, and a write or sync
// failure surfaces from Wait. Batches commit strictly in staging order
// (the commit lock covers seal→write→sync), so the on-disk record order
// equals staging order and the torn-tail prefix argument above is
// unchanged. Journal-before-ack is preserved exactly: Wait returns nil
// only after the frame's batch is written and synced. Before sealing,
// the driving Wait lingers for runnable appenders only when a per-file
// fdatasync follows (150-220µs on the bench hardware vs about 1µs per
// unsynced append): with NoSync there is no flush to amortize, and a
// SyncGroup amortizes its own. BENCH_wal.json gates the append,
// BENCH_ledger.json the contended whole.
//
// # Compaction
//
// An append-only journal grows forever; Compact rewrites it as a
// snapshot. The caller provides the records that reconstruct current
// state (for the ledger, one snapshot record per shard segment; for the
// store, one record per bundle); Compact writes them to a temporary
// file in the same directory, syncs it, and atomically renames it over
// the log. A crash at any point leaves either the old log or the new
// one, never a mix — rename(2) on the same filesystem is atomic.
// Compact requires the same single-writer discipline as Append: the
// caller must ensure no concurrent appends race the rewrite, or they
// would be lost with it.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// headerSize is the fixed frame prefix: length (4) + type (1) + crc (4).
const headerSize = 9

// MaxRecordBytes bounds one record's payload (64 MiB — comfortably
// above the largest bundle the replica tier accepts). A scanned length
// beyond it is treated as corruption, so a damaged length field cannot
// make recovery attempt a multi-gigabyte allocation.
const MaxRecordBytes = 64 << 20

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one journaled entry: a type byte the client dispatches on
// and an opaque payload.
type Record struct {
	Type    byte
	Payload []byte
}

// Options configures a log.
type Options struct {
	// NoSync disables the per-append fdatasync. Throughput rises by
	// orders of magnitude, durability drops to "whatever the OS flushed
	// before the crash" — recovery still sees a valid prefix (the torn-
	// tail scan handles partially-flushed frames), it may just be an
	// older one. Tests and benchmarks use it; a production daemon must
	// not.
	NoSync bool
	// SyncGroup, when non-nil, replaces the per-file fdatasync with a
	// filesystem-wide group sync shared by several logs (the sharded
	// ledger's segments). Concurrent commits on different files then
	// amortize one flush instead of serializing one journal commit
	// each. Ignored when NoSync is set. See NewSyncGroup.
	SyncGroup *SyncGroup
	// Metrics, when non-nil, registers per-log instrumentation in the
	// registry (append/sync latency, commit batch depth, a poisoned
	// flag, size and record gauges), every series labeled
	// log=<basename>. An uninstrumented log pays one nil check per
	// append.
	Metrics *metrics.Registry
	// Logf, when non-nil, receives one-line structured state-transition
	// logs — currently the log-poisoning event.
	Logf func(format string, args ...any)
	// Tracer, when non-nil, records every committed batch as a span
	// tree: a wal.commit root carrying the log name and frame count,
	// with wal.append (the write) and wal.flush (the sync) as children.
	// Nil leaves the append path untraced.
	Tracer *trace.Tracer
}

// Stats reports what Open found.
type Stats struct {
	// Records is the number of intact records recovered.
	Records int
	// TornBytes counts bytes dropped from the tail: a partial frame
	// from a crash mid-append, or a frame whose checksum failed.
	TornBytes int64
	// Truncated is true when a torn or corrupt tail was cut off.
	Truncated bool
}

// Log is an append-only write-ahead log. Append and Compact are
// mutually excluded by an internal lock, but the single-writer
// discipline documented on Compact still applies: compaction snapshots
// state that appends mutate, so the two must be externally ordered.
type Log struct {
	mu     sync.Mutex // file state: f, size, count, stats, failed
	path   string
	f      *os.File
	size   int64
	count  int
	noSync bool
	stats  Stats
	// failed poisons the log after a write/sync error (see the package
	// docs): the torn frame makes every later append unreachable to
	// recovery, so acknowledging one would break journal-before-ack.
	failed error
	// ins is the optional per-log instrumentation (nil when the log was
	// opened without Options.Metrics); logf is the optional structured
	// transition logger.
	ins  *instruments
	logf func(format string, args ...any)
	// tracer records commit cohort spans (nil ⇒ untraced); base is the
	// precomputed file basename stamped on those spans.
	tracer *trace.Tracer
	base   string

	// Commit state. commitMu serializes seal→write→sync so batches hit
	// the file in staging order; batchMu guards only the staging batch.
	group    *SyncGroup // nil ⇒ per-file fsync
	commitMu sync.Mutex
	batchMu  sync.Mutex
	batch    *commitBatch
	// lastBatch is the most recently created batch (guarded by batchMu),
	// used to chain a new batch to an in-flight predecessor.
	lastBatch *commitBatch
}

// instruments is the optional per-log metric set. The handles are
// resolved once at Open so the append path does no lookups.
type instruments struct {
	appendSec   *metrics.Histogram
	syncSec     *metrics.Histogram
	batchFrames *metrics.Histogram
}

// commitBatch accumulates staged frames awaiting one shared commit.
type commitBatch struct {
	buf []byte
	n   int
	err error
	// done is released once the batch is committed (written and synced,
	// or failed), waking every parked waiter at once; unlike a channel
	// it costs no allocation per batch. committed reads the same fact
	// without blocking.
	done      sync.WaitGroup
	committed atomic.Bool
	// prev is the predecessor batch if it was still in flight when this
	// batch was created (cleared once this batch seals so old batches
	// can be collected). Waiters block on prev.done rather than on
	// commitMu, where a parked waiter whose batch already committed
	// would still wake up, barge in, and chop the next batch into
	// one-frame commits. The predecessor's fsync is exactly the window
	// in which this batch fills up.
	prev atomic.Pointer[commitBatch]
	// driver elects exactly one waiter to seal and commit this batch.
	// The losers park on done, so after a commit the whole cohort
	// stages its next frames into one batch instead of dribbling out of
	// a mutex queue one by one.
	driver atomic.Bool
}

// Open opens (creating if absent) the log at path, scans it, truncates
// any torn or corrupt tail, and returns the surviving records in append
// order. The returned log is positioned for appending.
func Open(path string, opts Options) (*Log, []Record, error) {
	// A leftover compaction temp file means a crash hit between writing
	// the replacement and renaming it; the rename never happened, so the
	// original log is authoritative and the temp is garbage.
	_ = os.Remove(compactPath(path))

	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	records, good := scan(raw)
	l := &Log{
		path:   path,
		f:      f,
		size:   good,
		count:  len(records),
		noSync: opts.NoSync,
		group:  opts.SyncGroup,
		stats: Stats{
			Records:   len(records),
			TornBytes: int64(len(raw)) - good,
			Truncated: good < int64(len(raw)),
		},
	}
	if l.stats.Truncated {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: sync %s: %w", path, err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seek %s: %w", path, err)
	}
	l.logf = opts.Logf
	l.tracer = opts.Tracer
	l.base = filepath.Base(path)
	if opts.Metrics != nil {
		base := filepath.Base(path)
		lbl := metrics.Label{Name: "log", Value: base}
		l.ins = &instruments{
			appendSec: opts.Metrics.Histogram("sage_wal_append_seconds",
				"Latency of one committed batch (write plus sync).", metrics.LatencyBuckets(), lbl),
			syncSec: opts.Metrics.Histogram("sage_wal_sync_seconds",
				"Latency of the sync step alone (fdatasync, or the shared syncfs cohort ride).", metrics.LatencyBuckets(), lbl),
			batchFrames: opts.Metrics.Histogram("sage_wal_commit_batch_frames",
				"Frames carried by one committed batch (the fsync amortization factor).", metrics.SizeBuckets(), lbl),
		}
		opts.Metrics.GaugeFunc("sage_wal_poisoned",
			"1 after a write/sync failure poisoned the log, else 0.",
			func() float64 {
				l.mu.Lock()
				defer l.mu.Unlock()
				if l.failed != nil {
					return 1
				}
				return 0
			}, lbl)
		opts.Metrics.GaugeFunc("sage_wal_size_bytes",
			"Current byte length of the log file.",
			func() float64 { return float64(l.Size()) }, lbl)
		opts.Metrics.GaugeFunc("sage_wal_records",
			"Records in the log (recovered plus appended).",
			func() float64 { return float64(l.Records()) }, lbl)
	}
	return l, records, nil
}

// nextFrame parses the frame that starts at raw[off]. n is its payload
// length, or -1 when no frame starts there: a torn header, a torn
// payload, or a length beyond MaxRecordBytes. crcOK reports whether the
// frame's checksum verified. It is the one reader of the frame layout;
// appendFrame is the one writer.
func nextFrame(raw []byte, off int64) (n int64, typ byte, payload []byte, crcOK bool) {
	rest := raw[off:]
	if len(rest) < headerSize {
		return -1, 0, nil, false
	}
	n = int64(binary.BigEndian.Uint32(rest))
	if n > MaxRecordBytes || int64(len(rest)) < headerSize+n {
		return -1, 0, nil, false
	}
	typ, payload = rest[4], rest[headerSize:headerSize+n]
	crc := crc32.Update(crc32.Checksum([]byte{typ}, castagnoli), castagnoli, payload)
	return n, typ, payload, crc == binary.BigEndian.Uint32(rest[5:9])
}

// scan walks raw and returns the intact records and the offset where
// their prefix ends. Scanning stops at the first torn or corrupt frame;
// everything after it is tail damage by the package's crash model.
func scan(raw []byte) ([]Record, int64) {
	var records []Record
	for off := int64(0); ; {
		n, typ, payload, ok := nextFrame(raw, off)
		if !ok {
			return records, off
		}
		records = append(records, Record{Type: typ, Payload: append([]byte(nil), payload...)})
		off += headerSize + n
	}
}

// RecordInfo describes one frame found by Inspect.
type RecordInfo struct {
	// Offset is the frame's byte offset in the file.
	Offset int64
	// Length is the payload length from the frame header.
	Length int64
	// Type is the record type byte.
	Type byte
	// CRCOK reports whether the frame's checksum verified. At most the
	// last reported frame can be false (scanning stops there).
	CRCOK bool
}

// InspectReport is Inspect's per-file summary: the intact record
// prefix, the first damaged frame if its header was readable, and how
// many tail bytes recovery would drop.
type InspectReport struct {
	Records []RecordInfo
	// GoodBytes is where the intact prefix ends — the offset recovery
	// truncates to.
	GoodBytes int64
	// TotalBytes is the file's size.
	TotalBytes int64
}

// Torn reports whether the file carries tail damage (recovery would
// truncate TotalBytes-GoodBytes bytes).
func (r InspectReport) Torn() bool { return r.GoodBytes < r.TotalBytes }

// Inspect scans the log file at path without opening it for writing and
// reports every frame: the intact prefix, plus — when the damaged tail
// begins with a parseable header — the offending frame with CRCOK
// false. Debugging tooling (`sagectl wal`) uses it to show exactly
// where a torn tail starts and what recovery will keep.
func Inspect(path string) (InspectReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return InspectReport{}, err
	}
	return inspect(raw), nil
}

// inspect is Inspect over bytes already read.
func inspect(raw []byte) InspectReport {
	rep := InspectReport{TotalBytes: int64(len(raw))}
	for {
		n, typ, _, ok := nextFrame(raw, rep.GoodBytes)
		if n < 0 {
			return rep
		}
		rep.Records = append(rep.Records, RecordInfo{Offset: rep.GoodBytes, Length: n, Type: typ, CRCOK: ok})
		if !ok {
			return rep
		}
		rep.GoodBytes += headerSize + n
	}
}

// Stats returns what Open found (recovered record count, torn bytes).
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Size returns the log's current byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Records returns the number of records in the log (recovered plus
// appended since open, minus those rewritten away by Compact).
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Append journals one record: frame it, write it, and (unless NoSync)
// sync before returning. When Append returns nil the record will
// survive any subsequent crash; on error the caller must not
// acknowledge the operation it was journaling. The frame may share its
// write and flush with concurrently appended records (see the package
// docs); semantics are unchanged.
func (l *Log) Append(typ byte, payload []byte) error {
	c, err := l.AppendAsync(typ, payload)
	if err != nil {
		return err
	}
	return c.Wait()
}

// Commit is the durability ticket AppendAsync returns: Wait blocks
// until the staged record's batch is written and synced (or failed).
// The zero Commit is only ever returned alongside an error.
type Commit struct {
	l *Log
	b *commitBatch
}

// Wait blocks until the staged record is durable and returns the
// commit's outcome. nil means the record will survive any subsequent
// crash; non-nil means it may not, and the operation it journals must
// not be acknowledged. Wait is safe to call from any goroutine and
// more than once.
func (c Commit) Wait() error {
	// First let our predecessor batch finish: while its fsync runs, our
	// batch keeps filling with frames from other appenders. Blocking
	// here on prev.done (not on commitMu) is what lets those appenders
	// stage instead of queueing.
	if prev := c.b.prev.Load(); prev != nil {
		prev.done.Wait()
	}
	// Exactly one waiter drives the commit; everyone else parks on
	// done. commitOwn seals and commits our batch unless a
	// concurrent flush (Compact/Close) already did; either way it
	// returns with the batch done.
	if c.b.driver.CompareAndSwap(false, true) {
		c.l.commitOwn(c.b)
	} else {
		c.b.done.Wait()
	}
	return c.b.err
}

// AppendAsync stages one record and returns a ticket that resolves when
// it is durable. Nothing reaches the file before some Wait (or a
// Compact/Close) commits the batch, and a write or sync failure
// surfaces from Wait. A non-nil error means nothing was staged. Callers
// must call Wait on every ticket they obtain — an unwaited ticket's
// batch commits when a later ticket's Wait or a Compact/Close arrives,
// but its outcome is then unobserved.
//
// Staging order is on-disk order: a record staged after another —
// under whatever external lock orders the two mutations — can never
// survive a crash that loses the earlier one.
func (l *Log) AppendAsync(typ byte, payload []byte) (Commit, error) {
	if int64(len(payload)) > MaxRecordBytes {
		return Commit{}, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), int64(MaxRecordBytes))
	}
	l.batchMu.Lock()
	b := l.batch
	if b == nil {
		b = &commitBatch{}
		b.done.Add(1)
		// A new batch is only ever created after the previous one was
		// sealed, i.e. while its commit is in flight (or finished). Link
		// to an in-flight one so our waiters ride out its fsync on
		// prev.done; a finished one hands over its buffer, whose frames
		// are on disk and read by no one again.
		if lb := l.lastBatch; lb != nil {
			if lb.committed.Load() {
				b.buf = lb.buf[:0]
			} else {
				b.prev.Store(lb)
			}
		}
		// Sized for its first frame: a lone append copies its payload once.
		if cap(b.buf) < headerSize+len(payload) {
			b.buf = make([]byte, 0, headerSize+len(payload))
		}
		l.batch = b
		l.lastBatch = b
	}
	b.buf = appendFrame(b.buf, typ, payload)
	b.n++
	l.batchMu.Unlock()
	return Commit{l: l, b: b}, nil
}

// lingerRounds bounds the pre-seal yield loop in commitOwn. Each
// round costs one runtime.Gosched — near free when nothing else is
// runnable — so the bound only matters under sustained contention,
// where the loop exits early anyway once the batch stops growing.
const lingerRounds = 8

// commitOwn makes the batch b durable. If a concurrent commit already
// sealed and committed b while we queued on commitMu, it returns
// without touching the (newer) staging batch — draining the commitMu
// queue must not chop fresh batches into one-frame commits. Otherwise
// b is still the staging batch (batches seal strictly in staging
// order, and sealing happens only under commitMu, which we hold), so
// lingering and then committing the staging batch commits b.
func (l *Log) commitOwn(b *commitBatch) {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	if b.committed.Load() {
		return
	}
	// Linger before sealing: yield while the staging batch is still
	// growing, so appenders that are runnable right now get their
	// frames into this batch instead of paying for the next fsync.
	// Without this, the first waiter after an idle moment seals a
	// batch of one and group commit degenerates to a sync per record.
	// With NoSync there is no flush to amortize, and with a shared
	// SyncGroup lingering only delays this log's write past the cohort
	// it could have joined — so don't.
	if l.group == nil && !l.noSync {
		last := -1
		for i := 0; i < lingerRounds; i++ {
			l.batchMu.Lock()
			n := l.batch.n // b unsealed ⇒ l.batch == b ≠ nil
			l.batchMu.Unlock()
			if n == last {
				break
			}
			last = n
			runtime.Gosched()
		}
	}
	l.commitStagingLocked()
}

// commitPending seals the staging batch (if any) and commits it:
// one write(2) for the whole batch, one fdatasync (unless NoSync).
// Used by Compact and Close to flush unwaited tickets; appenders
// go through commitOwn. commitMu makes seal→write→sync atomic with
// respect to other commits, so batches reach the file in staging order.
func (l *Log) commitPending() {
	l.commitMu.Lock()
	defer l.commitMu.Unlock()
	l.commitStagingLocked()
}

// commitStagingLocked seals and commits the current staging batch.
// Caller holds commitMu.
func (l *Log) commitStagingLocked() {
	l.batchMu.Lock()
	b := l.batch
	l.batch = nil
	l.batchMu.Unlock()
	if b == nil {
		return
	}
	// b's predecessor committed before commitMu came to us; unlink it so
	// committed batches can be collected.
	b.prev.Store(nil)
	l.mu.Lock()
	b.err = l.writeLocked(b.buf, b.n)
	l.mu.Unlock()
	b.committed.Store(true)
	b.done.Done()
}

// writeLocked writes one framed batch and syncs. Caller holds mu. On
// any failure the log is poisoned: the frame may be partially on disk,
// and a later append that succeeded past a torn frame would be
// acknowledged yet unrecoverable.
func (l *Log) writeLocked(frames []byte, n int) error {
	if l.failed != nil {
		return fmt.Errorf("wal: %s poisoned by earlier failure: %w", l.path, l.failed)
	}
	if l.f == nil {
		return fmt.Errorf("wal: append to closed log %s", l.path)
	}
	// One committed batch is one trace: a wal.commit root whose
	// children time the write and the sync. The exemplar id is taken
	// now because End scrubs the pooled span.
	commit := l.tracer.StartRoot("wal.commit")
	commit.SetAttr("log", l.base)
	commit.SetAttr("frames", strconv.Itoa(n))
	commitID := commit.TraceIDString()
	var start time.Time
	if l.ins != nil {
		start = time.Now()
	}
	app := commit.StartChild("wal.append")
	if _, err := l.f.Write(frames); err != nil {
		app.SetOutcome("error")
		app.End()
		commit.SetOutcome("error")
		commit.End()
		l.poisonLocked(err)
		return fmt.Errorf("wal: append to %s: %w", l.path, err)
	}
	app.End()
	if !l.noSync {
		var syncStart time.Time
		if l.ins != nil {
			syncStart = time.Now()
		}
		flush := commit.StartChild("wal.flush")
		var err error
		if l.group != nil {
			err = l.group.Sync()
		} else {
			err = l.f.Sync()
		}
		if err != nil {
			flush.SetOutcome("error")
			flush.End()
			commit.SetOutcome("error")
			commit.End()
			l.poisonLocked(err)
			return fmt.Errorf("wal: sync %s: %w", l.path, err)
		}
		flush.End()
		if l.ins != nil {
			l.ins.syncSec.Observe(time.Since(syncStart).Seconds())
		}
	}
	l.size += int64(len(frames))
	l.count += n
	if l.ins != nil {
		l.ins.appendSec.ObserveExemplar(time.Since(start).Seconds(), commitID)
		l.ins.batchFrames.Observe(float64(n))
	}
	commit.End()
	return nil
}

// poisonLocked records the first fatal write/sync error and emits the
// structured transition log. Caller holds mu.
func (l *Log) poisonLocked(err error) {
	l.failed = err
	trace.Eventf(l.logf, "wal: event=log_poisoned log=%s err=%v", filepath.Base(l.path), err)
}

// appendFrame appends one framed record to dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, typ)
	// The CRC reads the type byte in place: no one-byte slice per frame.
	crc := crc32.Update(crc32.Checksum(dst[len(dst)-1:], castagnoli), castagnoli, payload)
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return append(dst, payload...)
}

// compactPath is the temporary file Compact stages the rewrite in.
func compactPath(path string) string { return path + ".compact" }

// Compact atomically replaces the log's contents with the given
// records — the snapshot+truncate step that keeps recovery time bounded.
// The replacement is staged in a temp file, synced, and renamed over
// the log; a crash leaves either the complete old log or the complete
// new one. The caller must guarantee the records capture all state the
// discarded log entries produced, and that no append races the call.
func (l *Log) Compact(records []Record) error {
	// Flush any staged-but-uncommitted batch first so its frames cannot
	// land in the rewritten file after the snapshot.
	l.commitPending()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("wal: compact closed log %s", l.path)
	}
	tmpPath := compactPath(l.path)
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: compact %s: %w", l.path, err)
	}
	var buf []byte
	for _, r := range records {
		if int64(len(r.Payload)) > MaxRecordBytes {
			tmp.Close()
			os.Remove(tmpPath)
			return fmt.Errorf("wal: compact %s: record of %d bytes exceeds limit", l.path, len(r.Payload))
		}
		buf = appendFrame(buf, r.Type, r.Payload)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact %s: write: %w", l.path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact %s: sync: %w", l.path, err)
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		tmp.Close()
		os.Remove(tmpPath)
		return fmt.Errorf("wal: compact %s: rename: %w", l.path, err)
	}
	// The rename is the commit point. Sync the directory so the new
	// name itself survives a crash (best-effort: not all platforms allow
	// syncing directories).
	if dir, err := os.Open(filepath.Dir(l.path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	old := l.f
	l.f = tmp
	old.Close()
	l.size = int64(len(buf))
	l.count = len(records)
	return nil
}

// Close commits any staged batch, syncs, and closes the log. Further
// appends fail.
func (l *Log) Close() error {
	l.commitPending()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
