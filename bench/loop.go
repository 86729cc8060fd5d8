package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/store"
)

// loopWorkload drives the write path: daemon.New + Run lives on one
// durable directory (ingest → ledger charge + WAL group commit →
// privacy-adaptive training → publish → journal → push → retention →
// compaction), pushing to two in-process replicas. A round is one life:
// recover the directory, run a fixed number of ticks, drain and close.
//
// Every round is the same life. Ticks differ a lot in what they do (a
// tick that trains costs ten times one that only ingests), so lives cut
// from one long history would not be comparable with each other, and
// which of them a run reaches would depend on its speed. Instead set-up
// runs the first life, keeps a copy of the directory it leaves, and
// every timed round restores that copy and fresh replicas and runs the
// same next ticks: the daemon derives everything from (seed, block,
// tick), so the work repeats exactly, and so do the counts.
type loopWorkload struct {
	listeners
	o    options
	tr   *tracer
	root string // scratch root the WAL directory is created under
	dir  string

	// replicas[i] is swapped for an empty one before every life, behind
	// the same URL; recovery's self-heal then backfills it.
	replicas []atomic.Pointer[replica.Server]
	repURLs  []string
	lives    int
	// snapshot is the directory as the set-up life left it, by file name.
	snapshot map[string][]byte

	// lifeStats are the traced run's lives, set-up life first, for the
	// layer report; last and lastAC are the latest closed daemon's status
	// and ledger snapshot, for the end-state check.
	lifeStats []lifeStat
	last      lifeStat
	lastAC    []byte
	// From finish's cold reopen of the directory.
	reopen, compact time.Duration
	lastBundle      *store.Bundle
}

// lifeStat is what one life exposes from outside: recovery and close
// timings, the daemon's own registry at exit, and the counters of its
// status report.
type lifeStat struct {
	recover time.Duration // daemon.New
	run     time.Duration // Daemon.Run, ticks + drain
	closing time.Duration // the drain part of run (final sync + compaction + close)
	fam     metrics.Families
	status  daemon.Status
	// walGrowth is ledger+store log bytes appended over tailTicks ticks
	// since the life's last compaction.
	walGrowth int64
	tailTicks int
}

func newLoopWorkload(o options, tr *tracer) *loopWorkload {
	return &loopWorkload{o: o, tr: tr, root: filepath.Join(o.outDir, "wal")}
}

func (w *loopWorkload) config(ticks int) daemon.Config {
	return daemon.Config{
		Dir:          w.dir,
		Global:       privacy.MustBudget(1.0, 1e-6),
		Tick:         time.Millisecond,
		RowsPerBlock: w.o.sz.rowsPerBlock,
		Pipelines:    w.o.sz.pipelines,
		// Targets this stream meets at 6000 rows per block, searched from
		// the per-attempt cap, so that accepts, rejects and budget-blocked
		// ticks all occur in steady state.
		SLATargets:    []float64{0.04, 0.042, 0.041},
		FeatureEps:    0.05,
		Epsilon0:      0.125,
		EpsilonCap:    0.5,
		Retention:     w.o.sz.retention,
		Seed:          w.o.seed,
		PushEndpoints: w.repURLs,
		MaxTicks:      ticks,
		CompactEvery:  w.o.sz.compactEvery,
		LedgerShards:  w.o.sz.ledgerShards,
		// Sync stays on: group commit and wal.SyncGroup run as shipped.
		NoSync: false,
	}
}

func (w *loopWorkload) setup() error {
	if err := os.MkdirAll(w.root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(w.root, "wal-")
	if err != nil {
		return err
	}
	w.dir = dir
	w.replicas = make([]atomic.Pointer[replica.Server], 2)
	for i := range w.replicas {
		w.replicas[i].Store(replica.NewServer())
		var h http.Handler = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			w.replicas[i].Load().Handler().ServeHTTP(rw, r)
		})
		if w.tr != nil {
			h = tracedHandler(w.tr, "replica.push", h)
		}
		u, err := w.serve(h)
		if err != nil {
			return err
		}
		w.repURLs = append(w.repURLs, u)
	}
	// The first life fills the retention window; it is the warm-up round.
	if _, err = w.life(w.o.sz.firstLifeTicks); err != nil {
		return err
	}
	w.tr.mark()
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return err
	}
	w.snapshot = make(map[string][]byte, len(entries))
	for _, e := range entries {
		if w.snapshot[e.Name()], err = os.ReadFile(filepath.Join(w.dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// round restores the directory the set-up life left and empty replicas,
// then runs the next life from there.
func (w *loopWorkload) round() (roundStat, error) {
	if err := os.RemoveAll(w.dir); err != nil {
		return roundStat{}, err
	}
	if err := os.Mkdir(w.dir, 0o755); err != nil {
		return roundStat{}, err
	}
	for name, raw := range w.snapshot {
		if err := os.WriteFile(filepath.Join(w.dir, name), raw, 0o644); err != nil {
			return roundStat{}, err
		}
	}
	for i := range w.replicas {
		w.replicas[i].Store(replica.NewServer())
	}
	return w.life(w.o.sz.lifeTicks)
}

// life recovers the directory, runs ticks iterations and drains. Only
// Run is the timed section; recovery is reported on its own.
func (w *loopWorkload) life(ticks int) (roundStat, error) {
	cfg := w.config(ticks)
	var (
		ls         lifeStat
		d          *daemon.Daemon
		lifeSpan   span
		drainAt    time.Time
		drainBytes int64
		baseTick   int   // ticks done at the life's last compaction
		baseBytes  int64 // log bytes right after it
	)
	if w.tr != nil {
		lifeSpan = span{ID: w.tr.newID(), Req: uint64(w.lives + 1), Name: "daemon.life", Start: w.tr.now()}
		w.tr.round.Store(lifeSpan.ID)
		// The daemon's progress log is the only outside-visible signal of
		// where drain starts and how large the logs were after a
		// compaction. It runs on the loop goroutine, which is this one.
		// The untraced run leaves Logf at its default.
		cfg.Logf = func(format string, args ...any) {
			switch {
			case strings.HasPrefix(format, "daemon: reached"):
				drainAt = time.Now()
				lb, sb := d.Platform().LogSizes()
				drainBytes = lb + sb
			case strings.Contains(format, "compacted WALs") && len(args) == 3:
				tick, ok1 := args[0].(int)
				lb, ok2 := args[1].(int64)
				sb, ok3 := args[2].(int64)
				if ok1 && ok2 && ok3 {
					baseTick, baseBytes = tick+1, lb+sb
				}
			}
		}
	}

	start := time.Now()
	d, _, err := daemon.New(cfg)
	if err != nil {
		return roundStat{}, fmt.Errorf("daemon.New: %w", err)
	}
	recovered := time.Now()
	ls.recover = recovered.Sub(start)
	lb, sb := d.Platform().LogSizes()
	baseBytes = lb + sb

	var runErr error
	sec := measure(func() { runErr = d.Run(context.Background()) })
	runEnd := time.Now()
	if runErr != nil {
		return roundStat{}, fmt.Errorf("daemon.Run: %w", runErr)
	}
	ls.run = sec.wall
	ls.status = d.Status()
	if w.tr != nil {
		if drainAt.IsZero() {
			return roundStat{}, fmt.Errorf("traced run: the daemon's drain log line was not seen, so daemon.close_ms cannot be measured")
		}
		ls.closing = runEnd.Sub(drainAt)
		ls.tailTicks = ls.status.Ticks - baseTick
		ls.walGrowth = drainBytes - baseBytes
		w.child(lifeSpan, "daemon.recover", start, recovered)
		w.child(lifeSpan, "daemon.run", runEnd.Add(-sec.wall), runEnd)
		lifeSpan.End = w.tr.now()
		w.tr.record(lifeSpan)
		w.tr.round.Store(0)
		if ls.fam, err = scrape(d.Metrics()); err != nil {
			return roundStat{}, fmt.Errorf("daemon /metrics: %w", err)
		}
		w.lifeStats = append(w.lifeStats, ls)
	}
	w.lives++
	w.last = ls
	w.lastAC = d.Platform().AC.Snapshot()

	st := roundStat{section: sec, ops: ticks, failed: ticks - ls.status.Ticks}
	return st, w.checkLife(cfg, ls.status)
}

// child records a completed child span of parent from wall-clock times.
func (w *loopWorkload) child(parent span, name string, start, end time.Time) {
	if w.tr == nil {
		return
	}
	w.tr.record(span{
		ID: w.tr.newID(), Parent: parent.ID, Req: parent.Req, Name: name,
		Start: start.Sub(w.tr.epoch), End: end.Sub(w.tr.epoch),
	})
}

// checkLife asserts the write path's invariants on a drained daemon's
// status: replicas converged, the privacy ceiling held, and every live
// block carries at least its feature-release charge.
func (w *loopWorkload) checkLife(cfg daemon.Config, st daemon.Status) error {
	for i := range w.replicas {
		if got := w.replicas[i].Load().Store().Watermarks(); !maps.Equal(got, st.StoreVersions) {
			return fmt.Errorf("replica %d watermarks %v, store versions %v", i, got, st.StoreVersions)
		}
	}
	if st.StreamLossEps > cfg.Global.Epsilon+1e-9 {
		return fmt.Errorf("stream loss ε %v exceeds the global ceiling %v", st.StreamLossEps, cfg.Global.Epsilon)
	}
	for _, b := range st.Blocks {
		if !b.Retired && b.LossEps < cfg.FeatureEps-1e-12 {
			return fmt.Errorf("live block %d carries ε %v, below its feature-release charge %v", b.ID, b.LossEps, cfg.FeatureEps)
		}
	}
	return nil
}

// finish reopens the directory cold and requires it to equal what the
// last daemon held when it closed, then removes it.
func (w *loopWorkload) finish() error {
	defer os.RemoveAll(w.dir)
	if err := w.shutdown(); err != nil {
		return err
	}
	if n := w.panics.n.Load(); n > 0 {
		return fmt.Errorf("%d handler panics in the replica servers' error logs", n)
	}
	if w.lives == 0 {
		return nil
	}
	start := time.Now()
	plat, _, err := durable.Open(w.dir, core.Policy{Global: privacy.MustBudget(1.0, 1e-6)}, durable.Options{})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", filepath.Base(w.dir), err)
	}
	w.reopen = time.Since(start)
	defer plat.Close()
	if !bytes.Equal(plat.AC.Snapshot(), w.lastAC) {
		return fmt.Errorf("recovered ledger differs from the closed daemon's")
	}
	if got := plat.Store.Watermarks(); !maps.Equal(got, w.last.status.StoreVersions) {
		return fmt.Errorf("recovered store versions %v, closed daemon had %v", got, w.last.status.StoreVersions)
	}
	for _, name := range plat.Store.List() {
		w.lastBundle, _ = plat.Store.Latest(name)
	}
	start = time.Now()
	if err := plat.Compact(); err != nil {
		return fmt.Errorf("compacting the reopened directory: %w", err)
	}
	w.compact = time.Since(start)
	return nil
}
