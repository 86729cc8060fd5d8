package daemon

import (
	"errors"
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
	"repro/internal/trace"
	"repro/internal/validation"
)

// phases is the tick, in order. step runs each under a "daemon."+name
// child span and observes its duration in
// sage_daemon_tick_phase_seconds{phase=name}: the names are contracts —
// dashboards, the e2e tests and the repository benchmark match on them.
// A phase returns an error only when the platform can no longer make
// mutations durable.
var phases = [...]struct {
	name string
	run  func(*Daemon, tick) error
}{
	{"ingest", (*Daemon).ingest},
	{"train", (*Daemon).train},
	{"retention", (*Daemon).retain},
	{"compaction", (*Daemon).compact},
}

// tick is what one loop iteration hands each of its phases.
type tick struct {
	n     int          // iteration index, counted from this process's start
	block data.BlockID // the stream block this iteration ingests
	span  *trace.Span  // the running phase's span (nil when untraced)
}

// ingest generates this tick's block and admits it to the ledger charged
// with its share of the DP hour_speed release (Listing 1): one journal
// record, so a crash leaves the block absent or admitted and charged.
func (d *Daemon) ingest(t tick) error {
	d.lastSpeeds = d.ingestBlock(t.block)
	if _, err := d.plat.AC.AdmitBlock(t.block, privacy.Budget{Epsilon: d.cfg.FeatureEps}); err != nil {
		return fmt.Errorf("daemon: admitting block %d: %w", t.block, err)
	}
	return nil
}

// ingestBlock (re)generates block id's rides, featurizes them with the
// block's (DP) hour_speed table, and inserts them into the database.
// Everything derives from (Seed, id), so recovery regenerates identical
// bytes. Returns the block's speed table.
func (d *Daemon) ingestBlock(id data.BlockID) []float64 {
	gen := taxi.NewGenerator(taxi.Config{}, rng.MixSeed(d.cfg.Seed, uint64(id)))
	var r *rng.RNG
	if d.cfg.FeatureEps > 0 {
		r = rng.New(rng.MixSeed(d.cfg.Seed, uint64(id), 7))
	}
	ds, speeds := taxi.Ingest(d.ingestBuf, gen, d.cfg.RowsPerBlock, int64(id)*blockHours, blockHours, d.cfg.FeatureEps, r)
	d.db.Insert(ds.Examples...)
	clear(ds.Examples)
	d.ingestBuf = ds.Examples[:0]
	return speeds
}

// train gives one pipeline a privacy-adaptive training run, fair
// round-robin. A naive tick%N rotation starves pipelines when the
// budget-refill cadence resonates with N (e.g. a window's worth of
// fresh blocks every 6 ticks always landing on the same pipeline), so
// the turn pointer advances only when a pipeline actually got to train;
// pipelines that are merely unaffordable this tick are skipped at no
// budget cost and keep their place in line.
func (d *Daemon) train(t tick) error {
	for k := 0; k < d.cfg.Pipelines; k++ {
		idx := (d.nextPipe + k) % d.cfg.Pipelines
		attempted, err := d.trainPipeline(t, idx)
		if err != nil {
			return err
		}
		if attempted {
			d.nextPipe = (idx + 1) % d.cfg.Pipelines
			return nil
		}
	}
	t.span.AddEvent("blocked")
	d.mu.Lock()
	d.blocked++
	d.mu.Unlock()
	return nil
}

// trainSeed seeds pipeline idx's training randomness in tick t: its
// splits and its Gaussian and Laplace noise. It derives from the block
// the tick ingests, not from the tick count: ticks restart at 0 in every
// process, blocks resume past every block the ledger holds, so no two
// training runs of one directory's lives draw the same noise, as block
// composition assumes of every release.
func (t tick) trainSeed(seed uint64, idx int) uint64 {
	return rng.MixSeed(seed, uint64(t.block), uint64(idx), 0xDA)
}

// newPipeline builds pipeline idx: taxi AdaSSP validated against an
// MSE target, with a ridge ERM for the REJECT test.
func newPipeline(idx int, target float64) *pipeline.Pipeline {
	return &pipeline.Pipeline{
		Name:    fmt.Sprintf("taxi-lr-%d", idx),
		Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
		Validator: pipeline.MSEValidator{
			Target: target, B: 1,
			ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
		},
		Mode: validation.ModeSage,
	}
}

// trainPipeline runs one adaptive search for pipeline idx and publishes
// on ACCEPT. It reports attempted=false when the pipeline could not
// afford a single training run (no budget was consumed), so the caller
// can give another pipeline this tick's slot.
func (d *Daemon) trainPipeline(t tick, idx int) (attempted bool, err error) {
	n := t.n
	trainer := d.trainer
	trainer.Pipe = d.pipes[idx]
	trainer.MinWindow = min(d.cfg.MinWindow, d.db.NumBlocks())
	name := trainer.Pipe.Name
	r := rng.New(t.trainSeed(d.cfg.Seed, idx))
	res, err := trainer.Run(r)
	// An insufficient-budget return with zero iterations means the
	// pipeline never trained: no budget moved, so the slot can go to
	// another pipeline. With iterations > 0 the search did consume
	// budget before running out — that was a real attempt, ending in
	// RETRY.
	attempted = res.Iterations > 0
	d.mu.Lock()
	d.trainIterations += res.Iterations
	if attempted && errors.Is(err, adaptive.ErrInsufficientBudget) {
		d.retried++
	}
	d.mu.Unlock()
	switch {
	case errors.Is(err, adaptive.ErrLedger):
		// Not a training error: a request or refund could not be made
		// durable, which is the one thing a phase fails for.
		return attempted, fmt.Errorf("daemon: training %s: %w", name, err)
	case errors.Is(err, adaptive.ErrInsufficientBudget):
		// The paper's steady state: wait for the database to grow.
		return attempted, nil
	case err != nil:
		// Training errors don't kill the platform; the refunds already
		// happened inside StreamTrainer.
		d.cfg.Logf("daemon: tick %d: pipeline %s: %v", n, name, err)
		return attempted, nil
	}
	if res.Decision != validation.Accept {
		d.mu.Lock()
		d.rejected++
		d.mu.Unlock()
		return true, nil
	}
	spec, err := store.Serialize(res.Model)
	if err != nil {
		d.cfg.Logf("daemon: tick %d: serialize %s: %v", n, name, err)
		return true, nil
	}
	bundle := store.Bundle{
		Name:  name,
		Model: spec,
		// Ship the newest block's released aggregate as the bundle's
		// serving-time join table (§2.1).
		Features: map[string][]float64{"hour_speed": append([]float64(nil), d.lastSpeeds...)},
		Provenance: store.Provenance{
			Pipeline: name,
			Spent:    res.TotalSpent,
			Blocks:   res.Blocks,
			Decision: res.Decision.String(),
			Quality:  res.Quality,
		},
	}
	// Publish → journal (store WAL) → push. The push is the convergers'
	// and the tick does not wait for it; a crash before it lands is
	// healed by the next start's sync.
	version := d.plat.Store.Publish(bundle)
	d.wakeConvergers(wake{t.span.TraceID(), t.span.SpanID()})
	d.mu.Lock()
	d.accepted++
	d.mu.Unlock()
	d.cfg.Logf("daemon: tick %d: published %s@v%d (%d blocks, quality %.4g, spent %v)",
		n, name, version, len(res.Blocks), res.Quality, res.TotalSpent)
	return true, nil
}

// retain retires the blocks that have fallen out of the retention
// window (journaled; the retention hook deletes their raw data).
func (d *Daemon) retain(t tick) error {
	if d.cfg.Retention <= 0 {
		return nil
	}
	horizon := t.block - data.BlockID(d.cfg.Retention) + 1
	// The database holds exactly the blocks the ledger has not retired
	// (New regenerates them, a retirement deletes one), so its few live
	// blocks are the candidates, however many the ledger has retired.
	for _, id := range d.db.Blocks() {
		if id >= horizon {
			break
		}
		if err := d.plat.AC.Retire(id); err != nil {
			return fmt.Errorf("daemon: retiring block %d: %w", id, err)
		}
		d.cfg.Logf("daemon: tick %d: retired block %d (retention window %d)", t.n, id, d.cfg.Retention)
	}
	return nil
}

// compact rewrites the WALs as snapshots: the fixed tick cadence bounds
// staleness, the byte threshold bounds recovery time for write-heavy
// logs — an oversized ledger segment is compacted the tick it crosses
// the threshold, not when the cadence next comes around.
func (d *Daemon) compact(t tick) error {
	switch {
	case (t.n+1)%d.cfg.CompactEvery == 0:
		if err := d.plat.Compact(); err != nil {
			return fmt.Errorf("daemon: compaction: %w", err)
		}
		lb, sb := d.plat.LogSizes()
		d.cfg.Logf("daemon: tick %d: compacted WALs (ledger %dB, store %dB)", t.n, lb, sb)
	case d.cfg.CompactBytes > 0:
		n, err := d.plat.CompactIfLarger(d.cfg.CompactBytes)
		if err != nil {
			return fmt.Errorf("daemon: size-triggered compaction: %w", err)
		}
		if n == 0 {
			return nil
		}
		lb, sb := d.plat.LogSizes()
		d.cfg.Logf("daemon: tick %d: compacted %d oversized log(s) (ledger %dB, store %dB)", t.n, n, lb, sb)
	default:
		return nil
	}
	d.mu.Lock()
	d.compactions++
	d.mu.Unlock()
	return nil
}
