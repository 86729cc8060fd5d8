package main

import (
	"os"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
	"repro/internal/validation"
	sim "repro/internal/workload"
)

// Layer probes: direct calls into one layer's public API with fixed
// inputs, run after the traced rounds. Each reports the median of iters
// timings, so a layer's own cost can be set beside the end-to-end
// metric it is predicted to move.

// timeMS returns the median duration of iters calls of f, in ms.
func timeMS(iters int, f func()) float64 {
	ds := make([]float64, iters)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start)) / 1e6
	}
	return median(ds)
}

// probeTraining reports the training-side layers loop-durable and
// exp-sweep share: the taxi generator and featurizer at the daemon's
// block size, AdaSSP on one daemon training window, and one
// privacy-adaptive search over a scratch ledger.
func probeTraining(m metricSet, sz sizes, seed uint64) {
	iters := sz.probeIters
	m.set("taxi.ingest_ms_per_block", timeMS(iters, func() {
		// What daemon.ingestBlock does, through the same public calls.
		gen := taxi.NewGenerator(taxi.Config{}, rng.MixSeed(seed, 1))
		clean, _ := taxi.Clean(gen.Generate(sz.rowsPerBlock, 0, 24))
		speeds := taxi.SpeedByHour(clean, 0.05, rng.New(rng.MixSeed(seed, 2)))
		_ = taxi.Featurize(clean, speeds)
	}), iters)

	window := taxi.Pipeline(6*sz.rowsPerBlock, 0, 6*24, 0, 0, rng.MixSeed(seed, 3))
	cfg := ml.AdaSSPConfig{Budget: privacy.MustBudget(0.5, 1e-8), Rho: 0.1, FeatureBound: 2.5, LabelBound: 1}
	i := uint64(0)
	m.set("ml.adassp_train_ms", timeMS(iters, func() {
		i++
		_ = ml.TrainAdaSSP(window, cfg, rng.New(rng.MixSeed(seed, 4, i)))
	}), iters)

	m.set("adaptive.stream_train_ms", timeMS(iters, func() {
		db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
		ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
		for _, id := range db.Insert(window.Examples...) {
			ac.RegisterBlock(id)
		}
		st := &adaptive.StreamTrainer{
			AC: ac, DB: db,
			Pipe: &pipeline.Pipeline{
				Name:    "probe",
				Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
				Validator: pipeline.MSEValidator{
					Target: 0.04, B: 1, ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
				},
				Mode: validation.ModeSage,
			},
			Epsilon0: 0.125, EpsilonCap: 0.5, Delta: 1e-8, MinWindow: db.NumBlocks(),
		}
		// The search's verdict is the stream's business; its cost is ours.
		_, _ = st.Run(rng.New(rng.MixSeed(seed, 5)))
	}), iters)
}

// probeCompute reports the kernels only exp-sweep runs.
func probeCompute(m metricSet, sz sizes, seed uint64) {
	iters := sz.probeIters
	ds := taxi.Pipeline(5000, 0, 24*7, 0, 0, rng.MixSeed(seed, 6))
	i := uint64(0)
	m.set("ml.dpsgd_epoch_ms", timeMS(iters, func() {
		i++
		model := ml.NewSGDLinearRegression(taxi.FeatureDim)
		ml.TrainSGD(model, ds, ml.SGDConfig{
			LearningRate: 0.05, Epochs: 1, BatchSize: 256,
			DP: true, ClipNorm: 1, Budget: privacy.MustBudget(1, 1e-6),
		}, rng.New(rng.MixSeed(seed, 7, i)))
	}), iters)

	// A calibration the sweep never asks for, so every call is a miss.
	j := 0
	m.set("privacy.calibrate_miss_ms", timeMS(iters, func() {
		j++
		_ = privacy.CalibrateSGDNoise(privacy.SGDPlan{N: 77001 + j, BatchSize: 512, Epochs: 3}, 0.7, 1e-6)
	}), iters)

	losses := make([]float64, 100000)
	for k := range losses {
		losses[k] = 0.003
	}
	v := validation.LossValidator{
		Config: validation.Config{Mode: validation.ModeSage, Eta: 0.05, Epsilon: 0.5},
		Target: 0.005, B: 1,
	}
	r := rng.New(rng.MixSeed(seed, 8))
	m.set("validation.loss_accept_us", 1e3*timeMS(iters, func() { _ = v.Accept(losses, r) }), iters)

	m.set("workload.run_ms", timeMS(iters, func() {
		_ = sim.Run(sim.Config{
			Strategy: sim.BlockConserve, EpsG: 1, BlockSize: 16000,
			ArrivalRate: 0.7, Hours: sz.exp.fig8Hours, Seed: rng.MixSeed(seed, 9),
		})
	}), iters)
}

// probeLedger times AC.Request on a scratch durable directory with sync
// on, from one writer and from two concurrent ones (distinct blocks, so
// the two ride one group commit and one syncfs cohort).
func probeLedger(m metricSet, sz sizes, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "ledger-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	policy := core.Policy{Global: privacy.MustBudget(1e9, 1)}
	plat, _, err := durable.Open(dir, policy, durable.Options{LedgerShards: sz.ledgerShards})
	if err != nil {
		return err
	}
	const blocks = 64
	for id := data.BlockID(0); id < blocks; id++ {
		plat.AC.RegisterBlock(id)
	}
	charges := 10 * sz.probeIters
	small := privacy.MustBudget(0.001, 1e-12)
	charge := func(writer, writers int) (float64, error) {
		start := time.Now()
		for i := 0; i < charges; i++ {
			id := data.BlockID((i*writers + writer) % blocks)
			if err := plat.AC.Request([]data.BlockID{id}, small); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / 1e3 / float64(charges), nil
	}
	us, err := charge(0, 1)
	if err != nil {
		plat.Close()
		return err
	}
	m.set("ledger.charge_us", us, charges)

	var wg sync.WaitGroup
	per := make([]float64, 2)
	errs := make([]error, 2)
	for wr := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			per[wr], errs[wr] = charge(wr, len(per))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			plat.Close()
			return err
		}
	}
	m.set("ledger.charge_parallel_us", mean(per), 2*charges)

	return plat.Close()
}

// probePublish times store.Publish of a real bundle into a scratch
// in-memory store (no journal: the WAL's share is wal.append_us).
func probePublish(m metricSet, sz sizes, b store.Bundle) {
	st := store.New()
	iters := 50 * sz.probeIters
	start := time.Now()
	for i := 0; i < iters; i++ {
		st.Publish(b)
	}
	m.set("store.publish_us", float64(time.Since(start))/1e3/float64(iters), iters)
}
