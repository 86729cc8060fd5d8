package sage_test

// End-to-end integration tests across the whole platform: stream →
// growing database → access control → privacy-adaptive training →
// SLAed validation → release, with the paper's invariants checked at
// every joint.

import (
	"sync"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/criteo"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/taxi"
	"repro/internal/validation"
)

func lrPipe(target float64) *pipeline.Pipeline {
	return &pipeline.Pipeline{
		Name:    "taxi-lr",
		Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
		Validator: pipeline.MSEValidator{
			Target: target, B: 1,
			ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
		},
		Mode: validation.ModeSage,
	}
}

// TestEndToEndEventLevel drives the full Sage loop on a taxi stream
// with event-level (daily) blocks: an accepted model must actually meet
// its target out of sample, and the stream loss must respect the
// ceiling.
func TestEndToEndEventLevel(t *testing.T) {
	stream := taxi.Pipeline(250000, 0, 24*40, 0.02, 0.2, 31)
	holdout := taxi.Pipeline(60000, 0, 24*40, 0, 0, 32)

	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for _, ex := range stream.Examples {
		for _, id := range db.Insert(ex) {
			ac.RegisterBlock(id)
		}
	}

	const target = 0.0095
	st := &adaptive.StreamTrainer{
		AC: ac, DB: db, Pipe: lrPipe(target),
		Epsilon0: 0.125, EpsilonCap: 1.0, Delta: 1e-8, MinWindow: 10,
	}
	res, err := st.Run(rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Fatalf("decision %v (quality %v)", res.Decision, res.Quality)
	}
	if got := ml.MSE(res.Model, holdout); got > target {
		t.Errorf("accepted model violates target out of sample: %v > %v", got, target)
	}
	if sl := ac.StreamLoss(); sl.Epsilon > 1+1e-9 || sl.Delta > 1e-6 {
		t.Errorf("stream loss %v exceeds ceiling", sl)
	}
}

// TestEndToEndUserLevel runs the same loop with user-keyed blocks
// (§4.4): each user's data lands in one block, and training still works
// because pipelines combine many user blocks.
func TestEndToEndUserLevel(t *testing.T) {
	gen := taxi.NewGenerator(taxi.Config{Users: 200}, 41)
	rides := gen.Generate(120000, 0, 24*30)
	ds := taxi.Featurize(rides, taxi.SpeedByHour(rides, 0, nil))

	db := data.NewGrowingDatabase(data.UserPartitioner{})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for _, ex := range ds.Examples {
		for _, id := range db.Insert(ex) {
			ac.RegisterBlock(id)
		}
	}
	if db.NumBlocks() != 200 {
		t.Fatalf("expected 200 user blocks, got %d", db.NumBlocks())
	}
	// §4.4 caveat reproduced: with user-keyed blocks, no fresh blocks
	// arrive unless new users join, so the retry budget cannot be
	// renewed — train in one shot at the full cap over all users.
	st := &adaptive.StreamTrainer{
		AC: ac, DB: db, Pipe: lrPipe(0.011),
		Epsilon0: 1.0, EpsilonCap: 1.0, Delta: 1e-8, MinWindow: 200,
	}
	res, err := st.Run(rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Fatalf("decision %v (quality %v, samples %d)", res.Decision, res.Quality, res.Samples)
	}
	// User-level semantic: retiring a block bounds that *user's* total
	// exposure, and the stream loss is still the max over users.
	if sl := ac.StreamLoss(); sl.Epsilon > 1+1e-9 {
		t.Errorf("stream loss %v exceeds ceiling", sl)
	}
}

// TestConcurrentPipelinesShareStream runs several pipelines against one
// access control concurrently; the per-block ceiling must hold under
// interleaving (the atomicity property of core.Request).
func TestConcurrentPipelinesShareStream(t *testing.T) {
	stream := taxi.Pipeline(150000, 0, 24*30, 0, 0, 51)
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for _, ex := range stream.Examples {
		for _, id := range db.Insert(ex) {
			ac.RegisterBlock(id)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &adaptive.StreamTrainer{
				AC: ac, DB: db, Pipe: lrPipe(0.0095),
				Epsilon0: 0.125, EpsilonCap: 0.5, Delta: 1e-8, MinWindow: 8,
			}
			_, _ = st.Run(rng.New(uint64(60 + w))) // blocked is fine; leakage is not
		}(w)
	}
	wg.Wait()
	for _, rep := range ac.Report(db.Blocks()) {
		if rep.Loss.Epsilon > 1+1e-9 {
			t.Errorf("block %d loss %v exceeds ceiling under concurrency", rep.ID, rep.Loss)
		}
	}
}

// TestCriteoEndToEnd drives the classification path: DP-SGD + binomial
// SLA, checking the accepted model transfers to a fresh stream sample.
func TestCriteoEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains DP-SGD on up to 400K samples")
	}
	stream := criteo.Pipeline(400000, 0, 24*7, 71)
	holdout := criteo.Pipeline(80000, 0, 24*7, 72)
	pipe := &pipeline.Pipeline{
		Name: "criteo-lg",
		Trainer: pipeline.SGDTrainer{
			Kind: ml.BinaryClassification, Dim: criteo.FeatureDim,
			LearningRate: 0.3, Epochs: 3, BatchSize: 512,
			DP: true, ClipNorm: 1, InitSeed: 73,
		},
		Validator: pipeline.AccuracyValidator{Target: 0.745},
		Mode:      validation.ModeSage,
	}
	search := adaptive.Search{
		Pipe: pipe, Epsilon0: 0.25, EpsilonCap: 1.0,
		Delta: 1e-6, MinSamples: 100000,
	}
	res, err := search.Run(stream, rng.New(74))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Fatalf("decision %v (quality %v, samples %d)", res.Decision, res.Quality, res.Samples)
	}
	if acc := ml.Accuracy(res.Model, holdout); acc < 0.745 {
		t.Errorf("accepted model violates target out of sample: %v", acc)
	}
}

// TestRetiredBlockDataDeletion wires the DP-informed retention policy:
// when a block retires, its raw data is deleted from the growing
// database, and future reads no longer see it.
func TestRetiredBlockDataDeletion(t *testing.T) {
	stream := taxi.Pipeline(30000, 0, 24*10, 0, 0, 81)
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	ac.SetRetireCallback(func(id data.BlockID) { db.Delete(id) })
	for _, ex := range stream.Examples {
		for _, id := range db.Insert(ex) {
			ac.RegisterBlock(id)
		}
	}
	before := db.NumBlocks()
	first := db.Blocks()[0]
	if err := ac.Request([]data.BlockID{first}, privacy.MustBudget(1, 1e-6)); err != nil {
		t.Fatal(err)
	}
	if db.NumBlocks() != before-1 {
		t.Errorf("retired block not deleted: %d blocks, want %d", db.NumBlocks(), before-1)
	}
	if db.Read(nil, []data.BlockID{first}).Len() != 0 {
		t.Error("retired block data still readable")
	}
}
