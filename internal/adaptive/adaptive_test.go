package adaptive

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/safety"
	"repro/internal/taxi"
	"repro/internal/validation"
)

// taxiStream is a shared 300K-sample featurized stream.
var taxiStream = taxi.Pipeline(300000, 0, 24*60, 0, 0, 7)

func lrPipeline(target float64) *pipeline.Pipeline {
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

func TestSearchAcceptsReachableTarget(t *testing.T) {
	s := Search{
		Pipe:       lrPipeline(0.006),
		Epsilon0:   0.1,
		EpsilonCap: 1.0,
		Delta:      1e-6,
		MinSamples: 5000,
	}
	res, err := s.Run(taxiStream, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Fatalf("decision = %v after %d iters (quality %v, n %d)",
			res.Decision, res.Iterations, res.Quality, res.Samples)
	}
	if res.Model == nil {
		t.Error("accepted search should return the model")
	}
	if res.Iterations < 2 {
		t.Errorf("expected multiple doubling iterations, got %d", res.Iterations)
	}
}

func TestSearchBudgetDoublingFourXBound(t *testing.T) {
	// The paper's 4× bound applies to the DP *budget* search: when the
	// search accepts while still doubling ε (data window fixed), the
	// failed iterations cost at most the final budget, and the final
	// budget overshoots the optimum by at most 2×. Run with the full
	// window from the start so only ε doubles.
	s := Search{
		Pipe:       lrPipeline(0.006),
		Epsilon0:   0.05,
		EpsilonCap: 1.0,
		Delta:      1e-6,
		MinSamples: taxiStream.Len(),
	}
	res, err := s.Run(taxiStream, rng.New(20))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Fatalf("decision = %v (quality %v)", res.Decision, res.Quality)
	}
	if res.TotalSpent.Epsilon > 4*res.FinalBudget.Epsilon {
		t.Errorf("total ε %v exceeds 4× final %v", res.TotalSpent.Epsilon, res.FinalBudget.Epsilon)
	}
}

func TestSearchRejectsImpossibleTarget(t *testing.T) {
	// Pure noise labels; target far below the achievable 0.25.
	noisy := &data.Dataset{}
	gen := rng.New(2)
	for i := 0; i < 120000; i++ {
		y := 0.0
		if gen.Bool(0.5) {
			y = 1
		}
		noisy.Append(data.Example{Features: []float64{gen.Float64()}, Label: y})
	}
	s := Search{
		Pipe:       lrPipeline(0.05),
		Epsilon0:   0.25,
		EpsilonCap: 1.0,
		Delta:      1e-6,
		MinSamples: 10000,
	}
	res, err := s.Run(noisy, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Reject {
		t.Fatalf("decision = %v, want REJECT", res.Decision)
	}
}

func TestSearchRetriesWhenDataRunsOut(t *testing.T) {
	small := taxiStream.Head(3000) // far too little for a tight target
	s := Search{
		Pipe:       lrPipeline(0.0028),
		Epsilon0:   0.5,
		EpsilonCap: 1.0,
		Delta:      1e-6,
		MinSamples: 1000,
	}
	res, err := s.Run(small, rng.New(4))
	if !errors.Is(err, ErrInsufficientBudget) {
		t.Fatalf("err = %v, want ErrInsufficientBudget", err)
	}
	if res.Decision != validation.Retry {
		t.Fatalf("decision = %v, want RETRY (stream exhausted)", res.Decision)
	}
	if res.Samples > 3000 {
		t.Errorf("used %d samples from a 3000-sample stream", res.Samples)
	}
}

// §5.4's aggressive block strategy is the schedule started at its
// end: ε0 = the cap and the whole stream as the first window.
func TestSearchAggressiveUsesEverythingAtOnce(t *testing.T) {
	s := Search{
		Pipe:       lrPipeline(0.006),
		Epsilon0:   1.0,
		EpsilonCap: 1.0,
		Delta:      1e-6,
		MinSamples: taxiStream.Len(),
	}
	res, err := s.Run(taxiStream, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Fatalf("decision = %v", res.Decision)
	}
	if res.Iterations != 1 {
		t.Errorf("aggressive should accept in 1 iteration, took %d", res.Iterations)
	}
	if res.Samples != taxiStream.Len() {
		t.Errorf("aggressive should use the full stream, used %d", res.Samples)
	}
	if res.FinalBudget.Epsilon < 0.99 {
		t.Errorf("aggressive should spend the cap, spent %v", res.FinalBudget.Epsilon)
	}
}

func TestSearchConserveSpendsLessThanAggressive(t *testing.T) {
	conserve := Search{
		Pipe: lrPipeline(0.006), Epsilon0: 0.1, EpsilonCap: 1.0,
		Delta: 1e-6, MinSamples: 20000,
	}
	aggressive := conserve
	aggressive.Epsilon0 = aggressive.EpsilonCap
	aggressive.MinSamples = taxiStream.Len()
	rc, err := conserve.Run(taxiStream, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	ra, err := aggressive.Run(taxiStream, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if rc.Decision != validation.Accept || ra.Decision != validation.Accept {
		t.Fatalf("decisions %v / %v", rc.Decision, ra.Decision)
	}
	if rc.FinalBudget.Epsilon >= ra.FinalBudget.Epsilon {
		t.Errorf("conserve final ε %v not below aggressive %v",
			rc.FinalBudget.Epsilon, ra.FinalBudget.Epsilon)
	}
}

func TestSearchValidation(t *testing.T) {
	src := taxiStream.Head(100)
	cases := []Search{
		{Pipe: nil, Epsilon0: 0.1, EpsilonCap: 1, MinSamples: 10},
		{Pipe: lrPipeline(0.01), Epsilon0: 0, EpsilonCap: 1, MinSamples: 10},
		{Pipe: lrPipeline(0.01), Epsilon0: 2, EpsilonCap: 1, MinSamples: 10},
		{Pipe: lrPipeline(0.01), Epsilon0: 0.1, EpsilonCap: 1, MinSamples: 0},
	}
	for i, s := range cases {
		if _, err := s.Run(src, rng.New(8)); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestStreamTrainerEndToEnd(t *testing.T) {
	// Build a growing database of daily blocks and an access control,
	// then train a pipeline through the Sage Iterator.
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for _, ex := range taxiStream.Examples {
		for _, id := range db.Insert(ex) {
			ac.RegisterBlock(id)
		}
	}
	st := &StreamTrainer{
		AC: ac, DB: db, Pipe: lrPipeline(0.01),
		Epsilon0: 0.1, EpsilonCap: 1.0, Delta: 1e-6,
		MinWindow: 6,
	}
	res, err := st.Run(rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Fatalf("decision = %v (quality %v, samples %d)", res.Decision, res.Quality, res.Samples)
	}
	if len(res.Blocks) == 0 {
		t.Fatal("no blocks recorded")
	}
	// Every used block must have been charged exactly the final spend
	// plus the failed iterations that touched it; all within the global
	// ceiling (Theorem 4.3 invariant).
	for _, id := range db.Blocks() {
		loss := ac.BlockLoss(id)
		if loss.Epsilon > 1+1e-9 {
			t.Errorf("block %d loss %v exceeds ceiling", id, loss)
		}
	}
	if sl := ac.StreamLoss(); sl.Epsilon > 1+1e-9 {
		t.Errorf("stream loss %v exceeds ceiling", sl)
	}
	if sl := ac.StreamLoss(); sl.Epsilon == 0 {
		t.Error("stream loss should be positive after training")
	}
}

func TestStreamTrainerInsufficientBudget(t *testing.T) {
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for _, ex := range taxiStream.Head(50000).Examples {
		for _, id := range db.Insert(ex) {
			ac.RegisterBlock(id)
		}
	}
	// Drain all blocks.
	for _, id := range db.Blocks() {
		if err := ac.Request([]data.BlockID{id}, privacy.MustBudget(1, 1e-6)); err != nil {
			t.Fatal(err)
		}
	}
	st := &StreamTrainer{
		AC: ac, DB: db, Pipe: lrPipeline(0.006),
		Epsilon0: 0.1, EpsilonCap: 1.0, Delta: 1e-6, MinWindow: 2,
	}
	_, err := st.Run(rng.New(10))
	if !errors.Is(err, ErrInsufficientBudget) {
		t.Fatalf("err = %v, want ErrInsufficientBudget", err)
	}
}

func TestStreamTrainerMissingFields(t *testing.T) {
	st := &StreamTrainer{}
	if _, err := st.Run(rng.New(11)); err == nil {
		t.Error("empty trainer should error")
	}
}

// TestStreamTrainerSurfacesLedgerFailure: a journal that cannot take the
// request (or the refund of what a run left unspent) is the ledger
// failing, not the budget running out — the caller must see the journal's
// own error under ErrLedger, never "wait for new data".
func TestStreamTrainerSurfacesLedgerFailure(t *testing.T) {
	boom := errors.New("journal: disk on fire")
	npPipe := lrPipeline(0.01)
	npPipe.Trainer = pipeline.RidgeTrainer{Lambda: 1e-4} // leaves its ε share unspent
	cases := []struct {
		name string
		pipe *pipeline.Pipeline
		op   core.LedgerOp
	}{
		{"request", lrPipeline(0.01), core.LedgerRequest},
		{"refund", npPipe, core.LedgerRefund},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
			ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
			for _, id := range db.Insert(taxiStream.Head(20000).Examples...) {
				ac.RegisterBlock(id)
			}
			ac.SetShardJournal(func(_ int, rec core.LedgerRecord) (func() error, error) {
				if rec.Op == c.op {
					return nil, boom
				}
				return nil, nil
			})
			st := &StreamTrainer{
				AC: ac, DB: db, Pipe: c.pipe,
				Epsilon0: 0.1, EpsilonCap: 1.0, Delta: 1e-6, MinWindow: 2,
			}
			_, err := st.Run(rng.New(12))
			if !errors.Is(err, boom) || !errors.Is(err, ErrLedger) {
				t.Fatalf("err = %v, want the journal's error under ErrLedger", err)
			}
			if errors.Is(err, ErrInsufficientBudget) {
				t.Fatalf("err = %v reads as insufficient budget", err)
			}
		})
	}
}

// constModel predicts one value for every row.
type constModel float64

func (m constModel) Predict([]float64) float64 { return float64(m) }

func (m constModel) PredictBatch(rows [][]float64, out []float64) {
	for i := range rows {
		out[i] = float64(m)
	}
}

// constTrainer is a non-DP trainer that fits nothing.
type constTrainer struct{}

func (constTrainer) Train(*data.Dataset, privacy.Budget, *rng.RNG) ml.Model { return constModel(0) }
func (constTrainer) IsDP() bool                                             { return false }

type attemptRec struct {
	eps  float64
	rows int
}

// retryValidator answers RETRY to every model and records each attempt:
// its ε (the validation share doubled back to the pipeline's budget) and
// its rows (both halves of the split).
type retryValidator struct{ attempts *[]attemptRec }

func (v retryValidator) Validate(_ ml.Model, test, train *data.Dataset, cfg validation.Config, _ *rng.RNG) (validation.Decision, float64) {
	*v.attempts = append(*v.attempts, attemptRec{2 * cfg.Epsilon, test.Len() + train.Len()})
	return validation.Retry, 0
}

// TestSearchAndStreamTrainerWalkOneSchedule: a search that never gets
// past RETRY walks §3.3's schedule — ε doubles to its cap on the first
// window, then the window doubles to everything there is — and both
// Search and StreamTrainer end it the same way.
func TestSearchAndStreamTrainerWalkOneSchedule(t *testing.T) {
	const k, days = 100, 8
	stream := &data.Dataset{}
	for i := 0; i < k*days; i++ {
		stream.Append(data.Example{Features: []float64{1}, Time: int64(i/k*24 + i%24)})
	}
	want := []attemptRec{{0.125, k}, {0.25, k}, {0.5, k}, {1, k}, {1, 2 * k}, {1, 4 * k}, {1, 8 * k}}
	pipe := func(attempts *[]attemptRec) *pipeline.Pipeline {
		return &pipeline.Pipeline{
			Name: "stub", Trainer: constTrainer{},
			Validator: retryValidator{attempts}, Mode: validation.ModeSage,
		}
	}
	check := func(name string, attempts []attemptRec, res Result, err error) {
		t.Helper()
		if !errors.Is(err, ErrInsufficientBudget) || res.Decision != validation.Retry || res.Iterations != len(want) {
			t.Errorf("%s: err %v, decision %v, %d iterations; want ErrInsufficientBudget, RETRY, %d",
				name, err, res.Decision, res.Iterations, len(want))
		}
		if len(attempts) != len(want) {
			t.Fatalf("%s: attempts %v, want %v", name, attempts, want)
		}
		for i := range want {
			if attempts[i] != want[i] {
				t.Errorf("%s: attempt %d = %+v, want %+v", name, i, attempts[i], want[i])
			}
		}
	}

	var searched []attemptRec
	s := Search{Pipe: pipe(&searched), Epsilon0: 0.125, EpsilonCap: 1, Delta: 1e-6, MinSamples: k}
	res, err := s.Run(stream, rng.New(13))
	check("Search", searched, res, err)

	var streamed []attemptRec
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(8, 1e-3)})
	for _, id := range db.Insert(stream.Examples...) {
		ac.RegisterBlock(id)
	}
	if db.NumBlocks() != days {
		t.Fatalf("%d blocks, want %d", db.NumBlocks(), days)
	}
	st := &StreamTrainer{
		AC: ac, DB: db, Pipe: pipe(&streamed),
		Epsilon0: 0.125, EpsilonCap: 1, Delta: 1e-6, MinWindow: 1,
	}
	res, err = st.Run(rng.New(14))
	check("StreamTrainer", streamed, res, err)
}

// streamDigest hashes each example's label and feature-row pointer in
// stream order: it changes if anything reorders the stream.
func streamDigest(ds *data.Dataset) [sha256.Size]byte {
	h := sha256.New()
	for _, ex := range ds.Examples {
		fmt.Fprintf(h, "%v %p\n", ex.Label, ex.Features)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestSearchLeavesStreamOrder: each attempt splits a copy of its prefix,
// never the stream, so a search that walks the whole schedule — every ε
// rung on the first window, then every window up to the stream — leaves
// the stream it shares with other searches exactly as it found it.
func TestSearchLeavesStreamOrder(t *testing.T) {
	stream := data.NewDataset(800, 1)
	for i := range stream.Examples {
		stream.Examples[i].Label = float64(i)
	}
	before := streamDigest(stream)
	var attempts []attemptRec
	s := Search{
		Pipe: &pipeline.Pipeline{
			Name: "stub", Trainer: constTrainer{},
			Validator: retryValidator{&attempts}, Mode: validation.ModeSage,
		},
		Epsilon0: 0.125, EpsilonCap: 1, Delta: 1e-6, MinSamples: 100,
	}
	if _, err := s.Run(stream, rng.New(15)); !errors.Is(err, ErrInsufficientBudget) {
		t.Fatalf("err %v, want the whole schedule walked to ErrInsufficientBudget", err)
	}
	if len(attempts) != 7 {
		t.Fatalf("%d attempts, want 7", len(attempts))
	}
	if streamDigest(stream) != before {
		t.Error("the search reordered the stream it was handed")
	}
}

// TestStreamTrainerRunBytes: a warm StreamTrainer.Run over a 36 000-row
// window allocates its models and the few vectors of their solves, about
// 4.3 kB, not the window and not the d×d matrices of a linear fit. A
// copy of the window's example headers alone is 1.7 MB, and the moments,
// Cholesky factors and shifted matrix of one AdaSSP and one ridge fit
// 146 kB.
func TestStreamTrainerRunBytes(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation figures are not stable under the race detector")
	}
	const blocks, rowsPerBlock = 6, 6000
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
	for id := range blocks {
		for _, id := range db.Insert(taxi.Pipeline(rowsPerBlock, int64(id)*24, 24, 0, 0.05, rng.MixSeed(3, uint64(id))).Examples...) {
			ac.RegisterBlock(id)
		}
	}
	// ε0 is the cap and the window the whole database, so every Run is
	// one attempt on all six blocks.
	st := &StreamTrainer{
		AC: ac, DB: db, Pipe: lrPipeline(0.01),
		Epsilon0: 0.125, EpsilonCap: 0.125, Delta: 1e-8, MinWindow: blocks,
	}
	run := func() {
		res, err := st.Run(rng.New(19))
		if err != nil && !errors.Is(err, ErrInsufficientBudget) {
			t.Fatal(err)
		}
		if res.Iterations != 1 {
			t.Fatalf("%d attempts, want 1", res.Iterations)
		}
	}
	run() // grows the window, warms the pools
	const budget = 8 << 10
	if least := safety.LeastBytes(3, run); least >= budget {
		t.Errorf("a warm Run over %d rows allocated %d bytes, budget %d", blocks*rowsPerBlock, least, budget)
	}
}

// TestPooledScratchPinsNoRows: the scratch a training attempt works in —
// StreamTrainer's own window, Search's pooled one, Split's held test
// rows — keeps no row reachable once the data's last user drops it, so
// DP-informed retention (GrowingDatabase.Delete) frees a block's rows.
// Each row is made on its own with a finalizer, in the idiom of the data
// package's TestNewDatasetChunksDieWithTheirDataset, and one collection,
// with the collector otherwise off, must free them all. One: a sync.Pool
// drops what it holds at the second collection after a Put, so a later
// cycle would free the rows behind a buffer that was never cleared. The
// StreamTrainer outlives the collection, as the daemon's do: a dropped
// trainer would take an uncleared window with it.
func TestPooledScratchPinsNoRows(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const blocks, rowsPerBlock = 6, 500
	t.Run("StreamTrainer.Run", func(t *testing.T) {
		var freed atomic.Int64
		st := &StreamTrainer{
			Pipe:     lrPipeline(0.01),
			Epsilon0: 0.125, EpsilonCap: 0.5, Delta: 1e-6, MinWindow: blocks / 2,
		}
		func() {
			db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
			ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1, 1e-6)})
			for id := range blocks {
				rows := taxi.Pipeline(rowsPerBlock, int64(id)*24, 24, 0, 0, rng.MixSeed(5, uint64(id)))
				for _, id := range db.Insert(watchedRows(rows, &freed)...) {
					ac.RegisterBlock(id)
				}
			}
			st.AC, st.DB = ac, db
			res, err := st.Run(rng.New(21))
			if err != nil && !errors.Is(err, ErrInsufficientBudget) {
				t.Fatal(err)
			}
			if res.Iterations < 2 {
				t.Fatalf("%d attempts, want at least 2 through the trainer's window", res.Iterations)
			}
			for _, id := range db.Blocks() {
				db.Delete(id)
			}
		}()
		requireFreed(t, &freed, blocks*rowsPerBlock)
		runtime.KeepAlive(st)
	})
	t.Run("Search.Run", func(t *testing.T) {
		var freed atomic.Int64
		var want int64
		func() {
			stream := &data.Dataset{Examples: watchedRows(taxi.Pipeline(blocks*rowsPerBlock, 0, 24, 0, 0, 5), &freed)}
			want = int64(stream.Len())
			var attempts []attemptRec
			s := Search{
				Pipe: &pipeline.Pipeline{
					Name: "stub", Trainer: constTrainer{},
					Validator: retryValidator{&attempts}, Mode: validation.ModeSage,
				},
				Epsilon0: 0.5, EpsilonCap: 1, Delta: 1e-6, MinSamples: rowsPerBlock,
			}
			if _, err := s.Run(stream, rng.New(22)); !errors.Is(err, ErrInsufficientBudget) {
				t.Fatalf("err %v, want the whole schedule walked to ErrInsufficientBudget", err)
			}
			if len(attempts) < 2 {
				t.Fatalf("%d attempts, want at least 2 through the pooled window", len(attempts))
			}
		}()
		requireFreed(t, &freed, want)
	})
	t.Run("Split", func(t *testing.T) {
		var freed atomic.Int64
		func() {
			ds := &data.Dataset{Examples: watchedRows(taxi.Pipeline(rowsPerBlock, 0, 24, 0, 0, 5), &freed)}
			ds.Split(0.9, rng.New(23))
		}()
		requireFreed(t, &freed, rowsPerBlock)
	})
}

// watchedRows copies ds's examples onto rows made one by one, each of
// which counts itself into freed when it is collected.
func watchedRows(ds *data.Dataset, freed *atomic.Int64) []data.Example {
	out := make([]data.Example, ds.Len())
	for i, ex := range ds.Examples {
		out[i] = ex
		out[i].Features = append(make([]float64, 0, len(ex.Features)), ex.Features...)
		runtime.SetFinalizer(&out[i].Features[0], func(*float64) { freed.Add(1) })
	}
	return out
}

// requireFreed runs one collection and fails t unless, once the
// finalizers it queued have run, all want rows were freed.
func requireFreed(t *testing.T, freed *atomic.Int64, want int64) {
	t.Helper()
	runtime.GC()
	// Finalizers run on their own goroutine after the cycle that found
	// their objects dead.
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < want && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Errorf("%d of %d rows freed: pooled scratch keeps the rest reachable", got, want)
	}
}
