package pipeline

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/safety"
	"repro/internal/taxi"
	"repro/internal/validation"
)

// taxiData caches a featurized synthetic taxi dataset for the tests. A
// run reorders what it is handed, so each hands Run or Split a Clone and
// the fixture reads the same in any test order.
var taxiData = taxi.Pipeline(200000, 0, 24*30, 0, 0, 99)

func taxiLRPipeline(target float64, mode validation.Mode) *Pipeline {
	return &Pipeline{
		Name:    "taxi-lr",
		Trainer: AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
		Validator: MSEValidator{
			Target: target, B: 1,
			ERMTrainer: RidgeTrainer{Lambda: 1e-4},
		},
		Mode: mode,
	}
}

func TestPipelineRunAcceptsEasyTarget(t *testing.T) {
	p := taxiLRPipeline(0.0085, validation.ModeSage) // above-naive target: easy
	res, err := p.Run(taxiData.Clone(), privacy.MustBudget(1, 1e-6), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Errorf("decision = %v, want ACCEPT (quality %v)", res.Decision, res.Quality)
	}
	if res.Quality <= 0 || res.Quality > 0.0085 {
		t.Errorf("quality = %v", res.Quality)
	}
	if res.TrainSize+res.TestSize != taxiData.Len() {
		t.Error("split sizes do not add up")
	}
	// Split should be 90::10.
	if math.Abs(float64(res.TrainSize)-0.9*float64(taxiData.Len())) > 1 {
		t.Errorf("train size = %d", res.TrainSize)
	}
}

func TestPipelineRejectsImpossibleTarget(t *testing.T) {
	// Pure-noise labels: the best achievable MSE is ≈ 0.25, so a target
	// of 0.1 is provably unreachable and the ERM-based REJECT test
	// fires once the Hoeffding band is narrow enough.
	noise := &data.Dataset{}
	gen := rng.New(40)
	for i := 0; i < 30000; i++ {
		y := 0.0
		if gen.Bool(0.5) {
			y = 1
		}
		noise.Append(data.Example{Features: []float64{gen.Float64()}, Label: y})
	}
	p := &Pipeline{
		Name:    "noise-lr",
		Trainer: AdaSSPTrainer{Rho: 0.1, FeatureBound: 1.5, LabelBound: 1},
		Validator: MSEValidator{
			Target: 0.1, B: 1,
			ERMTrainer: RidgeTrainer{Lambda: 1e-4},
		},
		Mode: validation.ModeSage,
	}
	res, err := p.Run(noise, privacy.MustBudget(1, 1e-6), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Reject {
		t.Errorf("decision = %v (quality %v), want REJECT", res.Decision, res.Quality)
	}
}

func TestPipelineRetriesOnSmallData(t *testing.T) {
	p := taxiLRPipeline(0.004, validation.ModeSage)
	small := taxiData.Head(300).Clone()
	res, err := p.Run(small, privacy.MustBudget(1, 1e-6), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Retry {
		t.Errorf("decision = %v, want RETRY on 300 samples", res.Decision)
	}
}

func TestPipelineBudgetAccounting(t *testing.T) {
	// DP trainer + DP validator, no preprocessing: ε/2 + ε/2 = ε.
	p := taxiLRPipeline(0.007, validation.ModeSage)
	res, err := p.Run(taxiData.Clone(), privacy.MustBudget(0.8, 1e-6), rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Spent.Epsilon-0.8) > 1e-9 {
		t.Errorf("spent ε = %v, want 0.8", res.Spent.Epsilon)
	}
	if res.Spent.Delta != 1e-6 {
		t.Errorf("spent δ = %v", res.Spent.Delta)
	}
}

func TestPipelineNPTrainerSpendsOnlyValidation(t *testing.T) {
	p := &Pipeline{
		Name:      "taxi-lr-np",
		Trainer:   RidgeTrainer{Lambda: 1e-4},
		Validator: MSEValidator{Target: 0.007, B: 1},
		Mode:      validation.ModeSage,
	}
	res, err := p.Run(taxiData.Clone(), privacy.MustBudget(1, 1e-6), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Spent.Epsilon-0.5) > 1e-9 {
		t.Errorf("spent ε = %v, want 0.5 (validation share only)", res.Spent.Epsilon)
	}
}

func TestPipelineWithPreprocessing(t *testing.T) {
	called := false
	p := taxiLRPipeline(0.007, validation.ModeSage)
	p.Preprocess = func(ds *data.Dataset, eps float64, r *rng.RNG) *data.Dataset {
		called = true
		if math.Abs(eps-1.0/3) > 1e-9 {
			t.Errorf("preprocess ε = %v, want 1/3", eps)
		}
		return ds
	}
	res, err := p.Run(taxiData.Clone(), privacy.MustBudget(1, 1e-6), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("preprocess not invoked")
	}
	if math.Abs(res.Spent.Epsilon-1.0) > 1e-9 {
		t.Errorf("spent ε = %v, want 1 (three thirds)", res.Spent.Epsilon)
	}
}

func TestPipelineValidation(t *testing.T) {
	p := &Pipeline{Name: "broken"}
	if _, err := p.Run(taxiData, privacy.MustBudget(1, 0), rng.New(7)); err == nil {
		t.Error("missing trainer should error")
	}
	p2 := taxiLRPipeline(0.007, validation.ModeSage)
	if _, err := p2.Run(taxiData, privacy.Budget{Epsilon: -1}, rng.New(8)); err == nil {
		t.Error("invalid budget should error")
	}
}

func TestSGDTrainerKinds(t *testing.T) {
	ds := &data.Dataset{}
	gen := rng.New(9)
	for i := 0; i < 500; i++ {
		x := []float64{gen.Float64(), gen.Float64()}
		y := 0.0
		if x[0] > 0.5 {
			y = 1
		}
		ds.Append(data.Example{Features: x, Label: y})
	}
	for _, kind := range []ModelKind{KindLogistic, KindLinear, KindMLPRegression, KindMLPClassification} {
		tr := SGDTrainer{
			Kind: kind, Dim: 2, Hidden: []int{4},
			LearningRate: 0.1, Epochs: 1, BatchSize: 32, InitSeed: 1,
		}
		m := tr.Train(ds, privacy.Zero, rng.New(10))
		if m == nil {
			t.Fatalf("kind %d returned nil model", kind)
		}
		out := m.Predict([]float64{0.5, 0.5})
		if math.IsNaN(out) || math.IsInf(out, 0) {
			t.Errorf("kind %d predicts %v", kind, out)
		}
		if tr.IsDP() {
			t.Errorf("kind %d should not be DP", kind)
		}
	}
	dp := SGDTrainer{
		Kind: KindLogistic, Dim: 2,
		LearningRate: 0.1, Epochs: 1, BatchSize: 32,
		DP: true, ClipNorm: 1, InitSeed: 1,
	}
	if !dp.IsDP() {
		t.Error("DP trainer should report IsDP")
	}
	if m := dp.Train(ds, privacy.MustBudget(1, 1e-6), rng.New(11)); m == nil {
		t.Fatal("DP training returned nil")
	}
}

func TestTrainerOnEmptyDataset(t *testing.T) {
	tr := SGDTrainer{Kind: KindLogistic, Dim: 3, LearningRate: 0.1, Epochs: 1, BatchSize: 8, InitSeed: 1}
	m := tr.Train(&data.Dataset{}, privacy.Zero, rng.New(12))
	if m == nil {
		t.Fatal("empty-data training should still return a model")
	}
}

func TestAccuracyValidatorDecision(t *testing.T) {
	// Build a trivially separable classification set.
	ds := &data.Dataset{}
	gen := rng.New(13)
	for i := 0; i < 20000; i++ {
		x := gen.Float64()
		y := 0.0
		if x > 0.5 {
			y = 1
		}
		ds.Append(data.Example{Features: []float64{x}, Label: y})
	}
	p := &Pipeline{
		Name: "sep",
		Trainer: SGDTrainer{
			Kind: KindLogistic, Dim: 1,
			LearningRate: 1, Epochs: 5, BatchSize: 64, InitSeed: 2,
		},
		Validator: AccuracyValidator{Target: 0.8},
		Mode:      validation.ModeSage,
	}
	res, err := p.Run(ds, privacy.MustBudget(1, 1e-6), rng.New(14))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision != validation.Accept {
		t.Errorf("decision = %v (quality %v), want ACCEPT", res.Decision, res.Quality)
	}
	if res.Quality < 0.8 {
		t.Errorf("accuracy = %v", res.Quality)
	}
}

func TestNoSLAPipelineAcceptsSmallData(t *testing.T) {
	// Table 2's mechanism: No SLA accepts on tiny test sets where Sage
	// retries.
	pNo := taxiLRPipeline(0.006, validation.ModeNoSLA)
	pSage := taxiLRPipeline(0.006, validation.ModeSage)
	small := taxiData.Head(2000)
	accepts := 0
	for i := 0; i < 10; i++ {
		res, err := pNo.Run(small.Clone(), privacy.MustBudget(1, 1e-6), rng.New(uint64(20+i)))
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision == validation.Accept {
			accepts++
		}
	}
	if accepts < 3 {
		t.Errorf("No SLA accepted only %d/10 on small data", accepts)
	}
	res, err := pSage.Run(small.Clone(), privacy.MustBudget(1, 1e-6), rng.New(30))
	if err != nil {
		t.Fatal(err)
	}
	if res.Decision == validation.Accept {
		t.Error("Sage should not accept a marginal target on 200 test samples")
	}
}

func TestMSEValidatorQualityMatchesModel(t *testing.T) {
	m := ml.NaiveMeanModel(taxiData)
	v := MSEValidator{Target: 0.01, B: 1}
	cfg := validation.Config{Mode: validation.ModeSage, Eta: 0.05, Epsilon: 1}
	_, q := v.Validate(m, taxiData, nil, cfg, rng.New(31))
	if math.Abs(q-ml.MSE(m, taxiData)) > 1e-12 {
		t.Errorf("reported quality %v != true MSE", q)
	}
}

// TestMSEValidatorBytesFlat: a warm MSE validation allocates the same
// bytes on 3000 rows as on 48 000, though it walks the test losses and,
// on the way to REJECT, the ERM's training losses: both are written into
// one pooled buffer. What it does allocate is the ERM's d×d moments and
// the models, which the row count does not size.
func TestMSEValidatorBytesFlat(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation figures are not stable under the race detector")
	}
	v := MSEValidator{Target: 0.004, B: 1, ERMTrainer: RidgeTrainer{Lambda: 1e-4}}
	cfg := validation.Config{Mode: validation.ModeSage, Eta: 0.05, Epsilon: 1}
	m := ml.NaiveMeanModel(taxiData)
	var got [2]uint64
	for i, n := range []int{3000, 48000} {
		ds := taxiData.Head(n)
		r := rng.New(61)
		validate := func() {
			if d, _ := v.Validate(m, ds, ds, cfg, r); d == validation.Accept {
				t.Fatalf("n=%d: ACCEPT never fits the ERM, so it leaves the training losses unmeasured", n)
			}
		}
		validate() // warms the pooled buffer
		got[i] = safety.LeastBytes(3, validate)
	}
	if got[0] != got[1] {
		t.Errorf("Validate allocated %d bytes on 3000 rows and %d on 48000: a buffer grows with the data", got[0], got[1])
	}
}

// countingERM counts how often a validator asks for the empirical risk
// minimizer.
type countingERM struct {
	RidgeTrainer
	calls *int
}

func (c countingERM) Train(ds *data.Dataset, b privacy.Budget, r *rng.RNG) ml.Model {
	*c.calls++
	return c.RidgeTrainer.Train(ds, b, r)
}

// TestValidatorsFitERMOnlyForReject pins the laziness both validators
// share: the ERM exists for the REJECT test alone, so an ACCEPT never
// fits it and every other outcome fits it exactly once.
func TestValidatorsFitERMOnlyForReject(t *testing.T) {
	// Binary labels for the accuracy validator: separable (label = x ≥
	// 0.5, which the identity model predicts exactly) and pure noise.
	gen := rng.New(41)
	separable, noise := &data.Dataset{}, &data.Dataset{}
	for i := 0; i < 30000; i++ {
		x, y := gen.Float64(), 0.0
		if x >= 0.5 {
			y = 1
		}
		separable.Append(data.Example{Features: []float64{x}, Label: y})
		y = 0
		if gen.Bool(0.5) {
			y = 1
		}
		noise.Append(data.Example{Features: []float64{gen.Float64()}, Label: y})
	}
	identity := &ml.LinearModel{Weights: []float64{1}}

	calls := 0
	erm := countingERM{RidgeTrainer{Lambda: 1e-4}, &calls}
	mse := func(target float64) Validator { return MSEValidator{Target: target, B: 1, ERMTrainer: erm} }
	acc := func(target float64) Validator { return AccuracyValidator{Target: target, ERMTrainer: erm} }
	cases := []struct {
		name      string
		validator Validator
		model     ml.Model
		ds        *data.Dataset
		want      validation.Decision
		wantCalls int
	}{
		{"mse/accept", mse(0.02), ml.NaiveMeanModel(taxiData), taxiData.Head(50000), validation.Accept, 0},
		{"mse/reject", mse(0.1), ml.NaiveMeanModel(noise), noise, validation.Reject, 1},
		{"mse/retry", mse(0.004), ml.NaiveMeanModel(taxiData), taxiData.Head(300), validation.Retry, 1},
		{"accuracy/accept", acc(0.9), identity, separable, validation.Accept, 0},
		{"accuracy/reject", acc(0.9), identity, noise, validation.Reject, 1},
		{"accuracy/retry", acc(0.9), identity, noise.Head(40), validation.Retry, 1},
	}
	cfg := validation.Config{Mode: validation.ModeSage, Eta: 0.05, Epsilon: 1}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := rng.New(uint64(50 + i))
			train, test := c.ds.Clone().Split(0.9, r)
			calls = 0
			if got, _ := c.validator.Validate(c.model, test, train, cfg, r); got != c.want {
				t.Fatalf("decision = %v, want %v", got, c.want)
			}
			if calls != c.wantCalls {
				t.Errorf("ERM fitted %d times, want %d", calls, c.wantCalls)
			}
		})
	}
}
