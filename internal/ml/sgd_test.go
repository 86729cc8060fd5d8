package ml

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/safety"
	"repro/internal/taxi"
)

func TestSGDLinearRegressionConverges(t *testing.T) {
	r := rng.New(1)
	w := []float64{0.6, -0.4}
	ds := synthLinear(20000, 2, w, 0.2, 0.02, r)
	m := NewGLM(Regression, 2)
	TrainSGD(m, ds, SGDConfig{LearningRate: 0.05, Momentum: 0.9, Epochs: 5, BatchSize: 128}, rng.New(2))
	holdout := synthLinear(2000, 2, w, 0.2, 0.02, r)
	if mse := MSE(m, holdout); mse > 0.001 {
		t.Errorf("holdout MSE = %v, want < 0.001", mse)
	}
}

func TestLogisticRegressionLearns(t *testing.T) {
	r := rng.New(3)
	w := []float64{3, -2}
	ds := synthLogistic(20000, 2, w, 0.5, r)
	m := NewGLM(BinaryClassification, 2)
	TrainSGD(m, ds, SGDConfig{LearningRate: 0.2, Epochs: 5, BatchSize: 128}, rng.New(4))
	holdout := synthLogistic(5000, 2, w, 0.5, r)
	acc := Accuracy(m, holdout)
	naive := Accuracy(NaiveMajorityModel(holdout), holdout)
	if acc <= naive+0.05 {
		t.Errorf("accuracy %v not better than naive %v", acc, naive)
	}
	// Bayes-optimal accuracy for this model is bounded; just check sane.
	if acc < 0.7 {
		t.Errorf("accuracy %v too low", acc)
	}
}

func TestDPSGDLargeEpsilonMatchesNonPrivate(t *testing.T) {
	r := rng.New(5)
	w := []float64{0.5, -0.5}
	ds := synthLinear(20000, 2, w, 0.1, 0.02, r)
	holdout := synthLinear(2000, 2, w, 0.1, 0.02, r)

	np := NewGLM(Regression, 2)
	TrainSGD(np, ds, SGDConfig{LearningRate: 0.05, Epochs: 3, BatchSize: 256}, rng.New(6))

	dp := NewGLM(Regression, 2)
	TrainSGD(dp, ds, SGDConfig{
		LearningRate: 0.05, Epochs: 3, BatchSize: 256,
		DP: true, ClipNorm: 2, Budget: privacy.MustBudget(50, 1e-6),
	}, rng.New(7))

	mseNP, mseDP := MSE(np, holdout), MSE(dp, holdout)
	if mseDP > mseNP*3+0.002 {
		t.Errorf("DP (ε=50) MSE %v far above NP MSE %v", mseDP, mseNP)
	}
}

func TestDPSGDSmallEpsilonWorse(t *testing.T) {
	r := rng.New(8)
	w := []float64{0.5, -0.5}
	ds := synthLinear(5000, 2, w, 0.1, 0.02, r)
	holdout := synthLinear(2000, 2, w, 0.1, 0.02, r)
	run := func(eps float64, seed uint64) float64 {
		m := NewGLM(Regression, 2)
		TrainSGD(m, ds, SGDConfig{
			LearningRate: 0.05, Epochs: 3, BatchSize: 256,
			DP: true, ClipNorm: 2, Budget: privacy.MustBudget(eps, 1e-6),
		}, rng.New(seed))
		return MSE(m, holdout)
	}
	avg := func(eps float64) float64 {
		s := 0.0
		for i := 0; i < 5; i++ {
			s += run(eps, uint64(10+i))
		}
		return s / 5
	}
	if loose, tight := avg(10), avg(0.1); tight <= loose {
		t.Errorf("ε=0.1 MSE %v should exceed ε=10 MSE %v", tight, loose)
	}
}

func TestSGDConfigValidation(t *testing.T) {
	ds := synthLinear(10, 1, []float64{1}, 0, 0, rng.New(9))
	bad := []SGDConfig{
		{LearningRate: 0, Epochs: 1, BatchSize: 1},
		{LearningRate: 0.1, Epochs: 0, BatchSize: 1},
		{LearningRate: 0.1, Epochs: 1, BatchSize: 0},
		{LearningRate: 0.1, Epochs: 1, BatchSize: 1, Momentum: 1},
		{LearningRate: 0.1, Epochs: 1, BatchSize: 1, DP: true, ClipNorm: 0, Budget: privacy.MustBudget(1, 1e-6)},
		{LearningRate: 0.1, Epochs: 1, BatchSize: 1, DP: true, ClipNorm: 1, Budget: privacy.MustBudget(1, 0)},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			TrainSGD(NewGLM(Regression, 1), ds, cfg, rng.New(0))
		}()
	}
}

func TestSGDEmptyDataset(t *testing.T) {
	m := NewGLM(Regression, 2)
	before := append([]float64{}, m.Params()...)
	TrainSGD(m, &data.Dataset{}, SGDConfig{LearningRate: 0.1, Epochs: 1, BatchSize: 4}, rng.New(1))
	for i := range before {
		if m.Params()[i] != before[i] {
			t.Fatal("training on empty data changed parameters")
		}
	}
}

func TestSGDDeterminism(t *testing.T) {
	r := rng.New(20)
	ds := synthLinear(1000, 2, []float64{1, -1}, 0, 0.05, r)
	train := func(seed uint64) []float64 {
		m := NewGLM(Regression, 2)
		TrainSGD(m, ds, SGDConfig{
			LearningRate: 0.05, Epochs: 2, BatchSize: 64,
			DP: true, ClipNorm: 1, Budget: privacy.MustBudget(1, 1e-6),
		}, rng.New(seed))
		return append([]float64{}, m.Params()...)
	}
	a, b := train(42), train(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed DP-SGD runs diverged")
		}
	}
	c := train(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different-seed DP-SGD runs identical")
	}
}

func TestNoiseMultiplierScalesWithBudget(t *testing.T) {
	cfg := func(eps float64) SGDConfig {
		return SGDConfig{
			LearningRate: 0.1, Epochs: 3, BatchSize: 512,
			DP: true, ClipNorm: 1, Budget: privacy.MustBudget(eps, 1e-6),
		}
	}
	s1 := cfg(1).NoiseMultiplier(50000)
	s2 := cfg(0.25).NoiseMultiplier(50000)
	if s2 <= s1 {
		t.Errorf("smaller ε should need more noise: σ(0.25)=%v vs σ(1)=%v", s2, s1)
	}
	if nd := (SGDConfig{LearningRate: 0.1, Epochs: 1, BatchSize: 1}).NoiseMultiplier(100); nd != 0 {
		t.Errorf("non-DP noise multiplier = %v", nd)
	}
}

// referenceTrainSGD is TrainSGD as it stood before PR 19, kept as the
// differential reference: every model, linear or not, goes through Grad
// into a gradient buffer, clipL2 and an add loop.
func referenceTrainSGD(model denseGradModel, ds *data.Dataset, cfg SGDConfig, r *rng.RNG) GradModel {
	cfg.validate()
	n := ds.Len()
	if n == 0 {
		return model
	}
	params := model.Params()
	p := len(params)
	scratch := getSGDScratch(p)
	defer sgdScratchPool.Put(scratch)
	velocity := scratch.velocity
	grad := make([]float64, p)
	batchGrad := scratch.batchGrad

	sigma := 0.0
	if cfg.DP {
		sigma = cfg.NoiseMultiplier(n)
	}

	stepsPerEpoch := (n + cfg.BatchSize - 1) / cfg.BatchSize
	q := float64(cfg.BatchSize) / float64(n)
	perm := make([]int, 0, n)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if !cfg.DP {
			perm = r.Perm(n)
		}
		for step := 0; step < stepsPerEpoch; step++ {
			for i := range batchGrad {
				batchGrad[i] = 0
			}
			count := 0
			if cfg.DP {
				for i := nextPoisson(r, q, -1); i < n; i = nextPoisson(r, q, i) {
					ex := ds.Examples[i]
					model.Grad(ex.Features, ex.Label, grad)
					clipL2(grad, cfg.ClipNorm)
					for j := range batchGrad {
						batchGrad[j] += grad[j]
					}
					count++
				}
				noiseStd := sigma * cfg.ClipNorm
				expected := float64(cfg.BatchSize)
				for j := range batchGrad {
					batchGrad[j] = (batchGrad[j] + r.Normal(0, noiseStd)) / expected
				}
			} else {
				lo := step * cfg.BatchSize
				hi := lo + cfg.BatchSize
				if hi > n {
					hi = n
				}
				for _, idx := range perm[lo:hi] {
					ex := ds.Examples[idx]
					model.Grad(ex.Features, ex.Label, grad)
					for j := range batchGrad {
						batchGrad[j] += grad[j]
					}
					count++
				}
				if count == 0 {
					continue
				}
				for j := range batchGrad {
					batchGrad[j] /= float64(count)
				}
			}
			for j := range params {
				velocity[j] = cfg.Momentum*velocity[j] - cfg.LearningRate*batchGrad[j]
				params[j] += velocity[j]
			}
		}
	}
	return model
}

// sgdModels builds the three GradModel kinds at one width, each fresh.
func sgdModels(dim int) map[string]func() denseGradModel {
	return map[string]func() denseGradModel{
		"logistic": func() denseGradModel { return NewGLM(BinaryClassification, dim) },
		"linear":   func() denseGradModel { return NewGLM(Regression, dim) },
		"mlp":      func() denseGradModel { return NewMLP(BinaryClassification, dim, []int{8}, rng.New(77)) },
	}
}

// criteoDim is criteo.FeatureDim: 13 numeric columns, then 26
// categoricals one-hot over 6 columns each. criteo imports ml, so its
// pipeline is out of this package's tests' reach; criteoRows builds
// rows of its layout instead.
const criteoDim = 13 + 26*6

func criteoRows(n int, r *rng.RNG) *data.Dataset {
	ds := data.NewDataset(n, criteoDim)
	for k := range ds.Examples {
		ex := &ds.Examples[k]
		for i := 0; i < 13; i++ {
			if r.Bool(0.7) {
				ex.Features[i] = r.Float64()
			}
		}
		for c := 0; c < 26; c++ {
			ex.Features[13+6*c+r.IntN(6)] = 1
		}
		if r.Bool(0.26) {
			ex.Label = 1
		}
	}
	return ds
}

// TestTrainSGDMatchesReference trains every model kind through TrainSGD
// and through the reference loop from one RNG seed, and the MLP at the
// paper's two NN widths (Table 1: 64 and 32 hidden units over Taxi's
// and Criteo's rows) too. Plain SGD must be bit-identical for all (the
// rank-one coefficient is Grad's, and coef·x is added in the same
// order), and so must the DP MLP, which sums the dense gradient's
// squares and adds its scaled terms over the non-zero inputs only. The
// linear models clip the coefficient instead of the vector, which may
// move low-order bits — 1e-12 relative on every parameter — and nothing
// else: the same examples are sampled and the same noise is drawn.
func TestTrainSGDMatchesReference(t *testing.T) {
	const dim = 12
	w := make([]float64, dim)
	for i := range w {
		w[i] = float64(i%5) - 2
	}
	type run struct {
		ds    *data.Dataset
		fresh func() denseGradModel
	}
	runs := map[string]run{
		"taxi-nn": {taxi.Pipeline(2000, 0, 24*7, 0, 0, 33), func() denseGradModel {
			return NewMLP(Regression, taxi.FeatureDim, []int{64, 32}, rng.New(11))
		}},
		"criteo-nn": {criteoRows(2000, rng.New(34)), func() denseGradModel {
			return NewMLP(BinaryClassification, criteoDim, []int{64, 32}, rng.New(13))
		}},
	}
	small := synthLogistic(3000, dim, w, 0.3, rng.New(31))
	for name, fresh := range sgdModels(dim) {
		runs[name] = run{small, fresh}
	}
	for _, dp := range []bool{false, true} {
		cfg := SGDConfig{LearningRate: 0.1, Momentum: 0.5, Epochs: 1, BatchSize: 100}
		if dp {
			// A bound most gradients exceed and some do not, so both
			// sides of the clip are compared.
			cfg.DP, cfg.ClipNorm, cfg.Budget = true, 0.9, privacy.MustBudget(2, 1e-6)
		}
		for name, c := range runs {
			model := TrainSGD(c.fresh(), c.ds, cfg, rng.New(32))
			got := model.Params()
			want := referenceTrainSGD(c.fresh(), c.ds, cfg, rng.New(32)).Params()
			_, mlp := model.(*MLP)
			exact := !dp || mlp
			for i := range want {
				if exact && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s dp=%v: param %d = %v, reference %v: want bit-identical", name, dp, i, got[i], want[i])
				}
				if diff := math.Abs(got[i] - want[i]); diff > 1e-12*math.Abs(want[i]) {
					t.Fatalf("%s dp=%v: param %d = %v, reference %v (relative %g)", name, dp, i, got[i], want[i], diff/math.Abs(want[i]))
				}
			}
		}
	}
}

// TestClippedContributionBound checks DP-SGD's sensitivity bound where
// it is enforced: whatever a model's addGrad adds for one example has L2
// norm at most the clip bound — for an ordinary row, an all-zero row
// (a linear gradient is all bias), a row whose gradient norm is exactly
// the bound (it must pass unscaled), and a row so large that its squared
// norm overflows. Unclipped, what it adds is the reference gradient.
func TestClippedContributionBound(t *testing.T) {
	const dim, clip = 3, 1.0
	rows := map[string][]float64{
		"ordinary":     {0.3, -0.7, 0.2},
		"zero":         {0, 0, 0},
		"at the bound": {1, 1, 1}, // logistic at zero weights: |0.5|·√(3+1) = 1
		"large":        {30, -40, 50},
		"overflowing":  {1e200, -1e200, 1e180},
	}
	for name, fresh := range sgdModels(dim) {
		for rowName, x := range rows {
			for _, y := range []float64{0, 1} {
				model := fresh()
				sum := make([]float64, len(model.Params()))
				model.addGrad(sum, x, y, clip)
				if norm := linalg.Norm2(sum); !(norm <= clip*(1+1e-12)) {
					t.Errorf("%s, %s row, y=%v: contribution norm %v exceeds the bound %v", name, rowName, y, norm, clip)
				}
				if rowName == "at the bound" && name == "logistic" && y == 0 {
					if want := []float64{0.5, 0.5, 0.5, 0.5}; !equalFloats(sum, want) {
						t.Errorf("a gradient at exactly the bound was rescaled: %v", sum)
					}
				}
				clear(sum)
				model.addGrad(sum, rows["ordinary"], y, 0)
				grad := make([]float64, len(sum))
				model.Grad(rows["ordinary"], y, grad)
				if !equalFloats(sum, grad) {
					t.Errorf("%s: unclipped contribution %v, Grad %v", name, sum, grad)
				}
			}
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] { // 0 + (−0) is +0: equal values, not equal bits
			return false
		}
	}
	return true
}

// TestDPSGDStepAllocs pins the per-example step's allocations: a DP
// epoch, on a linear model and on the Taxi-NN MLP, costs the same handful
// of objects (the calibration lookup's, none of TrainSGD's own) whether
// it takes 20 steps or 200 — nothing is allocated per step or per
// example.
func TestDPSGDStepAllocs(t *testing.T) {
	cases := []struct {
		name  string
		ds    *data.Dataset
		model GradModel
	}{
		{"logistic", synthLogistic(4000, 20, make([]float64, 20), 0, rng.New(41)), NewGLM(BinaryClassification, 20)},
		{"taxi-nn", taxi.Pipeline(4000, 0, 24*7, 0, 0, 41), NewMLP(Regression, taxi.FeatureDim, []int{64, 32}, rng.New(41))},
	}
	for _, c := range cases {
		var allocs []float64
		for _, batch := range []int{c.ds.Len() / 20, c.ds.Len() / 200} {
			cfg := SGDConfig{
				LearningRate: 0.1, Epochs: 1, BatchSize: batch,
				DP: true, ClipNorm: 1, Budget: privacy.MustBudget(1, 1e-6),
			}
			r := rng.New(42)
			got := safety.MaxAllocs(t, 5, 2, func() { TrainSGD(c.model, c.ds, cfg, r) })
			t.Logf("%s, batch %d (%d steps): %.0f allocations", c.name, batch, (c.ds.Len()+batch-1)/batch, got)
			allocs = append(allocs, got)
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: %.0f allocations at 20 steps, %.0f at 200: the step allocates", c.name, allocs[0], allocs[1])
		}
	}
}
