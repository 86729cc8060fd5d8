package ml

import (
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// LogLoss returns the mean binary cross-entropy with predictions clamped
// away from 0 and 1.
func LogLoss(m Model, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	sum := 0.0
	for _, ex := range ds.Examples {
		p := clampProb(m.Predict(ex.Features))
		if ex.Label >= 0.5 {
			sum += -math.Log(p)
		} else {
			sum += -math.Log(1 - p)
		}
	}
	return sum / float64(ds.Len())
}

// clampProb keeps a predicted probability out of log(0).
func clampProb(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// synthLinear builds y = w·x + b + noise with x uniform in [0,1]^d.
func synthLinear(n, d int, w []float64, b, noise float64, r *rng.RNG) *data.Dataset {
	ds := &data.Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.Float64()
		}
		y := b
		for j := range x {
			y += w[j] * x[j]
		}
		y += r.Normal(0, noise)
		ds.Append(data.Example{Features: x, Label: y})
	}
	return ds
}

// synthLogistic builds binary labels from a ground-truth logistic model.
func synthLogistic(n, d int, w []float64, b float64, r *rng.RNG) *data.Dataset {
	ds := &data.Dataset{}
	for i := 0; i < n; i++ {
		x := make([]float64, d)
		for j := range x {
			x[j] = r.Float64()*2 - 1
		}
		z := b
		for j := range x {
			z += w[j] * x[j]
		}
		y := 0.0
		if r.Bool(Sigmoid(z)) {
			y = 1
		}
		ds.Append(data.Example{Features: x, Label: y})
	}
	return ds
}

func TestMetricsOnConstantModel(t *testing.T) {
	ds := &data.Dataset{}
	ds.Append(
		data.Example{Features: []float64{0}, Label: 0},
		data.Example{Features: []float64{0}, Label: 1},
		data.Example{Features: []float64{0}, Label: 1},
		data.Example{Features: []float64{0}, Label: 1},
	)
	m := ConstantModel{Value: 1}
	if got := Accuracy(m, ds); got != 0.75 {
		t.Errorf("Accuracy = %v, want 0.75", got)
	}
	if got := MSE(m, ds); got != 0.25 {
		t.Errorf("MSE = %v, want 0.25", got)
	}
	if got := LogLoss(m, ds); math.IsInf(got, 0) || math.IsNaN(got) {
		t.Errorf("LogLoss = %v, want finite (clamping)", got)
	}
	empty := &data.Dataset{}
	if MSE(m, empty) != 0 || Accuracy(m, empty) != 0 || LogLoss(m, empty) != 0 {
		t.Error("metrics on empty data should be 0")
	}
}

func TestNaiveModels(t *testing.T) {
	ds := &data.Dataset{}
	ds.Append(
		data.Example{Features: []float64{0}, Label: 1},
		data.Example{Features: []float64{0}, Label: 3},
	)
	if m := NaiveMeanModel(ds); m.Value != 2 {
		t.Errorf("NaiveMean = %v", m.Value)
	}
	bin := &data.Dataset{}
	bin.Append(
		data.Example{Features: []float64{0}, Label: 0},
		data.Example{Features: []float64{0}, Label: 0},
		data.Example{Features: []float64{0}, Label: 1},
	)
	if m := NaiveMajorityModel(bin); m.Value != 0 {
		t.Errorf("NaiveMajority = %v, want 0", m.Value)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %v", got)
	}
	if got := Sigmoid(100); got < 0.999 {
		t.Errorf("Sigmoid(100) = %v", got)
	}
	if got := Sigmoid(-100); got > 0.001 {
		t.Errorf("Sigmoid(-100) = %v", got)
	}
	// Symmetry σ(-z) = 1 - σ(z).
	for _, z := range []float64{0.1, 1, 5, 20} {
		if math.Abs(Sigmoid(-z)-(1-Sigmoid(z))) > 1e-12 {
			t.Errorf("sigmoid asymmetric at %v", z)
		}
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	r := rng.New(7)
	rows := make([][]float64, 64)
	for i := range rows {
		x := make([]float64, 4)
		for j := range x {
			x[j] = r.Float64()*2 - 1
		}
		rows[i] = x
	}
	logit := NewGLM(BinaryClassification, 4)
	sgdlin := NewGLM(Regression, 4)
	for i := range logit.Params() {
		logit.Params()[i] = r.Normal(0, 1)
		sgdlin.Params()[i] = r.Normal(0, 1)
	}
	models := map[string]Model{
		"linear":   &LinearModel{Weights: []float64{1, -2, 0.5, 3}, Bias: 0.25},
		"constant": ConstantModel{Value: 1.5},
		"logistic": logit,
		"sgd-lin":  sgdlin,
		"mlp-reg":  NewMLP(Regression, 4, []int{8, 4}, r),
		"mlp-clf":  NewMLP(BinaryClassification, 4, []int{6}, r),
	}
	for name, m := range models {
		out := make([]float64, len(rows))
		PredictBatch(m, rows, out)
		for i, x := range rows {
			if want := m.Predict(x); math.Abs(out[i]-want) > 1e-12 {
				t.Errorf("%s row %d: batch %v != single %v", name, i, out[i], want)
			}
		}
	}
}

func TestPredictBatchFallbackAndValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	PredictBatch(ConstantModel{Value: 2}, [][]float64{{1}, {2}}, make([]float64, 1))
}

func TestTrainRidgeRecoversWeights(t *testing.T) {
	r := rng.New(1)
	w := []float64{2, -1, 0.5}
	ds := synthLinear(5000, 3, w, 0.3, 0.01, r)
	m := TrainRidge(ds, RidgeConfig{Lambda: 1e-6})
	for i := range w {
		if math.Abs(m.Weights[i]-w[i]) > 0.02 {
			t.Errorf("weight %d = %v, want %v", i, m.Weights[i], w[i])
		}
	}
	if math.Abs(m.Bias-0.3) > 0.02 {
		t.Errorf("bias = %v, want 0.3", m.Bias)
	}
	if mse := MSE(m, ds); mse > 0.001 {
		t.Errorf("train MSE = %v", mse)
	}
}

func TestRidgeRegularizationShrinks(t *testing.T) {
	r := rng.New(2)
	ds := synthLinear(200, 2, []float64{5, 5}, 0, 0.1, r)
	loose := TrainRidge(ds, RidgeConfig{Lambda: 0})
	tight := TrainRidge(ds, RidgeConfig{Lambda: 1e4})
	looseNorm := math.Hypot(loose.Weights[0], loose.Weights[1])
	tightNorm := math.Hypot(tight.Weights[0], tight.Weights[1])
	if tightNorm >= looseNorm {
		t.Errorf("heavy ridge norm %v not below light ridge norm %v", tightNorm, looseNorm)
	}
}

func TestAdaSSPApproachesNonPrivateWithData(t *testing.T) {
	r := rng.New(3)
	w := []float64{0.4, -0.3}
	cfg := AdaSSPConfig{
		Budget:       privacy.MustBudget(1.0, 1e-6),
		Rho:          0.1,
		FeatureBound: 2,
		LabelBound:   1,
	}
	small := synthLinear(500, 2, w, 0.1, 0.05, r)
	large := synthLinear(100000, 2, w, 0.1, 0.05, r)
	holdout := synthLinear(5000, 2, w, 0.1, 0.05, r)

	mseSmall := MSE(TrainAdaSSP(small, cfg, rng.New(10)), holdout)
	mseLarge := MSE(TrainAdaSSP(large, cfg, rng.New(11)), holdout)
	mseNP := MSE(TrainRidge(large, RidgeConfig{Lambda: 1e-6}), holdout)
	if mseLarge > mseSmall {
		t.Errorf("more data should not hurt AdaSSP: %v > %v", mseLarge, mseSmall)
	}
	if mseLarge > mseNP*1.5+0.001 {
		t.Errorf("AdaSSP at 100K samples MSE %v far from NP %v", mseLarge, mseNP)
	}
}

func TestAdaSSPSmallerEpsilonNoisier(t *testing.T) {
	r := rng.New(4)
	w := []float64{0.4, -0.3}
	ds := synthLinear(2000, 2, w, 0.1, 0.05, r)
	holdout := synthLinear(5000, 2, w, 0.1, 0.05, r)
	avgMSE := func(eps float64) float64 {
		total := 0.0
		const reps = 15
		for i := 0; i < reps; i++ {
			cfg := AdaSSPConfig{
				Budget:       privacy.MustBudget(eps, 1e-6),
				Rho:          0.1,
				FeatureBound: 2,
				LabelBound:   1,
			}
			total += MSE(TrainAdaSSP(ds, cfg, rng.New(uint64(100+i))), holdout)
		}
		return total / reps
	}
	if loose, tight := avgMSE(5.0), avgMSE(0.05); tight <= loose {
		t.Errorf("ε=0.05 MSE %v should exceed ε=5 MSE %v", tight, loose)
	}
}

func TestAdaSSPValidation(t *testing.T) {
	ds := synthLinear(10, 1, []float64{1}, 0, 0, rng.New(5))
	bad := []AdaSSPConfig{
		{Budget: privacy.MustBudget(0, 1e-6), Rho: 0.1, FeatureBound: 1, LabelBound: 1},
		{Budget: privacy.MustBudget(1, 0), Rho: 0.1, FeatureBound: 1, LabelBound: 1},
		{Budget: privacy.MustBudget(1, 1e-6), Rho: 0, FeatureBound: 1, LabelBound: 1},
		{Budget: privacy.MustBudget(1, 1e-6), Rho: 0.1, FeatureBound: 0, LabelBound: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %d should panic", i)
				}
			}()
			TrainAdaSSP(ds, cfg, rng.New(0))
		}()
	}
}
