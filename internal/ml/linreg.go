package ml

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// LinearModel is an affine predictor w·x + b. The bias is modelled as an
// extra constant feature internally.
type LinearModel struct {
	Weights []float64 // length = feature dim
	Bias    float64
}

// Predict implements Model.
func (m *LinearModel) Predict(x []float64) float64 {
	return linalg.Dot(m.Weights, x) + m.Bias
}

// PredictBatch implements Model: the weight slice and bias are
// loaded once for the whole batch instead of per interface call.
func (m *LinearModel) PredictBatch(rows [][]float64, out []float64) {
	w, b := m.Weights, m.Bias
	for i, x := range rows {
		out[i] = linalg.Dot(w, x) + b
	}
}

// RidgeConfig configures non-private closed-form ridge regression, the
// "LR NP" baseline of Fig. 5.
type RidgeConfig struct {
	Lambda float64 // L2 regularization strength
}

// linearWork is one linear fit's scratch: the moment accumulator,
// SolveSPD's factor and MinEigen's shifted matrix, (d+1)² floats each. A
// fit keeps none of it — the model gets weights of its own — so
// TrainRidge and TrainAdaSSP take it from linearPool and put it back,
// and a daemon that fits every tick allocates no d×d matrix once warm.
type linearWork struct {
	acc             linalg.Moments
	factor, shifted linalg.Matrix
}

var linearPool = sync.Pool{New: func() any { return new(linearWork) }}

// moments resets acc and streams ds into it once, in storage order, for
// the normal-equation sums XᵀX and Xᵀy of its rows, each augmented with
// a constant 1 for the bias term; acc owns what it returns. The
// augmented row is multiplied by fscale and the label by lscale; with
// clip set the row is then clipped to the unit L2 ball and
// the label to [-1, 1], the bounds AdaSSP's sensitivities rest on — on
// the row's gathered non-zeros, with the values a dense scale and clip
// give bit for bit. This is the only Gram loop the linear trainers have,
// and it is one serial walk on purpose: cut into chunks summed on both
// cores it was a third faster while the second core was free and no
// faster when it was not, so the daemon's tick rate read anywhere from
// 78 to 110 a second depending on the neighbours (ROADMAP, "Decided
// against": intra-tick data parallelism). A row whose width is not the
// dataset's panics.
func moments(acc *linalg.Moments, ds *data.Dataset, fscale, lscale float64, clip bool) (xtx *linalg.Matrix, xty []float64) {
	d := ds.FeatureDim()
	acc.Reset(d + 1)
	for i, ex := range ds.Examples {
		if len(ex.Features) != d {
			panic(fmt.Sprintf("ml: row %d has %d features, the dataset's first has %d", i, len(ex.Features), d))
		}
		val := acc.Gather(ex.Features, 1)
		sq := 0.0
		for k, v := range val {
			v *= fscale
			val[k] = v
			sq += v * v
		}
		y := ex.Label * lscale
		if clip {
			if norm := math.Sqrt(sq); norm > 1 {
				linalg.Scale(1/norm, val)
			}
			y = privacy.Clip(y, -1, 1)
		}
		acc.Update(y)
	}
	return acc.Sums()
}

// TrainRidge solves (XᵀX + λI)w = Xᵀy exactly. Features are augmented
// with a constant 1 for the bias term.
func TrainRidge(ds *data.Dataset, cfg RidgeConfig) *LinearModel {
	d := ds.FeatureDim()
	ws := linearPool.Get().(*linearWork)
	defer linearPool.Put(ws)
	xtx, xty := moments(&ws.acc, ds, 1, 1, false)
	xtx.AddDiagonal(cfg.Lambda + 1e-9)
	w := linalg.SolveSPD(xtx, xty, &ws.factor)
	return &LinearModel{Weights: w[:d], Bias: w[d]}
}

// AdaSSPConfig configures the AdaSSP differentially private linear
// regression of Wang (2018), the paper's "LR" pipeline (Table 1: AdaSSP
// with ρ = 0.1).
type AdaSSPConfig struct {
	Budget privacy.Budget
	// Rho is the failure probability of the adaptive regularization
	// bound (paper's ρ = 0.1).
	Rho float64
	// FeatureBound is an upper bound on the L2 norm of any feature
	// vector (after the internal 1-augmentation). Vectors beyond the
	// bound are clipped — this is what bounds the query sensitivity.
	FeatureBound float64
	// LabelBound is an upper bound on |label|; labels are clipped to it.
	LabelBound float64
}

// TrainAdaSSP trains a DP linear regression with the AdaSSP mechanism:
// it privately releases λ_min(XᵀX), XᵀX and Xᵀy with a third of the
// budget each (Gaussian mechanism), picks an adaptive ridge parameter
// from the noisy λ_min, and solves the perturbed normal equations.
func TrainAdaSSP(ds *data.Dataset, cfg AdaSSPConfig, r *rng.RNG) *LinearModel {
	if cfg.Budget.Epsilon <= 0 || cfg.Budget.Delta <= 0 {
		panic("ml: AdaSSP requires ε > 0 and δ > 0")
	}
	if cfg.Rho <= 0 || cfg.Rho >= 1 {
		panic("ml: AdaSSP requires ρ in (0,1)")
	}
	if cfg.FeatureBound <= 0 || cfg.LabelBound <= 0 {
		panic("ml: AdaSSP requires positive bounds")
	}
	d := ds.FeatureDim()
	aug := d + 1
	// Scale features and labels into unit balls so sensitivities are 1.
	fscale := 1 / cfg.FeatureBound
	lscale := 1 / cfg.LabelBound

	// The constant feature is scaled too, to stay in the ball.
	ws := linearPool.Get().(*linearWork)
	defer linearPool.Put(ws)
	xtx, xty := moments(&ws.acc, ds, fscale, lscale, true)

	eps3 := cfg.Budget.Epsilon / 3
	logTerm := math.Log(6 / cfg.Budget.Delta)
	sigma := math.Sqrt(logTerm) / eps3 // Gaussian scale for sensitivity-1 queries

	// (1) Noisy minimum eigenvalue, shifted down to be a lower bound
	// with high probability.
	lambdaMin := linalg.MinEigen(xtx, 200, &ws.shifted)
	lambdaMinDP := lambdaMin + r.Normal(0, sigma) - logTerm/eps3
	if lambdaMinDP < 0 {
		lambdaMinDP = 0
	}

	// (2) Adaptive ridge: enough regularization to make the noisy Gram
	// matrix comfortably invertible, but no more than needed.
	lambda := math.Sqrt(float64(aug)*logTerm*math.Log(2*float64(aug*aug)/cfg.Rho))/eps3 - lambdaMinDP
	if lambda < 0 {
		lambda = 0
	}

	// (3) Noisy sufficient statistics. The Gram noise matrix must be
	// symmetric: draw the upper triangle and mirror.
	for i := 0; i < aug; i++ {
		for j := i; j < aug; j++ {
			n := r.Normal(0, sigma)
			xtx.Add(i, j, n)
			if i != j {
				xtx.Add(j, i, n)
			}
		}
	}
	for i := range xty {
		xty[i] += r.Normal(0, sigma)
	}

	xtx.AddDiagonal(lambda + 1e-9)
	w := linalg.SolveSPD(xtx, xty, &ws.factor)

	// Undo the scaling: prediction = (w_scaled · x·fscale + b_scaled·fscale)/lscale.
	weights := make([]float64, d)
	for i := range weights {
		weights[i] = w[i] * fscale / lscale
	}
	bias := w[d] * fscale / lscale
	return &LinearModel{Weights: weights, Bias: bias}
}
