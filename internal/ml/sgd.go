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

// SGDConfig configures (DP-)SGD training. With DP=false it is plain
// minibatch SGD with momentum; with DP=true it is DP-SGD (Abadi et al.
// 2016): Poisson-sampled batches, per-example gradient clipping to
// ClipNorm, and Gaussian noise with a multiplier calibrated from Budget
// via the RDP accountant — the same recipe as TensorFlow Privacy, which
// the paper's NN/LG pipelines use (Table 1).
type SGDConfig struct {
	LearningRate float64
	Momentum     float64
	Epochs       int
	BatchSize    int

	DP       bool
	ClipNorm float64        // per-example gradient L2 bound (DP only)
	Budget   privacy.Budget // total training budget (DP only)
}

// validate panics on nonsensical configurations.
func (cfg SGDConfig) validate() {
	if cfg.LearningRate <= 0 {
		panic("ml: SGD requires LearningRate > 0")
	}
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		panic("ml: SGD requires Epochs, BatchSize > 0")
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		panic("ml: SGD momentum must be in [0,1)")
	}
	if cfg.DP {
		if cfg.ClipNorm <= 0 {
			panic("ml: DP-SGD requires ClipNorm > 0")
		}
		if cfg.Budget.Epsilon <= 0 || cfg.Budget.Delta <= 0 {
			panic(fmt.Sprintf("ml: DP-SGD requires ε, δ > 0, got %v", cfg.Budget))
		}
	}
}

// NoiseMultiplier returns the σ (relative to ClipNorm) that makes the
// whole run satisfy the configured budget for a dataset of size n.
func (cfg SGDConfig) NoiseMultiplier(n int) float64 {
	if !cfg.DP {
		return 0
	}
	plan := privacy.SGDPlan{N: n, BatchSize: cfg.BatchSize, Epochs: cfg.Epochs}
	return privacy.CalibrateSGDNoise(plan, cfg.Budget.Epsilon, cfg.Budget.Delta)
}

// sgdScratch holds the per-training-run work buffers. Experiment sweeps
// invoke TrainSGD once per grid cell (thousands of times for Tab. 2 /
// Fig. 6), so the buffers are pooled instead of reallocated per call;
// contents are (re)initialized on checkout, keeping training
// deterministic.
type sgdScratch struct {
	velocity, grad, batchGrad []float64
}

var sgdScratchPool = sync.Pool{New: func() any { return new(sgdScratch) }}

// getSGDScratch returns buffers of length p: velocity zeroed (momentum
// must start at rest), grad and batchGrad with stale pooled contents —
// Grad fully overwrites grad, and TrainSGD re-zeroes batchGrad at the
// start of every step.
func getSGDScratch(p int) *sgdScratch {
	s := sgdScratchPool.Get().(*sgdScratch)
	if cap(s.velocity) < p {
		s.velocity = make([]float64, p)
		s.grad = make([]float64, p)
		s.batchGrad = make([]float64, p)
	}
	s.velocity = s.velocity[:p]
	s.grad = s.grad[:p]
	s.batchGrad = s.batchGrad[:p]
	clear(s.velocity)
	return s
}

// rankOne is implemented by the linear models (LogisticRegression,
// SGDLinearRegression), whose per-example gradient is a scalar times
// the bias-augmented row: g = coef·[x; 1]. gradCoef returns that scalar
// and ‖x‖² from one pass over x, which is all DP-SGD needs to know
// about g before adding it — see addGrad.
type rankOne interface {
	gradCoef(x []float64, y float64) (coef, sqNorm float64)
}

// dotSqNorm returns w·x and ‖x‖² from one pass over x. The two sums are
// independent chains, so the second rides in the first's latency; w·x
// accumulates in linalg.Dot's order and is bit-identical to it, which
// keeps gradCoef's coefficient the one Grad computes through Predict.
func dotSqNorm(w, x []float64) (dot, sqNorm float64) {
	for i, xi := range x {
		dot += w[i] * xi
		sqNorm += xi * xi
	}
	return dot, sqNorm
}

// addGrad adds one example's gradient to sum, clipped to L2 norm clip
// first when clip > 0 (DP-SGD's per-example sensitivity bound). linear
// is model's rankOne side, nil if it has none.
//
// A general model materializes the gradient in grad, clips it and adds
// it: four passes over the parameter vector. For a rank-one gradient
// g = coef·[x; 1] the norm is ‖g‖ = |coef|·√(‖x‖² + 1), so clipping g
// to the bound is scaling coef by bound/‖g‖ — the same vector, the same
// bound, hence the same sensitivity — and the sum takes one axpy: two
// passes over x, and no gradient buffer.
func addGrad(sum []float64, model GradModel, linear rankOne, ex *data.Example, clip float64, grad []float64) {
	if linear == nil {
		model.Grad(ex.Features, ex.Label, grad)
		if clip > 0 {
			privacy.ClipL2(grad, clip)
		}
		linalg.AXPY(1, grad, sum)
		return
	}
	coef, sqNorm := linear.gradCoef(ex.Features, ex.Label)
	if clip > 0 {
		if norm := math.Abs(coef) * math.Sqrt(sqNorm+1); norm > clip {
			coef *= clip / norm
		}
	}
	// AXPY panics on a row that is not the model's width.
	bias := len(sum) - 1
	linalg.AXPY(coef, ex.Features, sum[:bias])
	sum[bias] += coef
}

// TrainSGD trains the model in place and returns it. The trainer is
// deterministic given the RNG. Per-example gradients go through addGrad:
// linear models take its rank-one path (clipped coefficient, one axpy),
// which leaves plain SGD bit-identical to the Grad loop and moves only
// the low-order bits of DP-SGD's clipped sums; the noise draws, their
// order and NoiseMultiplier are the same on both paths.
func TrainSGD(model GradModel, ds *data.Dataset, cfg SGDConfig, r *rng.RNG) GradModel {
	cfg.validate()
	n := ds.Len()
	if n == 0 {
		return model
	}
	linear, _ := model.(rankOne)
	params := model.Params()
	p := len(params)
	scratch := getSGDScratch(p)
	defer sgdScratchPool.Put(scratch)
	velocity := scratch.velocity
	grad := scratch.grad
	batchGrad := scratch.batchGrad

	sigma := 0.0
	if cfg.DP {
		sigma = cfg.NoiseMultiplier(n)
	}

	stepsPerEpoch := (n + cfg.BatchSize - 1) / cfg.BatchSize
	q := float64(cfg.BatchSize) / float64(n)
	var perm []int

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if !cfg.DP {
			perm = r.Perm(n)
		}
		for step := 0; step < stepsPerEpoch; step++ {
			clear(batchGrad)
			if cfg.DP {
				// Poisson sampling: include each example independently
				// with probability q, matching the RDP analysis. The
				// membership draws are realized by geometric skips —
				// floor(ln U / ln(1-q)) misses between hits — so a step
				// costs O(q·n) RNG draws instead of n Bernoulli draws.
				for i := nextPoisson(r, q, -1); i < n; i = nextPoisson(r, q, i) {
					addGrad(batchGrad, model, linear, &ds.Examples[i], cfg.ClipNorm, grad)
				}
				// Noise the summed gradient; normalize by the
				// *expected* batch size as in Abadi et al.
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
					addGrad(batchGrad, model, linear, &ds.Examples[idx], 0, grad)
				}
				for j := range batchGrad {
					batchGrad[j] /= float64(hi - lo)
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

// nextPoisson returns the index after cur of the next example selected
// by Poisson sampling with rate q, or a value >= n-proof sentinel
// (math.MaxInt32) when the skip runs past any realistic dataset. The
// skip length is geometric: floor(ln U / ln(1-q)) with U uniform in
// (0, 1], which reproduces independent per-example Bernoulli(q)
// membership with one draw per selected example.
func nextPoisson(r *rng.RNG, q float64, cur int) int {
	if q >= 1 {
		return cur + 1 // every example is selected
	}
	u := 1 - r.Float64() // (0, 1]: never take log of zero
	skip := math.Log(u) / math.Log1p(-q)
	if skip >= math.MaxInt32 {
		return math.MaxInt32
	}
	return cur + 1 + int(skip)
}
