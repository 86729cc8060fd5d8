package ml

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/data"
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
// deterministic. The per-example gradient needs none: each model adds
// its own into batchGrad.
type sgdScratch struct {
	velocity, batchGrad []float64
}

var sgdScratchPool = sync.Pool{New: func() any { return new(sgdScratch) }}

// getSGDScratch returns buffers of length p: velocity zeroed (momentum
// must start at rest), batchGrad with stale pooled contents — TrainSGD
// re-zeroes it at the start of every step.
func getSGDScratch(p int) *sgdScratch {
	s := sgdScratchPool.Get().(*sgdScratch)
	if cap(s.velocity) < p {
		s.velocity = make([]float64, p)
		s.batchGrad = make([]float64, p)
	}
	s.velocity = s.velocity[:p]
	s.batchGrad = s.batchGrad[:p]
	clear(s.velocity)
	return s
}

// TrainSGD trains the model in place and returns it. The trainer is
// deterministic given the RNG. Each sampled example is one call to the
// model's addGrad, with the clip bound under DP and 0 otherwise. What a
// model adds is the dense per-example gradient, clipped as a whole
// vector, to the bit; only a linear model's clipped coefficient may move
// the low-order bits of a DP sum. The noise draws, their order and
// NoiseMultiplier do not depend on the model.
func TrainSGD(model GradModel, ds *data.Dataset, cfg SGDConfig, r *rng.RNG) GradModel {
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
					model.addGrad(batchGrad, ds.Examples[i].Features, ds.Examples[i].Label, cfg.ClipNorm)
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
					model.addGrad(batchGrad, ds.Examples[idx].Features, ds.Examples[idx].Label, 0)
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
