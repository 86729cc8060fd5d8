package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/data"
	"repro/internal/linalg"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/validation"
)

// Cell-seed domain tags: each Fig. 7 sub-grid mixes a distinct tag into
// rng.MixSeed so no two panels can ever share a noise stream.
const (
	fig7DomainLRQuality = 1 + iota
	fig7DomainNNQuality
	fig7DomainAcceptTrain
	fig7DomainAcceptProbe
)

// Fig. 7 compares Sage's block composition — one noise draw over the
// combined training set — against query-level accounting, where the
// dataset is partitioned into fixed-size blocks, each block is queried
// with its own DP noise, and the results are aggregated (model averaging
// for training, noisy-sum aggregation for validation). The paper's
// block sizes are 100K/500K/5M on a 37M-sample stream; ours substitute
// 25K/100K (LR) and 200K (NN) on a synthetic stream of at most 1M
// samples (Fig7Options), keeping each block a small share of it.

// Fig7QualityPoint is one training-quality measurement (Fig. 7a/7c).
type Fig7QualityPoint struct {
	Model     string // "LR" or "NN"
	Mode      string // "Block Comp." or "Query Comp. <size>"
	N         int
	MSE       float64
	BlockSize int // 0 for block composition
}

// Fig7AcceptPoint is one validation sample-complexity measurement
// (Fig. 7b/7d).
type Fig7AcceptPoint struct {
	Model     string
	Mode      string
	Target    float64
	Samples   int // MaxStream+1 if never accepted
	Accepted  bool
	BlockSize int
}

// Fig7Options scales the experiment.
type Fig7Options struct {
	// Sizes is the training-size grid (default 10K…1M).
	Sizes []int
	// LRBlockSizes are the query-composition block sizes for the LR
	// (default 25K, 100K — scaled from the paper's 100K/500K).
	LRBlockSizes []int
	// NNBlockSize for the NN panel (default 200K, scaled from 5M).
	NNBlockSize int
	// Targets for the ACCEPT panels (default: LR config targets).
	Targets []float64
	// MaxStream bounds the ACCEPT search (default 1M).
	MaxStream int
	// Holdout evaluation size (default 50K).
	Holdout int
	// SkipNN drops the (expensive) NN panel.
	SkipNN bool
	Seed   uint64
	// Workers bounds the experiment engine's parallelism (<= 0 means
	// runtime.GOMAXPROCS(0)). Output is bit-identical for any value.
	Workers int
}

func (o *Fig7Options) fill() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{10000, 30000, 100000, 300000, 1000000}
	}
	if len(o.LRBlockSizes) == 0 {
		o.LRBlockSizes = []int{25000, 100000}
	}
	if o.NNBlockSize == 0 {
		o.NNBlockSize = 200000
	}
	if len(o.Targets) == 0 {
		o.Targets = Configs()[0].Targets
	}
	if o.MaxStream == 0 {
		o.MaxStream = 1000000
	}
	if o.Holdout == 0 {
		o.Holdout = 50000
	}
	if o.Seed == 0 {
		o.Seed = 4
	}
}

// trainLRBlockwise trains AdaSSP per block and averages the weights —
// the federated-style aggregation the paper describes for query-level
// accounting.
func trainLRBlockwise(ds *data.Dataset, blockSize int, eps, delta float64, r *rng.RNG) ml.Model {
	cfg := ml.AdaSSPConfig{
		Budget:       privacy.Budget{Epsilon: eps, Delta: delta},
		Rho:          0.1,
		FeatureBound: 2.5,
		LabelBound:   1,
	}
	var avg *ml.LinearModel
	count := 0
	for lo := 0; lo < ds.Len(); lo += blockSize {
		hi := lo + blockSize
		if hi > ds.Len() {
			hi = ds.Len()
		}
		if hi-lo < blockSize/2 && count > 0 {
			break // drop a tiny trailing shard
		}
		block := &data.Dataset{Examples: ds.Examples[lo:hi]}
		m := ml.TrainAdaSSP(block, cfg, r)
		if avg == nil {
			avg = &ml.LinearModel{Weights: make([]float64, len(m.Weights))}
		}
		linalg.AXPY(1, m.Weights, avg.Weights)
		avg.Bias += m.Bias
		count++
	}
	if avg == nil {
		return &ml.LinearModel{Weights: make([]float64, ds.FeatureDim())}
	}
	linalg.Scale(1/float64(count), avg.Weights)
	avg.Bias /= float64(count)
	return avg
}

// trainNNBlockwise trains an MLP per block with DP-SGD (same init) and
// averages the parameters.
func trainNNBlockwise(ds *data.Dataset, blockSize int, eps, delta float64, dim int, seed uint64, r *rng.RNG) ml.Model {
	var avg []float64
	var ref *ml.MLP
	count := 0
	for lo := 0; lo < ds.Len(); lo += blockSize {
		hi := lo + blockSize
		if hi > ds.Len() {
			hi = ds.Len()
		}
		if hi-lo < blockSize/2 && count > 0 {
			break
		}
		block := &data.Dataset{Examples: ds.Examples[lo:hi]}
		m := ml.NewMLP(ml.Regression, dim, taxiHidden, rng.New(seed))
		ml.TrainSGD(m, block, ml.SGDConfig{
			LearningRate: 0.01, Momentum: 0.9, Epochs: 3, BatchSize: 1024,
			DP: true, ClipNorm: 1,
			Budget: privacy.Budget{Epsilon: eps, Delta: delta},
		}, r)
		if avg == nil {
			avg = make([]float64, len(m.Params()))
			ref = m
		}
		linalg.AXPY(1, m.Params(), avg)
		count++
	}
	if ref == nil {
		return ml.NewMLP(ml.Regression, dim, taxiHidden, rng.New(seed))
	}
	linalg.Scale(1/float64(count), avg)
	copy(ref.Params(), avg)
	return ref
}

// Fig7Quality regenerates the training-quality panels (7a, 7c). The
// (size × composition-mode) grid is flattened and run on Workers
// goroutines (parallel.Map); cell seeds
// mix the cell's own coordinates through splitmix64, so neighboring
// cells get decorrelated noise streams and the output is bit-identical
// for any Workers value and any cross-experiment interleaving.
func Fig7Quality(o Fig7Options) []Fig7QualityPoint {
	o.fill()
	maxN := o.Sizes[len(o.Sizes)-1]
	var stream, holdout *data.Dataset
	parallel.ForEach(o.Workers, 2, func(i int) {
		if i == 0 {
			stream = Dataset(TaxiRegression, maxN, o.Seed)
		} else {
			holdout = Dataset(TaxiRegression, o.Holdout, o.Seed+1)
		}
	})
	const eps, delta = 1.0, 1e-6

	// One cell per point, in output order: the LR panel (block + each
	// query block size, per training size), then the NN panel.
	type cell struct {
		model string
		n, bs int // bs = 0 for block composition
	}
	var cells []cell
	for _, n := range o.Sizes {
		cells = append(cells, cell{model: "LR", n: n})
		for _, bs := range o.LRBlockSizes {
			cells = append(cells, cell{model: "LR", n: n, bs: bs})
		}
	}
	if !o.SkipNN {
		for _, n := range o.Sizes {
			cells = append(cells, cell{model: "NN", n: n})
			cells = append(cells, cell{model: "NN", n: n, bs: o.NNBlockSize})
		}
	}
	return parallel.Map(o.Workers, len(cells), func(i int) Fig7QualityPoint {
		c := cells[i]
		train := stream.Head(c.n)
		if c.model == "LR" {
			r := rng.New(rng.MixSeed(o.Seed, fig7DomainLRQuality, uint64(c.n), uint64(c.bs)))
			var m ml.Model
			if c.bs == 0 {
				// Block composition: one AdaSSP run over the whole set.
				m = ml.TrainAdaSSP(train, ml.AdaSSPConfig{
					Budget: privacy.Budget{Epsilon: eps, Delta: delta},
					Rho:    0.1, FeatureBound: 2.5, LabelBound: 1,
				}, r)
				return Fig7QualityPoint{
					Model: "LR", Mode: "Block Comp.", N: c.n, MSE: ml.MSE(m, holdout),
				}
			}
			qm := trainLRBlockwise(train, c.bs, eps, delta, r)
			return Fig7QualityPoint{
				Model: "LR", Mode: fmt.Sprintf("Query Comp. %s", human(c.bs)),
				N: c.n, MSE: ml.MSE(qm, holdout), BlockSize: c.bs,
			}
		}
		// NN panel: same init seed across cells (the paper compares
		// aggregation, not initialization), per-cell training streams.
		r := rng.New(rng.MixSeed(o.Seed, fig7DomainNNQuality, uint64(c.n), uint64(c.bs)))
		if c.bs == 0 {
			nn := ml.NewMLP(ml.Regression, stream.FeatureDim(), taxiHidden, rng.New(o.Seed+7))
			ml.TrainSGD(nn, train, ml.SGDConfig{
				LearningRate: 0.01, Momentum: 0.9, Epochs: 3, BatchSize: 1024,
				DP: true, ClipNorm: 1,
				Budget: privacy.Budget{Epsilon: eps, Delta: delta},
			}, r)
			return Fig7QualityPoint{
				Model: "NN", Mode: "Block Comp.", N: c.n, MSE: ml.MSE(nn, holdout),
			}
		}
		qm := trainNNBlockwise(train, c.bs, eps, delta, stream.FeatureDim(), o.Seed+7, r)
		return Fig7QualityPoint{
			Model: "NN", Mode: fmt.Sprintf("Query Comp. %s", human(c.bs)),
			N: c.n, MSE: ml.MSE(qm, holdout), BlockSize: c.bs,
		}
	})
}

// queryCompAccept reports whether a query-composition SLAed validation
// at the given target would ACCEPT with n test samples split into
// blocks of size bs: every block contributes its own noisy loss sum and
// count, so the DP corrections and the noise all scale with the number
// of blocks (union bound over per-block tail events).
func queryCompAccept(trueLoss float64, n, bs int, target, epsilon, eta float64, r *rng.RNG) bool {
	nBlocks := (n + bs - 1) / bs
	if nBlocks < 1 {
		nBlocks = 1
	}
	countMech := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: epsilon / 2}
	sumMech := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: epsilon / 2}
	etaShare := eta / 3 / float64(nBlocks) // union bound across blocks
	noisyN, noisySum := 0.0, 0.0
	for b := 0; b < nBlocks; b++ {
		sz := bs
		if b == nBlocks-1 {
			sz = n - bs*(nBlocks-1)
		}
		noisyN += countMech.Release(float64(sz), r)
		noisySum += sumMech.Release(trueLoss*float64(sz), r)
	}
	noisyN -= float64(nBlocks) * countMech.TailBound(etaShare)
	noisySum += float64(nBlocks) * sumMech.TailBound(etaShare)
	if noisyN <= 1 {
		return false
	}
	mean := noisySum / noisyN
	if mean < 0 {
		mean = 0
	}
	return validation.BernsteinUpperBound(mean, noisyN, eta/3, 1) <= target
}

// Fig7Accept regenerates the validation sample-complexity panels
// (7b, 7d): the test-set size required to ACCEPT at each target, for
// block composition (one noise draw) vs query composition (per-block
// noise). The model's true loss is measured once per training size from
// the block-composition LR of Fig7Quality.
func Fig7Accept(o Fig7Options) []Fig7AcceptPoint {
	o.fill()
	const eps, eta = 0.5, 0.05
	var stream, holdout *data.Dataset
	parallel.ForEach(o.Workers, 2, func(i int) {
		if i == 0 {
			stream = Dataset(TaxiRegression, o.MaxStream, o.Seed+5)
		} else {
			holdout = Dataset(TaxiRegression, o.Holdout, o.Seed+6)
		}
	})
	// Train the best affordable LR once on the full stream to get the
	// loss profile being validated.
	m := ml.TrainAdaSSP(stream, ml.AdaSSPConfig{
		Budget: privacy.Budget{Epsilon: 0.5, Delta: 1e-6},
		Rho:    0.1, FeatureBound: 2.5, LabelBound: 1,
	}, rng.New(rng.MixSeed(o.Seed, fig7DomainAcceptTrain)))
	trueLoss := ml.MSE(m, holdout)

	modes := []struct {
		name string
		bs   int // 0 = combined (block composition)
	}{{"Block Comp.", 0}}
	for _, bs := range o.LRBlockSizes {
		modes = append(modes, struct {
			name string
			bs   int
		}{fmt.Sprintf("Query Comp. %s", human(bs)), bs})
	}

	// One cell per (target, composition mode); each cell's doubling
	// search draws per-probe noise seeded by its own coordinates.
	type cell struct {
		target float64
		mode   int
	}
	var cells []cell
	for _, target := range o.Targets {
		for mi := range modes {
			cells = append(cells, cell{target: target, mode: mi})
		}
	}
	return parallel.Map(o.Workers, len(cells), func(i int) Fig7AcceptPoint {
		c := cells[i]
		mode := modes[c.mode]
		accepted := false
		samples := o.MaxStream + 1
		for n := 10000; n <= o.MaxStream; n *= 2 {
			r := rng.New(rng.MixSeed(o.Seed, fig7DomainAcceptProbe,
				math.Float64bits(c.target), uint64(n), uint64(mode.bs)))
			bs := mode.bs
			if bs == 0 {
				bs = n // block composition: the test set is one block
			}
			if queryCompAccept(trueLoss, n, bs, c.target, eps, eta, r) {
				accepted = true
				samples = n
				break
			}
		}
		return Fig7AcceptPoint{
			Model: "LR", Mode: mode.name, Target: c.target,
			Samples: samples, Accepted: accepted, BlockSize: mode.bs,
		}
	})
}

// human formats sample counts like the paper's axis labels.
func human(n int) string {
	switch {
	case n >= 1000000 && n%1000000 == 0:
		return fmt.Sprintf("%dM", n/1000000)
	case n >= 1000:
		return fmt.Sprintf("%dK", int(math.Round(float64(n)/1000)))
	default:
		return fmt.Sprintf("%d", n)
	}
}

// PrintFig7 renders both panel groups.
func PrintFig7(w io.Writer, quality []Fig7QualityPoint, accepts []Fig7AcceptPoint) {
	fmt.Fprintln(w, "Fig. 7. Block-level vs query-level accounting")
	last := ""
	for _, p := range quality {
		panel := "Taxi " + p.Model + " MSE"
		if panel != last {
			fmt.Fprintf(w, "-- %s --\n", panel)
			last = panel
		}
		fmt.Fprintf(w, "%-22s n=%-8d mse=%.6f\n", p.Mode, p.N, p.MSE)
	}
	fmt.Fprintln(w, "-- Taxi LR ACCEPT sample size --")
	for _, p := range accepts {
		n := fmt.Sprintf("%d", p.Samples)
		if !p.Accepted {
			n = "∞"
		}
		fmt.Fprintf(w, "%-22s target=%-8.4g samples=%s\n", p.Mode, p.Target, n)
	}
}
