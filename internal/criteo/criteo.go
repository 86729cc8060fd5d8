// Package criteo implements a synthetic stand-in for the Criteo display
// advertising dataset the paper evaluates on (§5, [1]): 13 numeric ("I")
// features and 26 categorical ("C") features with power-law value
// distributions, and a binary click label from a logistic ground truth.
//
// The generator is calibrated to the paper's anchors: base click-through
// rate ≈ 25.7% (so the majority-class baseline scores ≈ 74.3% accuracy)
// and a Bayes-optimal accuracy ≈ 0.78-0.79, leaving the paper's
// achievable-target range [0.74, 0.78] meaningful. Categorical effects
// are deterministic per (feature, value) so the task is learnable across
// independently generated train/test splits.
package criteo

import (
	"math"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// Schema constants.
const (
	// NumNumeric is the count of numeric features (Criteo's I1-I13).
	NumNumeric = 13
	// NumCategorical is the count of categorical features (C1-C26).
	NumCategorical = 26
	// TopValues is how many frequent values of each categorical get
	// their own one-hot column; the tail shares an "other" column.
	TopValues = 5
	// FeatureDim is the encoded dimensionality: 13 numeric + 26
	// categoricals × (TopValues + 1 other).
	FeatureDim = NumNumeric + NumCategorical*(TopValues+1)
)

// Ground-truth logit calibration: logitBias shifts the marginal click
// rate toward the paper's 25.7% CTR; logitScale sets how much signal the
// features carry, which fixes the Bayes accuracy near the paper's best
// observed ≈ 0.78-0.79 (against the 0.743 majority baseline).
const (
	logitScale = 4.2
	logitBias  = -0.10
)

// cardinalities of the categorical features (power-law-ish spread, from
// tens to tens of thousands as in real Criteo).
func cardinality(c int) int {
	switch c % 5 {
	case 0:
		return 20
	case 1:
		return 100
	case 2:
		return 500
	case 3:
		return 5000
	default:
		return 20000
	}
}

// Impression is one raw ad impression.
type Impression struct {
	Numeric     [NumNumeric]float64
	Categorical [NumCategorical]int
	Click       bool
	Time        int64
	UserID      int64
}

// Config controls generation.
type Config struct {
	// Users is the number of distinct users (default 50000).
	Users int
}

// Generator produces a deterministic synthetic impression stream.
type Generator struct {
	cfg     Config
	r       *rng.RNG
	zipfs   []func() int
	numW    [NumNumeric]float64
	catW    [NumCategorical][TopValues + 1]float64 // effect per (categorical, value)
	effectN float64                                // normalizer keeping logits in range
}

// NewGenerator returns a calibrated generator.
func NewGenerator(cfg Config, seed uint64) *Generator {
	if cfg.Users <= 0 {
		cfg.Users = 50000
	}
	g := &Generator{cfg: cfg, r: rng.New(seed)}
	// Ground-truth parameters come from a *fixed* seed so that any two
	// generators produce the same learnable task; only the sampling
	// noise differs by seed.
	truth := rng.New(0xC817E0)
	g.zipfs = make([]func() int, NumCategorical)
	// A sampler is its table plus the generator's RNG, so categoricals
	// of one cardinality share it: five tables, not twenty-six.
	byCard := make(map[int]func() int)
	for c := 0; c < NumCategorical; c++ {
		card := cardinality(c)
		if byCard[card] == nil {
			byCard[card] = g.r.Zipf(card, 1.15)
		}
		g.zipfs[c] = byCard[card]
		// Only the frequent values carry signal; the long tail is
		// noise (mirrors how real Criteo models behave).
		for v := 0; v <= TopValues; v++ {
			g.catW[c][v] = truth.Normal(0, 0.55)
		}
	}
	for i := 0; i < NumNumeric; i++ {
		g.numW[i] = truth.Normal(0, 0.5)
	}
	g.effectN = math.Sqrt(float64(NumNumeric + NumCategorical))
	return g
}

// logit returns the ground-truth click logit for an impression.
func (g *Generator) logit(imp *Impression) float64 {
	z := 0.0
	for i := 0; i < NumNumeric; i++ {
		z += g.numW[i] * (imp.Numeric[i] - 0.5) * 2
	}
	for c := 0; c < NumCategorical; c++ {
		v := imp.Categorical[c]
		if v > TopValues {
			v = TopValues // tail shares the "other" effect
		}
		z += g.catW[c][v]
	}
	// Scale to a moderate signal and shift to hit CTR ≈ 0.257.
	return z*logitScale/g.effectN + logitBias
}

// draw writes impression i of an n-impression stream spread uniformly
// over [startTime, startTime+span) into imp, every field of it; called
// for i = 0, 1, … it makes the stream's draws in order.
func (g *Generator) draw(imp *Impression, i, n int, startTime, span int64) {
	imp.Time = startTime + int64(float64(max(span, 1))*float64(i)/float64(n))
	imp.UserID = int64(g.r.IntN(g.cfg.Users))
	for j := 0; j < NumNumeric; j++ {
		// Lognormal-ish counts squashed into [0, 1].
		raw := g.r.LogNormal(0, 1)
		imp.Numeric[j] = privacy.Clip(math.Log1p(raw)/3, 0, 1)
	}
	for c := 0; c < NumCategorical; c++ {
		imp.Categorical[c] = g.zipfs[c]()
	}
	imp.Click = g.r.Bool(ml.Sigmoid(g.logit(imp)))
}

// Pipeline generates n impressions over [startTime, startTime+span) and
// encodes them: numeric features pass through; each categorical becomes
// TopValues+1 one-hot columns (frequent values get their own column, the
// tail shares "other"). Labels are 1 for clicks. It is one pass: each
// impression is drawn into one reused Impression and encoded into a row
// carved as it is written (data.Rows), so each row has cap == len and no
// other result shares its storage.
func Pipeline(n int, startTime, span int64, seed uint64) *data.Dataset {
	gen := NewGenerator(Config{}, seed)
	ds := &data.Dataset{Examples: make([]data.Example, n)}
	rows := data.NewRows(n, FeatureDim)
	var imp Impression
	for i := range ds.Examples {
		gen.draw(&imp, i, n, startTime, span)
		ex := &ds.Examples[i]
		ex.Features, ex.Time, ex.UserID = rows.Next(), imp.Time, imp.UserID
		copy(ex.Features, imp.Numeric[:])
		base := NumNumeric
		for _, v := range imp.Categorical {
			ex.Features[base+min(v, TopValues)] = 1
			base += TopValues + 1
		}
		if imp.Click {
			ex.Label = 1
		}
	}
	return ds
}
