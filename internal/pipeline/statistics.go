package pipeline

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/validation"
)

// StatisticsPipeline is the statistics counterpart of the model
// Training Pipeline: Table 1's "Avg.Speed x3" and "Counts x26" rows.
// It releases a DP sum-based statistic (per-key averages or normalized
// histograms) and validates the release's absolute error against a
// target with the Appendix B.3 SLAed error validator. Unlike model
// pipelines there is no train/test split and no REJECT: more data
// always reaches the target eventually.
type StatisticsPipeline struct {
	// Name identifies the pipeline ("taxi-avg-speed-hour", ...).
	Name string
	// Kind selects the statistic.
	Kind StatKind
	// Key extracts the group key from an example (for group-by kinds);
	// must map into [0, NumKeys).
	Key func(data.Example) int
	// Value extracts the value to aggregate (for mean kinds).
	Value func(data.Example) float64
	// NumKeys is the number of groups/buckets.
	NumKeys int
	// ValueRange bounds |Value| (clipped); for histograms the bound is
	// 1 (frequencies).
	ValueRange float64
	// Target is the maximum tolerated absolute error (τ_err).
	Target float64
	// Mode and Eta configure the SLAed error validator.
	Mode validation.Mode
	Eta  float64
}

// StatKind selects the released statistic.
type StatKind int

const (
	// GroupMean releases a DP mean per key (Avg.Speed pipelines).
	GroupMean StatKind = iota
	// Frequencies releases a DP normalized histogram over keys
	// (Criteo Counts pipelines).
	Frequencies
)

// StatResult is a statistics release.
type StatResult struct {
	Decision validation.Decision
	// Values is the per-key DP release (means or frequencies).
	Values []float64
	// Spent is the privacy budget consumed.
	Spent privacy.Budget
	// MinGroupSize is the smallest (noisy) per-key sample count, the
	// quantity that gates the error SLA.
	MinGroupSize float64
}

// Run releases the statistic from ds under budget. Half the ε releases
// the statistic; half runs the SLAed validation (Appendix B.3 splits
// the same way). RETRY means the window is too small for the target.
func (p *StatisticsPipeline) Run(ds *data.Dataset, budget privacy.Budget, r *rng.RNG) (StatResult, error) {
	if p.Key == nil || p.NumKeys <= 0 {
		return StatResult{}, fmt.Errorf("pipeline %q: missing Key or NumKeys", p.Name)
	}
	if p.Kind == GroupMean && (p.Value == nil || p.ValueRange <= 0) {
		return StatResult{}, fmt.Errorf("pipeline %q: group mean needs Value and ValueRange", p.Name)
	}
	if err := budget.Validate(); err != nil {
		return StatResult{}, err
	}
	eta := p.Eta
	if eta == 0 {
		eta = 0.05
	}
	half := budget.Epsilon / 2

	keys := make([]int, ds.Len())
	values := make([]float64, ds.Len())
	counts := make([]int, p.NumKeys)
	for i, ex := range ds.Examples {
		k := p.Key(ex)
		keys[i] = k
		if k >= 0 && k < p.NumKeys {
			counts[k]++
		}
		if p.Value != nil {
			values[i] = p.Value(ex)
		}
	}

	var out StatResult
	bound := p.ValueRange
	switch p.Kind {
	case GroupMean:
		out.Values = stats.DPGroupByMean(keys, values, p.NumKeys, half, p.ValueRange, r)
	default:
		out.Values = stats.NormalizedHistogram(keys, p.NumKeys, half, r)
		bound = 1
	}
	out.Spent = privacy.Budget{Epsilon: half}

	// Validate the error of the *worst* (smallest) group: each key's
	// release composes in parallel, so one validator call per key at
	// the same ε suffices; the smallest group binds.
	minCount := ds.Len()
	for _, c := range counts {
		if c < minCount {
			minCount = c
		}
	}
	out.MinGroupSize = float64(minCount)
	v := validation.ErrorValidator{
		Config: validation.Config{Mode: p.Mode, Eta: eta, Epsilon: half},
		Target: p.Target,
		B:      bound,
	}
	out.Spent = out.Spent.Add(v.Cost())
	if v.Accept(minCount, r) {
		out.Decision = validation.Accept
	} else {
		out.Decision = validation.Retry
	}
	return out, nil
}
