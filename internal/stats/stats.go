// Package stats implements the differentially private statistics Sage's
// feature pipelines release: counts, sums, means, variances, histograms,
// and the group-by-mean of Listing 1 (average speed per hour-of-day).
// These are the "Avg.Speed" and "Counts" pipelines of Table 1.
//
// All releases clip contributions to a configured range so their
// sensitivity is bounded, add Laplace noise, and report the (ε, 0) cost
// they consume. Group-by releases exploit parallel composition (McSherry
// 2009): each data point contributes to exactly one key, so the budget is
// charged once, not once per key.
package stats

import (
	"fmt"
	"math"

	"repro/internal/privacy"
	"repro/internal/rng"
)

// DPCount releases the number of values n with (ε, 0)-DP
// (sensitivity 1).
func DPCount(n int, epsilon float64, r *rng.RNG) float64 {
	m := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: epsilon}
	return m.Release(float64(n), r)
}

// DPSum releases the sum of values clipped to [lo, hi] with (ε, 0)-DP.
// The sensitivity is max(|lo|, |hi|): adding or removing one point moves
// the sum by at most that much.
func DPSum(values []float64, lo, hi, epsilon float64, r *rng.RNG) float64 {
	if lo > hi {
		panic(fmt.Sprintf("stats: invalid clip range [%v, %v]", lo, hi))
	}
	sens := max(abs(lo), abs(hi))
	sum := 0.0
	for _, v := range values {
		sum += privacy.Clip(v, lo, hi)
	}
	m := privacy.LaplaceMechanism{Sensitivity: sens, Epsilon: epsilon}
	return m.Release(sum, r)
}

// MeanResult is a DP mean release together with the DP count that
// normalized it, so validators can correct for noise in both.
type MeanResult struct {
	Mean     float64
	NoisySum float64
	NoisyN   float64
	Epsilon  float64 // total ε consumed (split between sum and count)
}

// DPMean releases the mean of values clipped to [lo, hi] with (ε, 0)-DP,
// splitting the budget evenly between the sum and the count.
func DPMean(values []float64, lo, hi, epsilon float64, r *rng.RNG) MeanResult {
	half := epsilon / 2
	s := DPSum(values, lo, hi, half, r)
	n := DPCount(len(values), half, r)
	mean := 0.0
	if n > 0 {
		mean = s / n
	}
	return MeanResult{Mean: mean, NoisySum: s, NoisyN: n, Epsilon: epsilon}
}

// Histogram releases per-bucket counts with (ε, 0)-DP. Each data point
// falls in exactly one bucket, so by parallel composition the whole
// histogram costs ε, not ε·buckets. Out-of-range keys are dropped (the
// caller's bucketing function must be data-independent). These are the
// paper's "Counts x26" Criteo pipelines.
func Histogram(keys []int, nBuckets int, epsilon float64, r *rng.RNG) []float64 {
	if nBuckets <= 0 {
		panic("stats: Histogram requires nBuckets > 0")
	}
	counts := make([]float64, nBuckets)
	for _, k := range keys {
		if k >= 0 && k < nBuckets {
			counts[k]++
		}
	}
	m := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: epsilon}
	return m.ReleaseVector(counts, r)
}

// NormalizedHistogram releases bucket frequencies (counts divided by the
// DP total), spending half the budget on the histogram and half on the
// total count.
func NormalizedHistogram(keys []int, nBuckets int, epsilon float64, r *rng.RNG) []float64 {
	counts := Histogram(keys, nBuckets, epsilon/2, r)
	total := DPCount(len(keys), epsilon/2, r)
	out := make([]float64, nBuckets)
	if total <= 0 {
		return out
	}
	for i, c := range counts {
		out[i] = c / total
	}
	return out
}

// DPGroupByMean computes the DP mean of values grouped by key (Listing 1,
// lines 33-42): noisy per-key counts plus noisy per-key sums, each with
// ε/2 (sensitivity doubles nothing: every point has exactly one key, so
// the groups compose in parallel; the budget is split between the count
// release and the sum release). valueRange bounds |value|; values are
// clipped to [-valueRange, valueRange].
func DPGroupByMean(keys []int, values []float64, nKeys int, epsilon, valueRange float64, r *rng.RNG) []float64 {
	if len(keys) != len(values) {
		panic("stats: keys/values length mismatch")
	}
	if nKeys <= 0 || epsilon <= 0 || valueRange <= 0 {
		panic("stats: DPGroupByMean requires nKeys, epsilon, valueRange > 0")
	}
	g := NewGroupSums(nKeys, epsilon, valueRange)
	for i, k := range keys {
		g.Add(k, values[i])
	}
	return g.Means(r)
}

// GroupSums is DPGroupByMean's pass over the data, one point at a time,
// so a stream needs no key and value arrays: per-key counts and sums,
// keys outside [0, nKeys) dropped.
type GroupSums struct {
	counts, sums        []float64
	epsilon, valueRange float64
}

// NewGroupSums returns an empty accumulator over nKeys keys. With
// epsilon > 0 it clips values to [-valueRange, valueRange] and Means
// releases them as DPGroupByMean does; with epsilon 0 nothing is clipped
// and Means is exact.
func NewGroupSums(nKeys int, epsilon, valueRange float64) GroupSums {
	if epsilon <= 0 {
		valueRange = math.Inf(1)
	}
	return GroupSums{counts: make([]float64, nKeys), sums: make([]float64, nKeys), epsilon: epsilon, valueRange: valueRange}
}

// Add counts value under key.
func (g *GroupSums) Add(key int, value float64) {
	if key >= 0 && key < len(g.counts) {
		g.counts[key]++
		g.sums[key] += privacy.Clip(value, -g.valueRange, g.valueRange)
	}
}

// Means returns the per-key means: (ε, 0)-DP from r when epsilon > 0,
// else exact, with 0 for an empty key.
func (g *GroupSums) Means(r *rng.RNG) []float64 {
	means := make([]float64, len(g.counts))
	if g.epsilon <= 0 {
		for k, c := range g.counts {
			if c > 0 {
				means[k] = g.sums[k] / c
			}
		}
		return means
	}
	// Listing 1 adds laplace(2/ε) to counts and laplace(range·2/ε) to
	// sums: ε/2 for each of the two parallel-composed releases.
	cm := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: g.epsilon / 2}
	sm := privacy.LaplaceMechanism{Sensitivity: g.valueRange, Epsilon: g.epsilon / 2}
	noisyCounts := cm.ReleaseVector(g.counts, r)
	noisySums := sm.ReleaseVector(g.sums, r)
	for k := range means {
		if noisyCounts[k] > 1 {
			means[k] = noisySums[k] / noisyCounts[k]
		}
		means[k] = privacy.Clip(means[k], -g.valueRange, g.valueRange)
	}
	return means
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
