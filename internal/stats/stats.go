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

// GroupByMeanResult is the output of DPGroupByMean: the DP mean per key
// plus the noisy counts, mirroring Listing 1's dp_group_by_mean.
type GroupByMeanResult struct {
	Means  []float64
	Counts []float64
	Sums   []float64
}

// DPGroupByMean computes the DP mean of values grouped by key (Listing 1,
// lines 33-42): noisy per-key counts plus noisy per-key sums, each with
// ε/2 (sensitivity doubles nothing: every point has exactly one key, so
// the groups compose in parallel; the budget is split between the count
// release and the sum release). valueRange bounds |value|; values are
// clipped to [-valueRange, valueRange].
func DPGroupByMean(keys []int, values []float64, nKeys int, epsilon, valueRange float64, r *rng.RNG) GroupByMeanResult {
	if len(keys) != len(values) {
		panic("stats: keys/values length mismatch")
	}
	if nKeys <= 0 || valueRange <= 0 {
		panic("stats: DPGroupByMean requires nKeys, valueRange > 0")
	}
	counts := make([]float64, nKeys)
	sums := make([]float64, nKeys)
	for i, k := range keys {
		if k < 0 || k >= nKeys {
			continue
		}
		counts[k]++
		sums[k] += privacy.Clip(values[i], -valueRange, valueRange)
	}
	// Listing 1 adds laplace(2/ε) to counts and laplace(range·2/ε) to
	// sums: ε/2 for each of the two parallel-composed releases.
	cm := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: epsilon / 2}
	sm := privacy.LaplaceMechanism{Sensitivity: valueRange, Epsilon: epsilon / 2}
	noisyCounts := cm.ReleaseVector(counts, r)
	noisySums := sm.ReleaseVector(sums, r)
	means := make([]float64, nKeys)
	for k := 0; k < nKeys; k++ {
		if noisyCounts[k] > 1 {
			means[k] = noisySums[k] / noisyCounts[k]
		}
		means[k] = privacy.Clip(means[k], -valueRange, valueRange)
	}
	return GroupByMeanResult{Means: means, Counts: noisyCounts, Sums: noisySums}
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
