package privacy

import (
	"sync"
	"sync/atomic"
)

// DP-SGD noise calibration is a pure function of the plan and the target
// (ε, δ), and a miss costs milliseconds: each of the search's ~70 probes
// asks whether some RDP order proves (ε, δ) at that σ, summing each
// order's terms until it does or is ruled out (sgdMeets; three Lgamma
// calls a term). Experiment sweeps re-run identical plans thousands of
// times — every Fig. 6 / Tab. 2 cell at the same stream size trains with
// the same (n, batch, epochs, ε, δ) — so CalibrateSGDNoise memoizes σ
// process-wide.
// The cache is concurrency-safe and deterministic by construction: a hit
// returns bit-identical σ to the computation it replaced.

// sgdCalibKey identifies one calibration problem.
type sgdCalibKey struct {
	n, batchSize, epochs int
	epsilon, delta       float64
}

var (
	sgdCalibCache  sync.Map // sgdCalibKey → float64
	sgdCalibHits   atomic.Uint64
	sgdCalibMisses atomic.Uint64
)

// CalibrationCacheStats reports the process-wide calibration cache's
// effectiveness (hits vs full bracketing searches since start/reset).
type CalibrationCacheStats struct {
	Hits, Misses uint64
}

// HitRate returns the fraction of lookups served from the cache.
func (s CalibrationCacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// SGDCalibrationStats returns the current cache counters.
func SGDCalibrationStats() CalibrationCacheStats {
	return CalibrationCacheStats{
		Hits:   sgdCalibHits.Load(),
		Misses: sgdCalibMisses.Load(),
	}
}

// ResetSGDCalibrationCache empties the cache and zeroes the counters
// (used by benchmarks to measure the uncached path).
func ResetSGDCalibrationCache() {
	sgdCalibCache.Range(func(k, _ any) bool {
		sgdCalibCache.Delete(k)
		return true
	})
	sgdCalibHits.Store(0)
	sgdCalibMisses.Store(0)
}

// cachedSGDNoise returns the memoized σ for the plan, computing and
// storing it on miss. Concurrent misses on the same key may both compute;
// they store the same value, so the race is benign and lock-free reads
// stay on the hot path.
func cachedSGDNoise(plan SGDPlan, epsilon, delta float64) float64 {
	key := sgdCalibKey{
		n: plan.N, batchSize: plan.BatchSize, epochs: plan.Epochs,
		epsilon: epsilon, delta: delta,
	}
	if v, ok := sgdCalibCache.Load(key); ok {
		sgdCalibHits.Add(1)
		return v.(float64)
	}
	sgdCalibMisses.Add(1)
	sigma := calibrateSGDNoise(plan, epsilon, delta)
	sgdCalibCache.Store(key, sigma)
	return sigma
}
