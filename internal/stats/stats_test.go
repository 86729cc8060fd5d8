package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestDPCountConcentrates(t *testing.T) {
	r := rng.New(1)
	sum := 0.0
	const reps = 2000
	for i := 0; i < reps; i++ {
		sum += DPCount(1000, 1.0, r)
	}
	if mean := sum / reps; math.Abs(mean-1000) > 1 {
		t.Errorf("mean DP count = %v, want ~1000", mean)
	}
}

func TestDPSumClipsOutliers(t *testing.T) {
	r := rng.New(2)
	// One enormous outlier must not dominate: clipped to hi=1.
	values := []float64{1, 1, 1, 1e9}
	sum := 0.0
	const reps = 2000
	for i := 0; i < reps; i++ {
		sum += DPSum(values, 0, 1, 1.0, r)
	}
	if mean := sum / reps; math.Abs(mean-4) > 0.2 {
		t.Errorf("mean DP sum = %v, want ~4 (outlier clipped)", mean)
	}
}

func TestDPSumSensitivityScalesNoise(t *testing.T) {
	r1, r2 := rng.New(3), rng.New(3)
	values := make([]float64, 100)
	varOf := func(r *rng.RNG, lo, hi float64) float64 {
		const reps = 4000
		var sum, sumSq float64
		for i := 0; i < reps; i++ {
			v := DPSum(values, lo, hi, 1.0, r)
			sum += v
			sumSq += v * v
		}
		mean := sum / reps
		return sumSq/reps - mean*mean
	}
	small := varOf(r1, 0, 1)
	big := varOf(r2, 0, 10)
	// Sensitivity 10 → scale 10× → variance 100×.
	if ratio := big / small; ratio < 50 || ratio > 200 {
		t.Errorf("noise variance ratio = %v, want ~100", ratio)
	}
}

func TestDPMean(t *testing.T) {
	r := rng.New(4)
	values := make([]float64, 10000)
	for i := range values {
		values[i] = 0.5
	}
	res := DPMean(values, 0, 1, 1.0, r)
	if math.Abs(res.Mean-0.5) > 0.01 {
		t.Errorf("DP mean = %v, want ~0.5", res.Mean)
	}
	if res.Epsilon != 1.0 {
		t.Errorf("reported ε = %v", res.Epsilon)
	}
	if math.Abs(res.NoisyN-10000) > 100 {
		t.Errorf("noisy n = %v", res.NoisyN)
	}
}

func TestDPMeanEmptyInput(t *testing.T) {
	r := rng.New(5)
	res := DPMean(nil, 0, 1, 1.0, r)
	if math.IsNaN(res.Mean) || math.IsInf(res.Mean, 0) {
		t.Errorf("empty mean = %v, want finite", res.Mean)
	}
}

func TestHistogram(t *testing.T) {
	r := rng.New(8)
	keys := make([]int, 0, 6000)
	for i := 0; i < 1000; i++ {
		keys = append(keys, 0, 1, 1, 2, 2, 2)
	}
	keys = append(keys, -5, 99) // out of range, dropped
	got := Histogram(keys, 3, 2.0, r)
	want := []float64{1000, 2000, 3000}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 50 {
			t.Errorf("bucket %d = %v, want ~%v", i, got[i], want[i])
		}
	}
}

func TestNormalizedHistogram(t *testing.T) {
	r := rng.New(9)
	keys := make([]int, 0, 10000)
	for i := 0; i < 5000; i++ {
		keys = append(keys, 0, 1)
	}
	got := NormalizedHistogram(keys, 2, 2.0, r)
	if math.Abs(got[0]-0.5) > 0.02 || math.Abs(got[1]-0.5) > 0.02 {
		t.Errorf("frequencies = %v, want ~[0.5, 0.5]", got)
	}
}

func TestDPGroupByMean(t *testing.T) {
	r := rng.New(10)
	// Key 0 has mean 10, key 1 has mean -5, key 2 is empty.
	var keys []int
	var values []float64
	for i := 0; i < 5000; i++ {
		keys = append(keys, 0, 1)
		values = append(values, 10, -5)
	}
	means := DPGroupByMean(keys, values, 3, 1.0, 20, r)
	if math.Abs(means[0]-10) > 0.5 {
		t.Errorf("key 0 mean = %v, want ~10", means[0])
	}
	if math.Abs(means[1]+5) > 0.5 {
		t.Errorf("key 1 mean = %v, want ~-5", means[1])
	}
	// Empty key: mean clipped into range, not NaN.
	if math.IsNaN(means[2]) || math.Abs(means[2]) > 20 {
		t.Errorf("empty key mean = %v", means[2])
	}
}

func TestDPGroupByMeanClipsValues(t *testing.T) {
	r := rng.New(11)
	keys := make([]int, 1000)
	values := make([]float64, 1000)
	for i := range values {
		values[i] = 1e9 // should clip to valueRange=1
	}
	means := DPGroupByMean(keys, values, 1, 1.0, 1, r)
	if means[0] > 1.01 {
		t.Errorf("mean = %v, want clipped to ~1", means[0])
	}
}

func TestDPGroupByMeanValidation(t *testing.T) {
	r := rng.New(12)
	for _, fn := range []func(){
		func() { DPGroupByMean([]int{1}, []float64{1, 2}, 2, 1, 1, r) },
		func() { DPGroupByMean([]int{1}, []float64{1}, 0, 1, 1, r) },
		func() { DPGroupByMean([]int{1}, []float64{1}, 2, 1, 0, r) },
		func() { Histogram(nil, 0, 1, r) },
		func() { DPSum(nil, 1, 0, 1, r) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Property: histogram total stays near the true total for any key layout
// (noise is zero-mean), and the output length always equals nBuckets.
func TestHistogramShapeProperty(t *testing.T) {
	f := func(rawKeys []uint8, rawBuckets uint8) bool {
		n := int(rawBuckets)%20 + 1
		keys := make([]int, len(rawKeys))
		for i, k := range rawKeys {
			keys[i] = int(k) % n
		}
		got := Histogram(keys, n, 100, rng.New(uint64(len(rawKeys))))
		if len(got) != n {
			return false
		}
		total := 0.0
		for _, c := range got {
			total += c
		}
		// ε=100 noise is tiny; total within ±n.
		return math.Abs(total-float64(len(keys))) < float64(n)+5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: group-by means always land inside the clipping range.
func TestGroupByMeanRangeProperty(t *testing.T) {
	f := func(raw []int8, seed uint64) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]int, len(raw))
		values := make([]float64, len(raw))
		for i, v := range raw {
			keys[i] = int(uint8(v)) % 4
			values[i] = float64(v)
		}
		means := DPGroupByMean(keys, values, 4, 0.5, 10, rng.New(seed))
		for _, m := range means {
			if m < -10-1e-9 || m > 10+1e-9 || math.IsNaN(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
