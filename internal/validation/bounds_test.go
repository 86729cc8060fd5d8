package validation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBernsteinUpperBound(t *testing.T) {
	// Bound must exceed the empirical loss and shrink with n.
	l := 0.1
	b1 := BernsteinUpperBound(l, 100, 0.05, 1)
	b2 := BernsteinUpperBound(l, 10000, 0.05, 1)
	if b1 <= l || b2 <= l {
		t.Error("upper bound should exceed empirical loss")
	}
	if b2 >= b1 {
		t.Errorf("bound should shrink with n: %v vs %v", b2, b1)
	}
	if !math.IsInf(BernsteinUpperBound(l, 0, 0.05, 1), 1) {
		t.Error("n=0 should give +Inf")
	}
}

func TestBernsteinCoverage(t *testing.T) {
	// Empirical check of the concentration guarantee: the bound on the
	// mean of Bernoulli(0.2) losses fails with probability ≪ η.
	const (
		p   = 0.2
		n   = 2000
		eta = 0.05
	)
	r := rng.New(1)
	failures := 0
	const reps = 2000
	for rep := 0; rep < reps; rep++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				sum++
			}
		}
		if BernsteinUpperBound(sum/n, n, eta, 1) < p {
			failures++
		}
	}
	if frac := float64(failures) / reps; frac > eta {
		t.Errorf("Bernstein bound failed %v of the time, allowed %v", frac, eta)
	}
}

func TestHoeffdingDeviation(t *testing.T) {
	d1 := HoeffdingDeviation(100, 0.05, 1)
	d2 := HoeffdingDeviation(10000, 0.05, 1)
	if d2 >= d1 {
		t.Error("deviation should shrink with n")
	}
	// Known value: B·sqrt(ln(20)/200) at n=100, η=0.05.
	want := math.Sqrt(math.Log(20) / 200)
	if math.Abs(d1-want) > 1e-12 {
		t.Errorf("HoeffdingDeviation = %v, want %v", d1, want)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform CDF).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if got := RegIncBeta(1, 1, x); math.Abs(got-x) > 1e-10 {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_0.5(2,2) = 0.5 by symmetry.
	if got := RegIncBeta(2, 2, 0.5); math.Abs(got-0.5) > 1e-10 {
		t.Errorf("I_0.5(2,2) = %v", got)
	}
	// Beta(2,1) CDF = x².
	if got := RegIncBeta(2, 1, 0.3); math.Abs(got-0.09) > 1e-10 {
		t.Errorf("I_0.3(2,1) = %v, want 0.09", got)
	}
	if RegIncBeta(3, 4, 0) != 0 || RegIncBeta(3, 4, 1) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestBetaInvCDFInvertsRegIncBeta(t *testing.T) {
	for _, tc := range []struct{ p, a, b float64 }{
		{0.5, 2, 3}, {0.05, 10, 90}, {0.95, 100, 5}, {0.01, 1, 1},
	} {
		x := BetaInvCDF(tc.p, tc.a, tc.b)
		if got := RegIncBeta(tc.a, tc.b, x); math.Abs(got-tc.p) > 1e-9 {
			t.Errorf("round trip p=%v a=%v b=%v: got %v", tc.p, tc.a, tc.b, got)
		}
	}
}

func TestClopperPearsonBracketsTruth(t *testing.T) {
	// 80 successes / 100: 95% CP interval ≈ [0.7082, 0.8733].
	lo := BinomialLower(80, 100, 0.025)
	hi := BinomialUpper(80, 100, 0.025)
	if math.Abs(lo-0.7082) > 0.002 {
		t.Errorf("lower = %v, want ~0.7082", lo)
	}
	if math.Abs(hi-0.8733) > 0.002 {
		t.Errorf("upper = %v, want ~0.8733", hi)
	}
	if lo >= 0.8 || hi <= 0.8 {
		t.Error("interval should contain the MLE")
	}
}

func TestBinomialBoundEdgeCases(t *testing.T) {
	if BinomialUpper(100, 100, 0.05) != 1 {
		t.Error("all successes: upper = 1")
	}
	if BinomialLower(0, 100, 0.05) != 0 {
		t.Error("no successes: lower = 0")
	}
	if BinomialUpper(5, 0, 0.05) != 1 || BinomialLower(5, 0, 0.05) != 0 {
		t.Error("n=0 should give vacuous bounds")
	}
	if BinomialLower(-3, 100, 0.05) != 0 {
		t.Error("negative k should clamp")
	}
}

func TestClopperPearsonCoverage(t *testing.T) {
	// The 1−η lower bound must undershoot the true p in ≥ 1−η of trials.
	const (
		p   = 0.75
		n   = 500
		eta = 0.05
	)
	r := rng.New(2)
	failures := 0
	const reps = 2000
	for rep := 0; rep < reps; rep++ {
		k := 0
		for i := 0; i < n; i++ {
			if r.Bool(p) {
				k++
			}
		}
		if BinomialLower(float64(k), n, eta) > p {
			failures++
		}
	}
	if frac := float64(failures) / reps; frac > eta {
		t.Errorf("CP lower bound failed %v of trials, allowed %v", frac, eta)
	}
}

// Property: binomial bounds are ordered lo ≤ k/n ≤ hi and within [0,1].
func TestBinomialBoundsOrderedProperty(t *testing.T) {
	f := func(rawK, rawN uint16) bool {
		n := float64(rawN%1000 + 1)
		k := float64(rawK) * n / 65536
		lo := BinomialLower(k, n, 0.05)
		hi := BinomialUpper(k, n, 0.05)
		mle := k / n
		return lo >= 0 && hi <= 1 && lo <= mle+1e-9 && hi >= mle-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Bernstein bound is monotone in eta — lower confidence gives
// a tighter (smaller) bound.
func TestBernsteinMonotoneEtaProperty(t *testing.T) {
	f := func(rawLoss, rawN uint16) bool {
		loss := float64(rawLoss) / 65536
		n := float64(rawN%10000 + 10)
		loose := BernsteinUpperBound(loss, n, 0.2, 1)
		tight := BernsteinUpperBound(loss, n, 0.01, 1)
		return tight >= loose
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
