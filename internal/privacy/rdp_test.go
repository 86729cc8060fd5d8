package privacy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGaussianRDPUnsampled(t *testing.T) {
	// RDP of Gaussian at order α is α/(2σ²).
	if got, want := gaussianRDP(2, 8), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("gaussianRDP = %v, want %v", got, want)
	}
}

func TestSampledGaussianLimits(t *testing.T) {
	// q=0: no data touched, zero RDP.
	if got := sampledGaussianRDP(0, 1, 4); got != 0 {
		t.Errorf("q=0 RDP = %v, want 0", got)
	}
	// q=1: full batch, equals unsampled Gaussian.
	if got, want := sampledGaussianRDP(1, 2, 8), gaussianRDP(2, 8); math.Abs(got-want) > 1e-12 {
		t.Errorf("q=1 RDP = %v, want %v", got, want)
	}
	// Subsampling amplifies privacy: q=0.01 must be far below unsampled.
	sub := sampledGaussianRDP(0.01, 1, 8)
	full := gaussianRDP(1, 8)
	if sub >= full/10 {
		t.Errorf("subsampled RDP %v not ≪ full %v", sub, full)
	}
}

func TestSampledGaussianMonotoneInQ(t *testing.T) {
	prev := 0.0
	for _, q := range []float64{0.001, 0.01, 0.05, 0.1, 0.5, 1.0} {
		cur := sampledGaussianRDP(q, 1.5, 16)
		if cur < prev {
			t.Errorf("RDP not monotone in q at q=%v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
}

func TestRDPAccountantComposesLinearly(t *testing.T) {
	a1 := NewRDPAccountant()
	a1.AddSampledGaussianSteps(0.01, 1.1, 1000)
	a2 := NewRDPAccountant()
	for i := 0; i < 10; i++ {
		a2.AddSampledGaussianSteps(0.01, 1.1, 100)
	}
	e1, e2 := a1.Epsilon(1e-5), a2.Epsilon(1e-5)
	if math.Abs(e1-e2) > 1e-9 {
		t.Errorf("split accounting differs: %v vs %v", e1, e2)
	}
}

func TestEpsilonDecreasesWithSigma(t *testing.T) {
	plan := SGDPlan{N: 100000, BatchSize: 1000, Epochs: 3}
	prev := math.Inf(1)
	for _, sigma := range []float64{0.6, 1.0, 2.0, 4.0, 8.0} {
		eps := SGDEpsilon(plan, sigma, 1e-6)
		if eps >= prev {
			t.Errorf("ε not decreasing in σ at σ=%v: %v >= %v", sigma, eps, prev)
		}
		prev = eps
	}
}

func TestCalibrateSGDNoise(t *testing.T) {
	plan := SGDPlan{N: 50000, BatchSize: 512, Epochs: 3}
	const eps, delta = 1.0, 1e-6
	sigma := CalibrateSGDNoise(plan, eps, delta)
	got := SGDEpsilon(plan, sigma, delta)
	if got > eps {
		t.Errorf("calibrated σ=%v yields ε=%v > target %v", sigma, got, eps)
	}
	// Tightness: slightly smaller sigma should violate the target.
	if loose := SGDEpsilon(plan, sigma*0.98, delta); loose <= eps {
		t.Errorf("σ·0.98 still satisfies target (ε=%v): calibration too loose", loose)
	}
}

func TestCalibrateMoreEpochsNeedsMoreNoise(t *testing.T) {
	base := SGDPlan{N: 50000, BatchSize: 512, Epochs: 1}
	long := SGDPlan{N: 50000, BatchSize: 512, Epochs: 10}
	s1 := CalibrateSGDNoise(base, 1, 1e-6)
	s2 := CalibrateSGDNoise(long, 1, 1e-6)
	if s2 <= s1 {
		t.Errorf("10 epochs σ=%v not > 1 epoch σ=%v", s2, s1)
	}
}

func TestSGDPlanSteps(t *testing.T) {
	p := SGDPlan{N: 1000, BatchSize: 128, Epochs: 2}
	if got := p.Steps(); got != 16 { // ceil(1000/128)=8 per epoch × 2
		t.Errorf("Steps = %d, want 16", got)
	}
	if got := p.SamplingRate(); got != 0.128 {
		t.Errorf("SamplingRate = %v, want 0.128", got)
	}
	if (SGDPlan{}).Steps() != 0 {
		t.Error("empty plan should have 0 steps")
	}
	big := SGDPlan{N: 10, BatchSize: 100, Epochs: 1}
	if big.SamplingRate() != 1 {
		t.Error("sampling rate should clamp at 1")
	}
}

func TestLogComb(t *testing.T) {
	// C(10, 3) = 120.
	if got := math.Exp(logComb(10, 3)); math.Abs(got-120) > 1e-9 {
		t.Errorf("C(10,3) = %v, want 120", got)
	}
	if got := math.Exp(logComb(5, 0)); math.Abs(got-1) > 1e-12 {
		t.Errorf("C(5,0) = %v, want 1", got)
	}
}

// Property: more steps never decreases epsilon.
func TestEpsilonMonotoneInStepsProperty(t *testing.T) {
	f := func(rawSteps uint8, rawSigma uint8) bool {
		steps := int(rawSteps) + 1
		sigma := float64(rawSigma)/64 + 0.7
		a := NewRDPAccountant()
		a.AddSampledGaussianSteps(0.05, sigma, steps)
		e1 := a.Epsilon(1e-6)
		a.AddSampledGaussianSteps(0.05, sigma, 10)
		e2 := a.Epsilon(1e-6)
		return e2 >= e1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: converting RDP to (ε, δ) is monotone in δ — smaller δ means
// larger ε.
func TestEpsilonMonotoneInDeltaProperty(t *testing.T) {
	a := NewRDPAccountant()
	a.AddSampledGaussianSteps(0.01, 1.0, 500)
	f := func(rawD uint8) bool {
		d := math.Pow(10, -(float64(rawD%8) + 2)) // 1e-2 … 1e-9
		return a.Epsilon(d/10) >= a.Epsilon(d)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// SGDEpsilon returns the (ε, δ) guarantee of running the plan with the
// given noise multiplier: the RDP accountant's full sum, which sgdMeets
// answers the yes/no question of.
func SGDEpsilon(plan SGDPlan, sigma, delta float64) float64 {
	acct := NewRDPAccountant()
	acct.AddSampledGaussianSteps(plan.SamplingRate(), sigma, plan.Steps())
	return acct.Epsilon(delta)
}

// referenceCalibrateSGDNoise is the calibration search as it stood
// before sgdMeets: the same bracketing and bisection, with every probe
// computing SGDEpsilon in full. It is the oracle calibrateSGDNoise must
// match bit for bit.
func referenceCalibrateSGDNoise(plan SGDPlan, epsilon, delta float64) float64 {
	lo, hi := 1e-2, 1e-2
	for SGDEpsilon(plan, hi, delta) > epsilon {
		hi *= 2
		if hi > 1e6 {
			panic("privacy: noise calibration diverged")
		}
	}
	lo = hi / 2
	for lo > 1e-3 && SGDEpsilon(plan, lo, delta) <= epsilon {
		hi = lo
		lo /= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if SGDEpsilon(plan, mid, delta) <= epsilon {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

type calibCase struct {
	plan       SGDPlan
	eps, delta float64
}

// calibGrid spans the dataset sizes, batch sizes, epochs and targets the
// experiments calibrate for.
var calibGrid = []calibCase{
	{SGDPlan{N: 1000, BatchSize: 256, Epochs: 1}, 1.0 / 16, 1e-6},
	{SGDPlan{N: 4500, BatchSize: 512, Epochs: 3}, 0.5, 1e-8},
	{SGDPlan{N: 18000, BatchSize: 1024, Epochs: 5}, 2, 1e-6},
	{SGDPlan{N: 36000, BatchSize: 2000, Epochs: 1}, 8, 1e-8},
	{SGDPlan{N: 77002, BatchSize: 512, Epochs: 3}, 0.7, 1e-6},
	{SGDPlan{N: 100000, BatchSize: 256, Epochs: 5}, 0.25, 1e-8},
}

// calibEdges are the plans at the ends of the search: σ at or just above
// its 1e-3 floor, full-batch sampling, a huge ε, and an ε small enough
// to need many bracketing doublings.
var calibEdges = []calibCase{
	{SGDPlan{N: 1000, BatchSize: 1000, Epochs: 1}, 2e6, 1e-6},
	{SGDPlan{N: 1000, BatchSize: 1000, Epochs: 1}, 5e5, 1e-6},
	{SGDPlan{N: 1000, BatchSize: 4000, Epochs: 1}, 1, 1e-6},
	{SGDPlan{N: 4500, BatchSize: 256, Epochs: 1}, 2e7, 1e-6},
	{SGDPlan{N: 36000, BatchSize: 512, Epochs: 3}, 0.01, 1e-6},
}

func TestCalibrateMatchesFullEpsilonSearch(t *testing.T) {
	for _, c := range append(append([]calibCase{}, calibGrid...), calibEdges...) {
		got := calibrateSGDNoise(c.plan, c.eps, c.delta)
		want := referenceCalibrateSGDNoise(c.plan, c.eps, c.delta)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%+v ε=%v δ=%v: σ = %v, reference %v", c.plan, c.eps, c.delta, got, want)
		}
	}
}

// The early exits in sgdMeets are exact: it answers SGDEpsilon <= ε at
// the calibrated σ, at its neighbouring floats, where the answer flips,
// and across a log-spaced sweep.
func TestSGDMeetsAgreesWithSGDEpsilon(t *testing.T) {
	for _, c := range append(append([]calibCase{}, calibGrid...), calibEdges...) {
		sigma := calibrateSGDNoise(c.plan, c.eps, c.delta)
		probes := []float64{sigma, math.Nextafter(sigma, 0), math.Nextafter(sigma, math.Inf(1))}
		for s := 1e-3; s < 1e3; s *= 2.5 {
			probes = append(probes, s)
		}
		for _, s := range probes {
			want := SGDEpsilon(c.plan, s, c.delta) <= c.eps
			if got := sgdMeets(c.plan, s, c.delta, c.eps); got != want {
				t.Errorf("%+v ε=%v δ=%v σ=%v: sgdMeets = %v, SGDEpsilon <= ε is %v",
					c.plan, c.eps, c.delta, s, got, want)
			}
		}
	}
}
