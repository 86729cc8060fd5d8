package privacy

import (
	"math"
)

// This file implements a Rényi differential privacy (RDP) accountant for
// the Poisson-subsampled Gaussian mechanism, the analysis behind DP-SGD
// (Abadi et al. 2016; Mironov 2017; Mironov, Talwar, Zhang 2019). Sage's
// DP training pipelines use it to convert a target (ε, δ) into the noise
// multiplier σ for a given sampling rate and number of steps, exactly as
// TensorFlow Privacy does for the pipelines in Table 1.

// rdpOrders are the RDP orders the accountant evaluates, shared read-only
// by every accountant. Integer orders admit an exact closed form for the
// subsampled Gaussian.
var rdpOrders = func() []int {
	orders := make([]int, 0, 80)
	for a := 2; a <= 63; a++ {
		orders = append(orders, a)
	}
	// Sparse large orders let the conversion reach small ε (the
	// ε = RDP(α) + log(1/δ)/(α−1) term needs large α when ε ≪ 1).
	orders = append(orders, 80, 96, 128, 160, 192, 256, 320, 384, 512, 768, 1024, 2048, 4096)
	return orders
}()

// RDPAccountant tracks Rényi divergences at a fixed set of integer orders.
type RDPAccountant struct {
	orders []int
	rdp    []float64 // cumulative RDP at each order
}

// NewRDPAccountant returns an accountant over the integer orders 2..63
// and 13 sparse orders from 80 to 4096.
func NewRDPAccountant() *RDPAccountant {
	return &RDPAccountant{orders: rdpOrders, rdp: make([]float64, len(rdpOrders))}
}

// gaussianRDP returns the RDP of the (unsampled) Gaussian mechanism with
// noise multiplier sigma at order alpha: α/(2σ²).
func gaussianRDP(sigma float64, alpha int) float64 {
	return float64(alpha) / (2 * sigma * sigma)
}

// logComb returns log C(n, k).
func logComb(n, k int) float64 {
	lg, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return lg - lk - lnk
}

// logAddExp returns log(exp(a) + exp(b)) stably.
func logAddExp(a, b float64) float64 {
	if math.IsInf(a, -1) {
		return b
	}
	if math.IsInf(b, -1) {
		return a
	}
	m := math.Max(a, b)
	return m + math.Log(math.Exp(a-m)+math.Exp(b-m))
}

// sampledGaussianRDP returns the RDP at integer order alpha >= 2 of one
// step of the Poisson-subsampled Gaussian mechanism with sampling rate q
// and noise multiplier sigma (Mironov, Talwar, Zhang 2019, Eq. for integer
// orders):
//
//	RDP(α) = 1/(α−1) · log Σ_{k=0}^{α} C(α,k)·(1−q)^{α−k}·q^k·exp(k(k−1)/(2σ²))
func sampledGaussianRDP(q, sigma float64, alpha int) float64 {
	rdp, _ := sampledGaussianRDPUntil(q, sigma, alpha, nil)
	return rdp
}

// sampledGaussianRDPUntil is sampledGaussianRDP with an early exit. It
// adds the sum's terms in increasing k and after each one passes exceeds
// the RDP the partial sum implies; if exceeds returns true, it stops and
// returns false. Each logAddExp returns m + log(1 + x) with x >= 0 and m
// the larger operand, so no term lowers the running sum, and every later
// step is monotone under IEEE rounding: the RDP a partial sum implies is
// a lower bound on the order's final RDP, bit for bit. A nil exceeds
// never stops.
func sampledGaussianRDPUntil(q, sigma float64, alpha int, exceeds func(rdp float64) bool) (float64, bool) {
	if q <= 0 {
		return 0, true
	}
	gauss := gaussianRDP(sigma, alpha)
	if q >= 1 {
		return gauss, true
	}
	logSum := math.Inf(-1)
	logQ := math.Log(q)
	log1Q := math.Log1p(-q)
	var rdp float64
	for k := 0; k <= alpha; k++ {
		term := logComb(alpha, k) +
			float64(alpha-k)*log1Q +
			float64(k)*logQ +
			float64(k*(k-1))/(2*sigma*sigma)
		logSum = logAddExp(logSum, term)
		// The subsampled mechanism is never worse than the unsampled one.
		rdp = math.Min(logSum/float64(alpha-1), gauss)
		if exceeds != nil && exceeds(rdp) {
			return rdp, false
		}
	}
	return rdp, true
}

// AddSampledGaussianSteps records `steps` steps of the subsampled Gaussian
// mechanism with sampling rate q and noise multiplier sigma. RDP composes
// additively across steps at each order.
func (a *RDPAccountant) AddSampledGaussianSteps(q, sigma float64, steps int) {
	if sigma <= 0 {
		panic("privacy: RDP accountant requires sigma > 0")
	}
	if steps < 0 {
		panic("privacy: negative step count")
	}
	for i, alpha := range a.orders {
		a.rdp[i] += float64(steps) * sampledGaussianRDP(q, sigma, alpha)
	}
}

// Epsilon converts the accumulated RDP to an (ε, δ)-DP guarantee using the
// standard conversion ε = min_α RDP(α) + log(1/δ)/(α−1).
func (a *RDPAccountant) Epsilon(delta float64) float64 {
	if delta <= 0 || delta >= 1 {
		panic("privacy: Epsilon requires delta in (0,1)")
	}
	best := math.Inf(1)
	for i, alpha := range a.orders {
		eps := a.rdp[i] + math.Log(1/delta)/float64(alpha-1)
		if eps < best {
			best = eps
		}
	}
	return best
}

// SGDPlan describes one DP-SGD training run for accounting purposes.
type SGDPlan struct {
	N         int // dataset size
	BatchSize int // expected batch size (Poisson sampling rate q = B/N)
	Epochs    int // passes over the data
}

// Steps returns the number of SGD steps in the plan.
func (p SGDPlan) Steps() int {
	if p.BatchSize <= 0 || p.N <= 0 || p.Epochs <= 0 {
		return 0
	}
	perEpoch := (p.N + p.BatchSize - 1) / p.BatchSize
	return perEpoch * p.Epochs
}

// SamplingRate returns q = B/N clamped to (0, 1].
func (p SGDPlan) SamplingRate() float64 {
	if p.N <= 0 {
		return 1
	}
	q := float64(p.BatchSize) / float64(p.N)
	if q > 1 {
		return 1
	}
	return q
}

// SGDEpsilon returns the (ε, δ) guarantee of running the plan with the
// given noise multiplier.
func SGDEpsilon(plan SGDPlan, sigma, delta float64) float64 {
	acct := NewRDPAccountant()
	acct.AddSampledGaussianSteps(plan.SamplingRate(), sigma, plan.Steps())
	return acct.Epsilon(delta)
}

// CalibrateSGDNoise returns the smallest noise multiplier σ such that the
// plan satisfies (ε, δ)-DP, found by exponential bracketing followed by
// binary search. It mirrors TF-Privacy's compute_noise utility. Results
// are memoized process-wide by (N, BatchSize, Epochs, ε, δ) — see
// calibcache.go — because the sweeps re-run identical plans constantly;
// SGDCalibrationStats exposes the hit/miss counters.
func CalibrateSGDNoise(plan SGDPlan, epsilon, delta float64) float64 {
	if epsilon <= 0 {
		panic("privacy: CalibrateSGDNoise requires epsilon > 0")
	}
	if plan.Steps() == 0 {
		return 0
	}
	return cachedSGDNoise(plan, epsilon, delta)
}

// calibrateSGDNoise is the uncached bracketing/bisection search behind
// CalibrateSGDNoise. Every probe asks only whether σ is private enough.
func calibrateSGDNoise(plan SGDPlan, epsilon, delta float64) float64 {
	lo, hi := 1e-2, 1e-2
	// Grow hi until private enough.
	for !sgdMeets(plan, hi, delta, epsilon) {
		hi *= 2
		if hi > 1e6 {
			panic("privacy: noise calibration diverged")
		}
	}
	// Shrink lo until not private enough (or keep tiny floor).
	lo = hi / 2
	for lo > 1e-3 && sgdMeets(plan, lo, delta, epsilon) {
		hi = lo
		lo /= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if sgdMeets(plan, mid, delta, epsilon) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// sgdMeets reports SGDEpsilon(plan, sigma, delta) <= epsilon, computing
// no more of SGDEpsilon's arithmetic than the answer needs. SGDEpsilon is
// the minimum over orders of ε(α) = steps·RDP(α) + log(1/δ)/(α−1), and
// ε(α) grows with RDP(α). So the first order with ε(α) <= epsilon
// decides yes; an order passes if it passes with steps·α/(2σ²), the
// upper bound sampledGaussianRDP takes its minimum with; and an order
// whose partial sum already implies ε(α) > epsilon cannot pass and is
// dropped (sampledGaussianRDPUntil).
func sgdMeets(plan SGDPlan, sigma, delta, epsilon float64) bool {
	q, steps := plan.SamplingRate(), float64(plan.Steps())
	for _, alpha := range rdpOrders {
		slack := math.Log(1/delta) / float64(alpha-1)
		// Epsilon's conversion of this order's RDP. The float64 keeps
		// the product rounded on its own, as it is when the accountant
		// stores it.
		eps := func(rdp float64) float64 { return float64(steps*rdp) + slack }
		if eps(gaussianRDP(sigma, alpha)) <= epsilon {
			return true
		}
		rdp, whole := sampledGaussianRDPUntil(q, sigma, alpha, func(r float64) bool { return eps(r) > epsilon })
		if whole && eps(rdp) <= epsilon {
			return true
		}
	}
	return false
}
