package privacy

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// LaplaceMechanism releases value + Laplace(0, sensitivity/ε), which is
// (ε, 0)-DP for a query with the given L1 sensitivity (Dwork et al. 2006).
type LaplaceMechanism struct {
	Sensitivity float64 // L1 sensitivity of the query
	Epsilon     float64 // privacy parameter ε > 0
}

// Scale returns the Laplace noise scale sensitivity/ε.
func (m LaplaceMechanism) Scale() float64 {
	if m.Epsilon <= 0 || m.Sensitivity < 0 {
		panic(fmt.Sprintf("privacy: invalid Laplace mechanism s=%v ε=%v", m.Sensitivity, m.Epsilon))
	}
	return m.Sensitivity / m.Epsilon
}

// Release returns a DP release of value.
func (m LaplaceMechanism) Release(value float64, r *rng.RNG) float64 {
	return value + r.Laplace(0, m.Scale())
}

// ReleaseVector adds independent Laplace noise to each coordinate. The
// sensitivity must be the L1 sensitivity of the whole vector.
func (m LaplaceMechanism) ReleaseVector(values []float64, r *rng.RNG) []float64 {
	out := make([]float64, len(values))
	scale := m.Scale()
	for i, v := range values {
		out[i] = v + r.Laplace(0, scale)
	}
	return out
}

// Cost returns the (ε, 0) budget consumed by one release.
func (m LaplaceMechanism) Cost() Budget { return Budget{Epsilon: m.Epsilon} }

// TailBound returns t such that a single Laplace(0, scale) draw is below
// -t (or above +t) with probability at most eta. Sage's validators use it
// to correct DP estimates for the worst-case impact of noise (Listing 2):
// P(Laplace(0,b) < -b·ln(1/(2η))) = η for η <= 1/2.
func (m LaplaceMechanism) TailBound(eta float64) float64 {
	if eta <= 0 || eta >= 1 {
		panic("privacy: TailBound requires eta in (0,1)")
	}
	return m.Scale() * math.Log(1/(2*eta))
}

// GaussianMechanism releases value + N(0, σ²) with
// σ = sensitivity·sqrt(2·ln(1.25/δ))/ε, which is (ε, δ)-DP for ε in (0, 1]
// (Dwork & Roth 2014, Thm 3.22). Sensitivity is the L2 sensitivity.
type GaussianMechanism struct {
	Sensitivity float64
	Epsilon     float64
	Delta       float64
}

// Sigma returns the Gaussian noise standard deviation.
func (m GaussianMechanism) Sigma() float64 {
	if m.Epsilon <= 0 || m.Delta <= 0 || m.Delta >= 1 || m.Sensitivity < 0 {
		panic(fmt.Sprintf("privacy: invalid Gaussian mechanism s=%v ε=%v δ=%v",
			m.Sensitivity, m.Epsilon, m.Delta))
	}
	return m.Sensitivity * math.Sqrt(2*math.Log(1.25/m.Delta)) / m.Epsilon
}

// Release returns a DP release of value.
func (m GaussianMechanism) Release(value float64, r *rng.RNG) float64 {
	return value + r.Normal(0, m.Sigma())
}

// ReleaseVector adds independent Gaussian noise to each coordinate; the
// sensitivity must be the L2 sensitivity of the whole vector.
func (m GaussianMechanism) ReleaseVector(values []float64, r *rng.RNG) []float64 {
	out := make([]float64, len(values))
	sigma := m.Sigma()
	for i, v := range values {
		out[i] = v + r.Normal(0, sigma)
	}
	return out
}

// Cost returns the (ε, δ) budget consumed by one release.
func (m GaussianMechanism) Cost() Budget { return Budget{Epsilon: m.Epsilon, Delta: m.Delta} }

// TailBound returns t such that one Gaussian noise draw is below -t with
// probability at most eta (one-sided): t = σ·Φ^{-1}(1-η) approximated via
// the standard bound t = σ·sqrt(2·ln(1/η)).
func (m GaussianMechanism) TailBound(eta float64) float64 {
	if eta <= 0 || eta >= 1 {
		panic("privacy: TailBound requires eta in (0,1)")
	}
	return m.Sigma() * math.Sqrt(2*math.Log(1/eta))
}

// Clip returns x clipped to [lo, hi]. Clipping bounds the sensitivity of
// sums over user-supplied values and is used throughout the validators.
func Clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
