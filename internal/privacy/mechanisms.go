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
