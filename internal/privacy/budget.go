// Package privacy implements the differential-privacy primitives Sage is
// built on: (ε, δ) budgets and their arithmetic (Budget.Add is the basic
// composition block accounting uses), the Laplace and Gaussian mechanisms,
// the strong composition bounds of Appendix A (Dwork et al.; Rogers et al.
// for adaptively chosen parameters), kept for the composition ablation,
// and a Rényi-DP accountant for the subsampled Gaussian mechanism used to
// calibrate DP-SGD noise.
package privacy

import (
	"fmt"
	"math"
)

// Budget is an (ε, δ) differential-privacy budget or privacy loss.
// Epsilon must be >= 0 and Delta in [0, 1].
type Budget struct {
	Epsilon float64
	Delta   float64
}

// Zero is the empty budget.
var Zero = Budget{}

// NewBudget returns a validated budget.
func NewBudget(epsilon, delta float64) (Budget, error) {
	b := Budget{Epsilon: epsilon, Delta: delta}
	if err := b.Validate(); err != nil {
		return Budget{}, err
	}
	return b, nil
}

// MustBudget returns a validated budget and panics on invalid parameters.
// Intended for literals in tests and examples.
func MustBudget(epsilon, delta float64) Budget {
	b, err := NewBudget(epsilon, delta)
	if err != nil {
		panic(err)
	}
	return b
}

// Validate reports whether the budget parameters are in range.
func (b Budget) Validate() error {
	if math.IsNaN(b.Epsilon) || math.IsInf(b.Epsilon, 0) || b.Epsilon < 0 {
		return fmt.Errorf("privacy: epsilon %v out of range [0, ∞)", b.Epsilon)
	}
	if math.IsNaN(b.Delta) || b.Delta < 0 || b.Delta > 1 {
		return fmt.Errorf("privacy: delta %v out of range [0, 1]", b.Delta)
	}
	return nil
}

// IsZero reports whether the budget is exactly (0, 0).
func (b Budget) IsZero() bool { return b.Epsilon == 0 && b.Delta == 0 }

// Add returns the basic-composition sum of two budgets:
// (ε1+ε2, δ1+δ2). Delta saturates at 1.
func (b Budget) Add(o Budget) Budget {
	return Budget{Epsilon: b.Epsilon + o.Epsilon, Delta: math.Min(1, b.Delta+o.Delta)}
}

// Sub returns b - o, clamping at zero. It is used when refunding reserved
// but unspent budget.
func (b Budget) Sub(o Budget) Budget {
	return Budget{
		Epsilon: math.Max(0, b.Epsilon-o.Epsilon),
		Delta:   math.Max(0, b.Delta-o.Delta),
	}
}

// Split divides the budget into n equal parts (basic composition in
// reverse). It panics if n <= 0.
func (b Budget) Split(n int) Budget {
	if n <= 0 {
		panic("privacy: Split requires n > 0")
	}
	return Budget{Epsilon: b.Epsilon / float64(n), Delta: b.Delta / float64(n)}
}

// Covers reports whether budget b is at least as large as o in both
// components (with a tiny tolerance for floating-point accumulation).
func (b Budget) Covers(o Budget) bool {
	const tol = 1e-12
	return b.Epsilon+tol >= o.Epsilon && b.Delta+tol >= o.Delta
}

// String formats the budget as "(ε=…, δ=…)".
func (b Budget) String() string {
	return fmt.Sprintf("(ε=%.6g, δ=%.3g)", b.Epsilon, b.Delta)
}
