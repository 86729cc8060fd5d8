package privacy

import (
	"math"
)

// This file implements the composition arithmetics Sage's block accounting
// builds on (§4 and Appendix A of the paper):
//
//   - BasicCompose: the basic composition theorem (Dwork et al. 2006),
//     ε and δ add up.
//   - StrongCompose: advanced composition (Dwork, Rothblum, Vadhan 2010,
//     as stated in Dwork & Roth Thm 3.20), used by Theorem A.1 for
//     block-level accounting with DP parameters fixed in advance.
//   - AdaptiveStrongCompose: composition when the DP parameters themselves
//     are chosen adaptively (Rogers, Roth, Ullman, Vadhan 2016, Thm 5.1),
//     used by Theorem A.2. The constant 28.04 below is from the paper's
//     statement of that bound.

// BasicCompose returns the basic-composition privacy loss of running all
// the given budgets on one dataset: (Σεi, Σδi).
func BasicCompose(budgets []Budget) Budget {
	total := Zero
	for _, b := range budgets {
		total = total.Add(b)
	}
	return total
}

// StrongCompose returns the advanced-composition privacy loss of running
// the given budgets with parameters fixed in advance, for a slack
// parameter deltaSlack (the δ̃ of Theorem A.1):
//
//	ε = Σ (e^{εi}−1)·εi + sqrt(2·ln(1/δ̃)·Σ εi²)
//	δ = δ̃ + Σ δi
func StrongCompose(budgets []Budget, deltaSlack float64) Budget {
	if deltaSlack <= 0 || deltaSlack >= 1 {
		panic("privacy: StrongCompose requires deltaSlack in (0,1)")
	}
	linear, sumSq, sumDelta := 0.0, 0.0, 0.0
	for _, b := range budgets {
		linear += (math.Exp(b.Epsilon) - 1) * b.Epsilon
		sumSq += b.Epsilon * b.Epsilon
		sumDelta += b.Delta
	}
	eps := linear + math.Sqrt(2*sumSq*math.Log(1/deltaSlack))
	return Budget{Epsilon: eps, Delta: math.Min(1, deltaSlack+sumDelta)}
}

// AdaptiveStrongCompose returns the privacy loss bound for a sequence of
// budgets chosen adaptively, against a global epsilon target epsG
// (Rogers et al. 2016 Theorem 5.1, as used in Theorem A.2):
//
//	ε = Σ εi(e^{εi}−1)/2
//	  + sqrt( 2·(Σεi² + εg²/(28.04·ln(1/δ̃)))
//	          · (1 + ½·ln( 28.04·ln(1/δ̃)·Σεi²/εg² + 1 )) · ln(1/δ̃) )
//	δ = δ̃ + Σ δi
//
// The returned budget is valid whenever its Epsilon ≤ epsG; callers (the
// block-level access control) enforce that inequality.
func AdaptiveStrongCompose(budgets []Budget, epsG, deltaSlack float64) Budget {
	if deltaSlack <= 0 || deltaSlack >= 1 {
		panic("privacy: AdaptiveStrongCompose requires deltaSlack in (0,1)")
	}
	if epsG <= 0 {
		panic("privacy: AdaptiveStrongCompose requires epsG > 0")
	}
	linear, sumSq, sumDelta := 0.0, 0.0, 0.0
	for _, b := range budgets {
		linear += b.Epsilon * (math.Exp(b.Epsilon) - 1) / 2
		sumSq += b.Epsilon * b.Epsilon
		sumDelta += b.Delta
	}
	logInv := math.Log(1 / deltaSlack)
	const c = 28.04
	a := sumSq + epsG*epsG/(c*logInv)
	inner := 1 + 0.5*math.Log(c*logInv*sumSq/(epsG*epsG)+1)
	eps := linear + math.Sqrt(2*a*inner*logInv)
	return Budget{Epsilon: eps, Delta: math.Min(1, deltaSlack+sumDelta)}
}

// Accountant tracks the cumulative privacy loss of a sequence of DP
// releases against one protected entity (Sage uses one Accountant per data
// block). The arithmetic used to combine losses is pluggable so that basic
// and strong composition can be compared (ablation in bench_test.go).
type Accountant struct {
	arith  CompositionArithmetic
	spends []Budget
	// basic caches the running basic-composition sum so the common
	// (basic-arithmetic) accounting path is O(1) per request instead of
	// O(spends).
	basic   Budget
	isBasic bool
}

// CompositionArithmetic converts a sequence of per-query budgets into a
// cumulative privacy loss.
type CompositionArithmetic interface {
	// Loss returns the cumulative privacy loss of the given spends.
	Loss(spends []Budget) Budget
	// Name identifies the arithmetic in logs and experiment output.
	Name() string
}

// BasicArithmetic sums budgets (basic composition, Theorem 4.3).
type BasicArithmetic struct{}

// Loss implements CompositionArithmetic.
func (BasicArithmetic) Loss(spends []Budget) Budget { return BasicCompose(spends) }

// Name implements CompositionArithmetic.
func (BasicArithmetic) Name() string { return "basic" }

// StrongArithmetic applies advanced composition with a fixed δ̃ slack
// (Theorem A.1).
type StrongArithmetic struct{ DeltaSlack float64 }

// Loss implements CompositionArithmetic.
func (s StrongArithmetic) Loss(spends []Budget) Budget {
	if len(spends) == 0 {
		return Zero
	}
	basic := BasicCompose(spends)
	strong := StrongCompose(spends, s.DeltaSlack)
	// Either bound is valid; report the tighter ε (basic can win for few
	// large-ε queries, strong wins for many small-ε queries).
	if basic.Epsilon <= strong.Epsilon {
		return basic
	}
	return strong
}

// Name implements CompositionArithmetic.
func (s StrongArithmetic) Name() string { return "strong" }

// AdaptiveStrongArithmetic applies Rogers et al. adaptive-parameter strong
// composition against a global target (Theorem A.2).
type AdaptiveStrongArithmetic struct {
	EpsG       float64
	DeltaSlack float64
}

// Loss implements CompositionArithmetic.
func (s AdaptiveStrongArithmetic) Loss(spends []Budget) Budget {
	if len(spends) == 0 {
		return Zero
	}
	basic := BasicCompose(spends)
	adaptive := AdaptiveStrongCompose(spends, s.EpsG, s.DeltaSlack)
	if basic.Epsilon <= adaptive.Epsilon {
		return basic
	}
	return adaptive
}

// Name implements CompositionArithmetic.
func (s AdaptiveStrongArithmetic) Name() string { return "adaptive-strong" }

// NewAccountant returns an accountant using the given arithmetic.
// A nil arithmetic defaults to basic composition.
func NewAccountant(arith CompositionArithmetic) *Accountant {
	if arith == nil {
		arith = BasicArithmetic{}
	}
	_, isBasic := arith.(BasicArithmetic)
	return &Accountant{arith: arith, isBasic: isBasic}
}

// Spend records a DP release with the given budget.
func (a *Accountant) Spend(b Budget) {
	if err := b.Validate(); err != nil {
		panic(err)
	}
	a.spends = append(a.spends, b)
	a.basic = a.basic.Add(b)
}

// CanRefund reports whether the recorded spends cover b, i.e. whether
// Refund(b) would succeed. It changes nothing.
func (a *Accountant) CanRefund(b Budget) bool {
	for i := len(a.spends) - 1; i >= 0 && !b.IsZero(); i-- {
		b = b.Sub(a.spends[i].Min(b))
	}
	return b.IsZero()
}

// Refund removes budget from the most recent spend(s). It is used when a
// reserved budget was not fully consumed. Refunding more than was spent
// would under-count privacy loss: it panics, with nothing removed —
// callers whose b comes from outside the program ask CanRefund first.
func (a *Accountant) Refund(b Budget) {
	if !a.CanRefund(b) {
		panic("privacy: refund exceeds recorded spends")
	}
	for i := len(a.spends) - 1; i >= 0 && !b.IsZero(); i-- {
		take := a.spends[i].Min(b)
		a.spends[i] = a.spends[i].Sub(take)
		a.basic = a.basic.Sub(take)
		b = b.Sub(take)
		if a.spends[i].IsZero() {
			a.spends = a.spends[:i]
		}
	}
}

// Loss returns the cumulative privacy loss under the accountant's
// arithmetic.
func (a *Accountant) Loss() Budget {
	if a.isBasic {
		return a.basic
	}
	return a.arith.Loss(a.spends)
}

// WouldExceed reports whether spending b next would push the cumulative
// loss beyond the ceiling.
func (a *Accountant) WouldExceed(b Budget, ceiling Budget) bool {
	if a.isBasic {
		return !ceiling.Covers(a.basic.Add(b))
	}
	trial := append(append([]Budget{}, a.spends...), b)
	loss := a.arith.Loss(trial)
	return !ceiling.Covers(loss)
}

// Spends returns a copy of the recorded per-query budgets.
func (a *Accountant) Spends() []Budget {
	return append([]Budget{}, a.spends...)
}

// NumSpends returns the number of recorded releases.
func (a *Accountant) NumSpends() int { return len(a.spends) }
