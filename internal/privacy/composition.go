package privacy

import (
	"math"
)

// This file implements the strong composition theorems of the paper's
// Appendix A. Sage's ledger composes each block's losses with the basic
// theorem (Dwork et al. 2006; Theorem 4.3): ε and δ add up, which is
// Budget.Add. The two bounds below are kept as pure functions for the
// composition ablation (BenchmarkAblationComposition), which counts
// how many small queries a block would afford under each:
//
//   - StrongCompose: advanced composition (Dwork, Rothblum, Vadhan 2010,
//     as stated in Dwork & Roth Thm 3.20), Theorem A.1's block-level
//     accounting with DP parameters fixed in advance.
//   - AdaptiveStrongCompose: composition when the DP parameters themselves
//     are chosen adaptively (Rogers, Roth, Ullman, Vadhan 2016, Thm 5.1),
//     used by Theorem A.2. The constant 28.04 below is from the paper's
//     statement of that bound.

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
// The returned budget is valid whenever its Epsilon ≤ epsG; the caller
// enforces that inequality.
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
