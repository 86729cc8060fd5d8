package validation

import (
	"repro/internal/privacy"
	"repro/internal/rng"
)

// ErrorValidator is the SLAed validator for the absolute error of
// sum-based statistics — means, variances, the per-key averages of
// Listing 1 (Appendix B.3). The target is a maximum additive error
// τ_err against the statistic's value on the data distribution.
//
// Unlike model validators there is no test set (the error is computable
// on the training data directly) and no REJECT test (by the law of large
// numbers any target is eventually reachable).
type ErrorValidator struct {
	Config
	// Target is the maximum tolerated absolute error (τ_err).
	Target float64
	// B bounds the absolute value of each data point's contribution.
	B float64
}

// Accept reports whether a DP release of a sum-based statistic over n
// data points meets the error target with probability ≥ 1−η, accounting
// for both the sampling error (Hoeffding) and the DP noise added to the
// statistic itself. The test spends ε/2 on a DP count of n; the
// statistic itself is assumed released with the other ε/2 (scale 2B/ε),
// matching Appendix B.3.
func (v ErrorValidator) Accept(n int, r *rng.RNG) bool {
	v.Config.validate()
	if v.B <= 0 {
		panic("validation: ErrorValidator requires B > 0")
	}
	share := v.Eta / 2
	total := v.release(float64(n), 1, share, -1, r)
	if total <= 1 {
		return false
	}
	noiseErr := 0.0
	if v.Mode.isDP() {
		// Worst-case impact of the Laplace(2B/ε) noise on the
		// statistic, divided by n since the statistic is a mean.
		statMech := privacy.LaplaceMechanism{Sensitivity: v.B, Epsilon: v.Epsilon / 2}
		noiseErr = statMech.TailBound(share) / total
	}
	if v.Mode == ModeNoSLA {
		// Vanilla check ignores sampling error entirely.
		return noiseErr <= v.Target
	}
	sampling := HoeffdingDeviation(total, share, v.B)
	return noiseErr+sampling <= v.Target
}
