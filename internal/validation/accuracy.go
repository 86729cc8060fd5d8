package validation

import (
	"repro/internal/privacy"
	"repro/internal/rng"
)

// AccuracyValidator is the SLAed validator for classification accuracy
// (Appendix B.2). Accuracy is a binomial proportion, so the confidence
// bounds use Clopper–Pearson intervals, which are tighter than the
// generic concentration bounds of the loss validator.
type AccuracyValidator struct {
	Config
	// Target is the accuracy the model must reach (τ_acc).
	Target float64
}

// Accept runs the ACCEPT test on the test set: correct is the number of
// correct predictions out of n. The test is (ε, 0)-DP (ε/2 for the
// correct-count, ε/2 for the total count; both have sensitivity 1).
// ACCEPT requires the lower confidence bound on accuracy to reach Target.
func (v AccuracyValidator) Accept(correct, n int, r *rng.RNG) bool {
	v.Config.validate()
	k, total := float64(correct), float64(n)
	if v.Mode.isDP() {
		mech := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: v.Epsilon / 2}
		k = mech.Release(k, r)
		total = mech.Release(total, r)
		if v.Mode.corrects() {
			// Worst case: noise inflated k and deflated total.
			k -= mech.TailBound(v.Eta / 3)
			total += mech.TailBound(v.Eta / 3)
		}
	}
	if total <= 1 {
		return false
	}
	if k < 0 {
		k = 0
	}
	if k > total {
		k = total
	}
	if v.Mode == ModeNoSLA {
		return k/total >= v.Target
	}
	return BinomialLower(k, total, v.Eta/3) >= v.Target
}

// Reject runs the REJECT test given the training-set accuracy of the
// best empirical classifier (computationally hard in general, as the
// paper notes; callers that cannot compute it pass correct = -1 to
// skip). REJECT requires the upper confidence bound on the best
// achievable accuracy to fall below Target.
func (v AccuracyValidator) Reject(bestCorrect, nTrain int, r *rng.RNG) bool {
	if bestCorrect < 0 || nTrain <= 0 {
		return false
	}
	v.Config.validate()
	if v.Mode == ModeNoSLA {
		return false
	}
	k, total := float64(bestCorrect), float64(nTrain)
	if v.Mode.isDP() {
		mech := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: v.Epsilon / 2}
		k = mech.Release(k, r)
		total = mech.Release(total, r)
		if v.Mode.corrects() {
			// Worst case for an upper bound: noise deflated k and
			// inflated total.
			k += mech.TailBound(v.Eta / 3)
			total -= mech.TailBound(v.Eta / 3)
		}
	}
	if total <= 1 {
		return false
	}
	if k < 0 {
		k = 0
	}
	if k > total {
		k = total
	}
	return BinomialUpper(k, total, v.Eta/3) < v.Target
}
