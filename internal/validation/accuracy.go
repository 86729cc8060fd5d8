package validation

import "repro/internal/rng"

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
	// η/2 for ACCEPT, η/2 for REJECT, a third of it for each event: the
	// two counts' noise tails and the Clopper–Pearson bound.
	share := v.Eta / 2 / 3
	// Worst case for a lower bound: noise inflated k and deflated total.
	k := v.release(float64(correct), 1, share, -1, r)
	total := v.release(float64(n), 1, share, +1, r)
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
	return BinomialLower(k, total, share) >= v.Target
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
	share := v.Eta / 2 / 3 // as in Accept
	// Worst case for an upper bound: noise deflated k and inflated total.
	k := v.release(float64(bestCorrect), 1, share, +1, r)
	total := v.release(float64(nTrain), 1, share, -1, r)
	if total <= 1 {
		return false
	}
	if k < 0 {
		k = 0
	}
	if k > total {
		k = total
	}
	return BinomialUpper(k, total, share) < v.Target
}
