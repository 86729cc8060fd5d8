package validation

import (
	"repro/internal/privacy"
	"repro/internal/rng"
)

// LossValidator is the SLAed validator for loss metrics (MSE, log loss,
// negative log likelihood) of §3.3 / Appendix B.1. ACCEPT guarantees,
// with probability ≥ 1−η, that the model's expected loss on the data
// distribution is at most Target; REJECT guarantees that no model in the
// class can reach Target.
type LossValidator struct {
	Config
	// Target is the loss the model must not exceed (τ_loss).
	Target float64
	// B bounds the per-example loss range [0, B]; losses are clipped.
	B float64
}

// lossStats aggregates clipped per-example losses. The clamp is inlined
// and streamed over the caller's slice — no clipped working copy is
// allocated, since ACCEPT runs once per validation round over up to
// millions of losses.
func (v LossValidator) lossStats(losses []float64) (sum float64, n float64) {
	b := v.B
	for _, l := range losses {
		if l < 0 {
			l = 0
		} else if l > b {
			l = b
		}
		sum += l
	}
	return sum, float64(len(losses))
}

// Accept runs the ACCEPT test (Listing 2, lines 9-21) on the
// per-example losses of the DP-trained model over the *test* set. The
// test itself is (ε, 0)-DP: ε/2 for the count, ε/2 for the loss sum.
func (v LossValidator) Accept(testLosses []float64, r *rng.RNG) bool {
	v.Config.validate()
	if v.B <= 0 {
		panic("validation: LossValidator requires B > 0")
	}
	eta := v.Eta / 2 // half the failure budget for ACCEPT, half for REJECT
	sum, n := v.lossStats(testLosses)

	if v.Mode.isDP() {
		countMech := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: v.Epsilon / 2}
		sumMech := privacy.LaplaceMechanism{Sensitivity: v.B, Epsilon: v.Epsilon / 2}
		n = countMech.Release(n, r)
		sum = sumMech.Release(sum, r)
		if v.Mode.corrects() {
			// Worst-case noise impact at confidence 1−η/3 each:
			// push n down and the loss sum up (Listing 2 lines
			// 12-18 use ln(3/(2η)) for the two-sided Laplace tail
			// at level 2η/3... we use the per-estimate η/3 tail).
			n -= countMech.TailBound(eta / 3)
			sum += sumMech.TailBound(eta / 3)
		}
	}
	if n <= 1 {
		return false
	}
	mean := sum / n
	if mean < 0 {
		mean = 0
	}

	if v.Mode == ModeNoSLA {
		// Vanilla TFX: point comparison, no confidence bound.
		return mean <= v.Target
	}
	ub := BernsteinUpperBound(mean, n, eta/3, v.B)
	return ub <= v.Target
}

// Reject runs the REJECT test (Appendix B.1) given the per-example
// *training* losses of the best empirical model fˆ in the class (the
// ERM; computable for convex classes, unavailable for NNs — pass nil to
// skip). It is (ε, 0)-DP: releasing Ltr(fˆ) has sensitivity B because
// the ERM's training loss moves by at most B when one point changes.
func (v LossValidator) Reject(bestTrainLosses []float64, r *rng.RNG) bool {
	if len(bestTrainLosses) == 0 {
		return false
	}
	v.Config.validate()
	if v.Mode == ModeNoSLA {
		return false // vanilla validation never proves impossibility
	}
	eta := v.Eta / 2
	sum, n := v.lossStats(bestTrainLosses)

	if v.Mode.isDP() {
		countMech := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: v.Epsilon / 2}
		sumMech := privacy.LaplaceMechanism{Sensitivity: v.B, Epsilon: v.Epsilon / 2}
		n = countMech.Release(n, r)
		sum = sumMech.Release(sum, r)
		if v.Mode.corrects() {
			// Lower-bound the best loss: push the sum down and n up.
			n += countMech.TailBound(eta / 3)
			sum -= sumMech.TailBound(eta / 3)
		}
	}
	if n <= 1 {
		return false
	}
	lower := sum/n - HoeffdingDeviation(n, eta/3, v.B)
	return lower > v.Target
}
