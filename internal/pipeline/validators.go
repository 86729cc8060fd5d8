package pipeline

import (
	"slices"
	"sync"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/validation"
)

// MSEValidator validates regression pipelines against an MSE target
// using the loss SLAed validator (Listing 2). If ERMTrainer is non-nil
// it fits the empirical risk minimizer on the training set for the
// REJECT test (valid for convex classes; leave nil for NNs) — only once
// ACCEPT has failed, since REJECT is all the ERM is for.
type MSEValidator struct {
	// Target is the maximum tolerated MSE (τ_loss).
	Target float64
	// B bounds each squared error (labels in [0,1] ⇒ B = 1).
	B float64
	// ERMTrainer optionally fits fˆ for REJECT.
	ERMTrainer Trainer
}

// Validate implements Validator. The test losses and, once ACCEPT has
// failed, the ERM's training losses are written into one buffer from
// lossPool, so a validation allocates nothing that grows with the data.
func (v MSEValidator) Validate(m ml.Model, test, train *data.Dataset, cfg validation.Config, r *rng.RNG) (validation.Decision, float64) {
	buf := lossPool.Get().(*[]float64)
	defer lossPool.Put(buf)
	lv := validation.LossValidator{Config: cfg, Target: v.Target, B: v.B}
	var mse float64
	*buf, mse = squaredLosses(*buf, m, test, v.B)
	if lv.Accept(*buf, r) {
		return validation.Accept, mse
	}
	if v.ERMTrainer != nil && train != nil && train.Len() > 0 {
		*buf, _ = squaredLosses(*buf, v.ERMTrainer.Train(train, cfg.Cost(), r), train, v.B)
		if lv.Reject(*buf, r) {
			return validation.Reject, mse
		}
	}
	return validation.Retry, mse
}

// lossPool holds MSEValidator's per-example loss buffers. A loss is a
// float, not a reference, so a pooled buffer keeps no row reachable and
// goes back as it is.
var lossPool = sync.Pool{New: func() any { return new([]float64) }}

// squaredLosses writes per-example squared errors clipped to [0, b] into
// into[:0], grown to ds.Len() if it lacks the room, and returns them
// with their unclipped mean (ml.MSE's value, from the same residuals).
func squaredLosses(into []float64, m ml.Model, ds *data.Dataset, b float64) (losses []float64, mse float64) {
	losses = slices.Grow(into[:0], ds.Len())[:ds.Len()]
	sum := 0.0
	for i, ex := range ds.Examples {
		d := m.Predict(ex.Features) - ex.Label
		l := d * d
		sum += l
		if l > b {
			l = b
		}
		losses[i] = l
	}
	return losses, sum / float64(max(1, len(losses)))
}

// AccuracyValidator validates classification pipelines against an
// accuracy target using Clopper–Pearson bounds (Appendix B.2). The
// REJECT test needs the best empirical classifier, which is
// computationally hard in general; it is skipped (as for the paper's
// NNs) unless ERMTrainer is provided.
type AccuracyValidator struct {
	// Target is the minimum required accuracy (τ_acc).
	Target float64
	// ERMTrainer optionally fits an approximate best classifier for
	// REJECT.
	ERMTrainer Trainer
}

// Validate implements Validator. As for MSEValidator, the ERM is fitted
// only once ACCEPT has failed.
func (v AccuracyValidator) Validate(m ml.Model, test, train *data.Dataset, cfg validation.Config, r *rng.RNG) (validation.Decision, float64) {
	av := validation.AccuracyValidator{Config: cfg, Target: v.Target}
	correct := countCorrect(m, test)
	accuracy := float64(correct) / float64(max(1, test.Len()))
	if av.Accept(correct, test.Len(), r) {
		return validation.Accept, accuracy
	}
	if v.ERMTrainer != nil && train != nil && train.Len() > 0 {
		bestCorrect := countCorrect(v.ERMTrainer.Train(train, cfg.Cost(), r), train)
		if av.Reject(bestCorrect, train.Len(), r) {
			return validation.Reject, accuracy
		}
	}
	return validation.Retry, accuracy
}

// countCorrect returns the number of correct thresholded predictions.
func countCorrect(m ml.Model, ds *data.Dataset) int {
	correct := 0
	for _, ex := range ds.Examples {
		pred := 0.0
		if m.Predict(ex.Features) >= 0.5 {
			pred = 1
		}
		if pred == ex.Label {
			correct++
		}
	}
	return correct
}
