// Package adaptive implements Sage's privacy-adaptive training (§3.3):
// a retry loop around an (ε, δ)-DP training pipeline that doubles either
// the privacy budget or the amount of training data on each RETRY from
// the SLAed validator, until the model is ACCEPTed or REJECTed (or the
// search exhausts its caps).
//
// The doubling schedule gives the paper's resource bound: when a model is
// accepted, the budget burned by all failed iterations is at most the
// final iteration's budget, and the final budget overshoots the smallest
// sufficient one by at most 2×, so the search costs at most 4× the
// optimum.
//
// What an iteration costs in time is the pipeline's to decide
// (internal/pipeline): an iteration that ACCEPTs trains once; only one
// that does not also fits the ERM, for the REJECT test that separates
// "retry with more" from "no model in the class can do it".
// BenchmarkStreamIteration times one iteration on a daemon-shaped heap.
package adaptive

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/validation"
)

// Search configures a privacy-adaptive training search.
type Search struct {
	// Pipe is the DP training pipeline to drive.
	Pipe *pipeline.Pipeline
	// Epsilon0 is the initial (conservative) budget (paper's ε0).
	Epsilon0 float64
	// EpsilonCap bounds the pipeline budget (the paper caps at ε = 1).
	EpsilonCap float64
	// Delta is the training δ.
	Delta float64
	// MinSamples is the initial window size.
	MinSamples int
	// MaxSamples caps the data the search may consume (0 = all
	// available).
	MaxSamples int
	// Aggressive selects the Block/Aggressive strategy of §5.4: start
	// directly at EpsilonCap and all available data, instead of the
	// budget-conserving doubling schedule.
	Aggressive bool
}

// Result reports the outcome of a search.
type Result struct {
	Decision validation.Decision
	// Samples is the window size of the final iteration.
	Samples int
	// FinalBudget is the budget of the final iteration.
	FinalBudget privacy.Budget
	// TotalSpent accumulates the budget of every iteration (the 4×
	// bound is on this quantity).
	TotalSpent privacy.Budget
	// Iterations counts pipeline invocations.
	Iterations int
	// Quality is the DP quality estimate of the final iteration.
	Quality float64
	// Model is the final model (nil unless ACCEPTed).
	Model interface{ Predict([]float64) float64 }
}

// Run executes the search over growing prefixes of the stream until
// ACCEPT, REJECT, or resource exhaustion (which yields RETRY, meaning
// "wait for more stream data").
func (s Search) Run(stream *data.Dataset, r *rng.RNG) (Result, error) {
	if s.Pipe == nil {
		return Result{}, fmt.Errorf("adaptive: nil pipeline")
	}
	if s.Epsilon0 <= 0 || s.EpsilonCap < s.Epsilon0 {
		return Result{}, fmt.Errorf("adaptive: need 0 < Epsilon0 ≤ EpsilonCap, got %v, %v",
			s.Epsilon0, s.EpsilonCap)
	}
	if s.MinSamples <= 0 {
		return Result{}, fmt.Errorf("adaptive: MinSamples must be > 0")
	}
	maxSamples := s.MaxSamples
	if maxSamples == 0 || maxSamples > stream.Len() {
		maxSamples = stream.Len()
	}

	eps := s.Epsilon0
	n := s.MinSamples
	if s.Aggressive {
		eps = s.EpsilonCap
		n = maxSamples
	}
	if n > maxSamples {
		n = maxSamples
	}

	var res Result
	for {
		res.Iterations++
		ds := stream.Head(n)
		budget := privacy.Budget{Epsilon: eps, Delta: s.Delta}
		out, err := s.Pipe.Run(ds, budget, r)
		if err != nil {
			return res, err
		}
		res.Samples = ds.Len()
		res.FinalBudget = out.Spent
		res.TotalSpent = res.TotalSpent.Add(out.Spent)
		res.Quality = out.Quality
		res.Decision = out.Decision

		switch out.Decision {
		case validation.Accept:
			res.Model = out.Model
			return res, nil
		case validation.Reject:
			return res, nil
		}
		// RETRY: double the budget while allocation remains, else
		// double the data window (§3.3's conserving schedule).
		switch {
		case eps*2 <= s.EpsilonCap:
			eps *= 2
		case n < maxSamples:
			n *= 2
			if n > maxSamples {
				n = maxSamples
			}
		default:
			// Out of both resources: report RETRY to the caller,
			// who waits for new stream data.
			return res, nil
		}
	}
}
