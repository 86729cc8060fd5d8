// Package adaptive implements Sage's privacy-adaptive training (§3.3):
// a retry loop around an (ε, δ)-DP training pipeline that, on each RETRY
// from the SLAed validator, doubles the privacy budget while it stays
// under its cap, else doubles the training window up to what there is,
// until the model is ACCEPTed or REJECTed.
//
// The schedule is written once (run) and driven two ways: Search over
// growing prefixes of an in-memory stream (Fig. 6, Table 2), and
// StreamTrainer over the newest blocks of a GrowingDatabase under an
// AccessControl (the daemon). Both report running out of budget and
// window the same way: Decision RETRY with ErrInsufficientBudget, the
// caller's cue to wait for more data. Each RETRY grows one resource
// until it is spent, so a search makes at most
// log2(cap/ε0) + log2(limit/n0) + 1 attempts.
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
	"errors"
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/validation"
)

// Search configures a privacy-adaptive training search over growing
// prefixes of a stream.
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
	// Iterations counts the pipeline runs that returned a decision.
	Iterations int
	// Quality is the DP quality estimate of the final iteration.
	Quality float64
	// Model is the final model (nil unless ACCEPTed).
	Model ml.Model
	// Blocks are the blocks the final iteration trained on (StreamTrainer
	// only).
	Blocks []data.BlockID
}

// ErrInsufficientBudget is returned when the search has run out of
// budget and window before a decision; the caller should wait for new
// data.
var ErrInsufficientBudget = errors.New("adaptive: insufficient block budget; wait for new data")

// Run executes the search over growing prefixes of the stream until
// ACCEPT, REJECT, or ErrInsufficientBudget once the whole stream at
// EpsilonCap still yields RETRY. A pipeline run reorders what it is
// handed, so each attempt gets its own copy of its prefix: the stream's
// order is left alone, and searches may share one stream concurrently.
// The copies go into one window from windowPool, which concurrent
// searches (Fig. 6 and Table 2 cells) share; its headers are cleared,
// up to the longest prefix of the search, before it goes back, so the
// pool keeps no row of a dropped stream reachable.
func (s Search) Run(stream *data.Dataset, r *rng.RNG) (Result, error) {
	if s.Pipe == nil {
		return Result{}, fmt.Errorf("adaptive: nil pipeline")
	}
	if s.MinSamples <= 0 {
		return Result{}, fmt.Errorf("adaptive: MinSamples must be > 0")
	}
	buf := windowPool.Get().(*[]data.Example)
	used := 0
	defer func() {
		clear((*buf)[:used])
		windowPool.Put(buf)
	}()
	limit := stream.Len()
	return run(s.Epsilon0, s.EpsilonCap, s.Delta, min(s.MinSamples, limit), limit,
		func(b privacy.Budget, n int, res *Result) (pipeline.Result, error) {
			ds := &data.Dataset{Examples: append((*buf)[:0], stream.Examples[:n]...)}
			*buf, used = ds.Examples, max(used, ds.Len())
			res.Samples = ds.Len()
			return s.Pipe.Run(ds, b, r)
		})
}

// windowPool holds the windows Search.Run copies its prefixes into.
var windowPool = sync.Pool{New: func() any { return new([]data.Example) }}

// run is §3.3's schedule. Each attempt trains once at budget b on a
// window of n (rows or blocks) and records in res what it trained on. On
// RETRY run doubles ε while 2ε ≤ epsCap, else doubles n up to limit, else
// stops with ErrInsufficientBudget.
func run(eps0, epsCap, delta float64, n, limit int,
	attempt func(b privacy.Budget, n int, res *Result) (pipeline.Result, error)) (Result, error) {
	if eps0 <= 0 || epsCap < eps0 {
		return Result{}, fmt.Errorf("adaptive: need 0 < Epsilon0 ≤ EpsilonCap, got %v, %v", eps0, epsCap)
	}
	var res Result
	eps := eps0
	for {
		out, err := attempt(privacy.Budget{Epsilon: eps, Delta: delta}, n, &res)
		if err != nil {
			return res, err
		}
		res.Iterations++
		res.FinalBudget = out.Spent
		res.TotalSpent = res.TotalSpent.Add(out.Spent)
		res.Quality = out.Quality
		res.Decision = out.Decision
		switch {
		case out.Decision == validation.Accept:
			res.Model = out.Model
			return res, nil
		case out.Decision == validation.Reject:
			return res, nil
		case eps*2 <= epsCap:
			eps *= 2
		case n < limit:
			n = min(2*n, limit)
		default:
			return res, ErrInsufficientBudget
		}
	}
}
