package adaptive

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/validation"
)

// StreamTrainer is the Sage Iterator of §3.2/§3.3: it drives a pipeline
// against a GrowingDatabase under an AccessControl, requesting block
// budgets before each attempt and widening its window / doubling its
// budget on RETRY. This is the component that makes privacy-adaptive
// training work end-to-end with block composition.
type StreamTrainer struct {
	AC   *core.AccessControl
	DB   *data.GrowingDatabase
	Pipe *pipeline.Pipeline

	// Epsilon0 is the first attempt's budget; EpsilonCap bounds it.
	Epsilon0   float64
	EpsilonCap float64
	// Delta is the per-attempt training δ.
	Delta float64
	// MinWindow is the initial number of most-recent blocks to train on.
	MinWindow int
	// MaxIterations bounds the retry loop (safety valve; default 20).
	MaxIterations int
}

// ErrInsufficientBudget is returned when the requested window cannot
// afford the next attempt; the caller should wait for new blocks.
var ErrInsufficientBudget = errors.New("adaptive: insufficient block budget; wait for new data")

// ErrLedger wraps every failure of the ledger itself — a budget request
// or refund the access control could not make durable. Unlike
// ErrInsufficientBudget it is not a reason to wait: the in-memory ledger
// and its journal may have parted, so the caller should stop mutating.
var ErrLedger = errors.New("adaptive: privacy ledger failure")

// StreamResult reports a stream training run.
type StreamResult struct {
	Result
	// Blocks used by the final iteration.
	Blocks []data.BlockID
}

// Run executes privacy-adaptive training against the stream.
func (st *StreamTrainer) Run(r *rng.RNG) (StreamResult, error) {
	if st.AC == nil || st.DB == nil || st.Pipe == nil {
		return StreamResult{}, fmt.Errorf("adaptive: StreamTrainer missing AC, DB, or Pipe")
	}
	if st.Epsilon0 <= 0 || st.EpsilonCap < st.Epsilon0 {
		return StreamResult{}, fmt.Errorf("adaptive: need 0 < Epsilon0 ≤ EpsilonCap")
	}
	minWindow := st.MinWindow
	if minWindow <= 0 {
		minWindow = 1
	}
	maxIter := st.MaxIterations
	if maxIter <= 0 {
		maxIter = 20
	}

	eps := st.Epsilon0
	window := minWindow
	var out StreamResult

	for iter := 0; iter < maxIter; iter++ {
		budget := privacy.Budget{Epsilon: eps, Delta: st.Delta}
		blocks := st.AC.AvailableBlocks(st.DB.Blocks(), budget)
		if len(blocks) > window {
			blocks = blocks[len(blocks)-window:]
		}
		if len(blocks) < window {
			// Not enough affordable blocks for this window size.
			out.Decision = validation.Retry
			return out, ErrInsufficientBudget
		}
		if err := st.AC.Request(blocks, budget); err != nil {
			out.Decision = validation.Retry
			// A block that was affordable a moment ago may have been
			// charged or retired by a concurrent pipeline: that is the
			// same "wait" as an unaffordable window. Anything else is
			// the ledger failing, not the budget running out.
			var exhausted core.ErrBlockExhausted
			var unknown core.ErrUnknownBlock
			if errors.As(err, &exhausted) || errors.As(err, &unknown) {
				return out, ErrInsufficientBudget
			}
			return out, fmt.Errorf("%w: requesting %v: %w", ErrLedger, budget, err)
		}

		ds := st.DB.Read(blocks)
		res, err := st.Pipe.Run(ds, budget, r)
		if err != nil {
			// The budget was deducted but unused by the failed run;
			// refund it so the blocks are not charged for nothing.
			if rerr := st.AC.Refund(blocks, budget); rerr != nil {
				return out, fmt.Errorf("%w: refunding %v after a failed run (%v): %w", ErrLedger, budget, err, rerr)
			}
			return out, err
		}
		// Refund the slice of the reservation the pipeline left unspent
		// (e.g. non-DP trainer stages).
		if unspent := budget.Sub(res.Spent); !unspent.IsZero() {
			if err := st.AC.Refund(blocks, unspent); err != nil {
				return out, fmt.Errorf("%w: refunding unspent %v: %w", ErrLedger, unspent, err)
			}
		}

		out.Iterations++
		out.Samples = ds.Len()
		out.FinalBudget = res.Spent
		out.TotalSpent = out.TotalSpent.Add(res.Spent)
		out.Quality = res.Quality
		out.Decision = res.Decision
		out.Blocks = blocks

		switch res.Decision {
		case validation.Accept:
			out.Model = res.Model
			return out, nil
		case validation.Reject:
			return out, nil
		}
		// RETRY: budget first, then window (§3.3).
		switch {
		case eps*2 <= st.EpsilonCap:
			eps *= 2
		case window < st.DB.NumBlocks():
			window *= 2
			if window > st.DB.NumBlocks() {
				window = st.DB.NumBlocks()
			}
		default:
			return out, ErrInsufficientBudget
		}
	}
	return out, fmt.Errorf("adaptive: exceeded %d iterations", maxIter)
}
