package adaptive

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// StreamTrainer is the Sage Iterator of §3.2/§3.3: it drives a pipeline
// against a GrowingDatabase under an AccessControl, requesting block
// budgets before each attempt and widening its window / doubling its
// budget on RETRY. This is the component that makes privacy-adaptive
// training work end-to-end with block composition.
//
// A StreamTrainer owns the window its attempts read into, so it must not
// run concurrently with itself. A caller that keeps one across searches
// reads into the same window every time: the daemon keeps one for all
// its pipelines, which train one at a time, and sets Pipe before each
// search.
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

	// window is what every attempt reads its blocks into: it outlives
	// the search, so the daemon, which searches once a tick forever, does
	// not grow a window per attempt. Run clears the headers it wrote
	// before it returns, so a trainer kept between searches keeps no row
	// of a deleted block reachable.
	window []data.Example
}

// ErrLedger wraps every failure of the ledger itself — a budget request
// or refund the access control could not make durable. Unlike
// ErrInsufficientBudget it is not a reason to wait: the in-memory ledger
// and its journal may have parted, so the caller should stop mutating.
var ErrLedger = errors.New("adaptive: privacy ledger failure")

// Run executes privacy-adaptive training against the stream: each
// attempt trains on the newest window of blocks that can afford its
// budget, and ends the search with ErrInsufficientBudget when there are
// fewer such blocks than the window needs. Every attempt reads into the
// trainer's own window, whose headers are cleared, up to the longest
// window of the search, before Run returns.
func (st *StreamTrainer) Run(r *rng.RNG) (Result, error) {
	if st.AC == nil || st.DB == nil || st.Pipe == nil {
		return Result{}, fmt.Errorf("adaptive: StreamTrainer missing AC, DB, or Pipe")
	}
	used := 0
	defer func() { clear(st.window[:used]) }()
	return run(st.Epsilon0, st.EpsilonCap, st.Delta, max(st.MinWindow, 1), st.DB.NumBlocks(),
		func(budget privacy.Budget, window int, out *Result) (pipeline.Result, error) {
			blocks := st.AC.AvailableBlocks(st.DB.Blocks(), budget)
			if len(blocks) > window {
				blocks = blocks[len(blocks)-window:]
			}
			if len(blocks) < window {
				// Not enough affordable blocks for this window size.
				return pipeline.Result{}, ErrInsufficientBudget
			}
			if err := st.AC.Request(blocks, budget); err != nil {
				// A block that was affordable a moment ago may have been
				// charged or retired by a concurrent pipeline: that is the
				// same "wait" as an unaffordable window. Anything else is
				// the ledger failing, not the budget running out.
				var exhausted core.ErrBlockExhausted
				var unknown core.ErrUnknownBlock
				if errors.As(err, &exhausted) || errors.As(err, &unknown) {
					return pipeline.Result{}, ErrInsufficientBudget
				}
				return pipeline.Result{}, fmt.Errorf("%w: requesting %v: %w", ErrLedger, budget, err)
			}

			ds := st.DB.Read(st.window, blocks)
			st.window, used = ds.Examples, max(used, ds.Len())
			res, err := st.Pipe.Run(ds, budget, r)
			if err != nil {
				// The budget was deducted but unused by the failed run;
				// refund it so the blocks are not charged for nothing.
				if rerr := st.AC.Refund(blocks, budget); rerr != nil {
					return res, fmt.Errorf("%w: refunding %v after a failed run (%v): %w", ErrLedger, budget, err, rerr)
				}
				return res, err
			}
			// Refund the slice of the reservation the pipeline left unspent
			// (e.g. non-DP trainer stages).
			if unspent := budget.Sub(res.Spent); !unspent.IsZero() {
				if err := st.AC.Refund(blocks, unspent); err != nil {
					return res, fmt.Errorf("%w: refunding unspent %v: %w", ErrLedger, unspent, err)
				}
			}
			out.Samples = ds.Len()
			out.Blocks = blocks
			return res, nil
		})
}
