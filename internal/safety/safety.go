// Package safety pins resource-safety properties as ordinary tests.
//
// The first property covered is allocation budgets: hot paths whose
// performance rests on *not* allocating (an encode cache hit, a pooled
// batch decode) regress silently under plain correctness tests — the
// output is identical, only the garbage differs. MaxAllocs turns the
// measured allocations-per-operation into a test failure, so undoing a
// pooling or caching optimization fails `go test` instead of waiting
// for a benchmark run to be eyeballed.
//
// Budgets should be set with headroom above the measured steady state
// (runtime and encoding/json internals shift a little between Go
// releases) but far below the unoptimized number, so the test is quiet
// across toolchain bumps yet loud when the optimization is lost.
package safety

import (
	"math"
	"runtime"
	"testing"
)

// MaxAllocs measures f's steady-state heap allocations per run with
// testing.AllocsPerRun and fails tb when they exceed budget. It
// returns the measured value so callers can log it.
//
// Under the race detector allocation counts are inflated by
// instrumentation, so the check is skipped rather than pinned to
// numbers that only hold without -race.
func MaxAllocs(tb testing.TB, runs int, budget float64, f func()) float64 {
	tb.Helper()
	if RaceEnabled {
		tb.Skip("allocation counts are not stable under the race detector")
	}
	got := testing.AllocsPerRun(runs, f)
	if got > budget {
		tb.Errorf("allocations per run = %.1f, budget is %.1f: a zero/low-alloc fast path has regressed", got, budget)
	}
	return got
}

// LeastBytes returns the fewest heap bytes one of runs calls of f
// allocated: the fewest, because the runtime may allocate on the side.
// The race detector inflates bytes as it does counts, so a test that
// pins the figure skips under RaceEnabled.
func LeastBytes(runs int, f func()) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
