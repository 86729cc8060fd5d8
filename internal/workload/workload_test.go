package workload

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/safety"
)

func baseCfg(strategy Strategy, rate float64) Config {
	return Config{
		Strategy:    strategy,
		BlockSize:   16000, // Taxi-scale hourly blocks
		ArrivalRate: rate,
		Hours:       600,
		Seed:        42,
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(baseCfg(BlockConserve, 0.3))
	b := Run(baseCfg(BlockConserve, 0.3))
	if a != b {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestLightLoadReleasesQuickly(t *testing.T) {
	st := Run(baseCfg(BlockConserve, 0.05))
	if st.Released == 0 {
		t.Fatal("no models released under light load")
	}
	if st.AvgReleaseTime > 50 {
		t.Errorf("light-load release time %v h too high", st.AvgReleaseTime)
	}
	frac := float64(st.Released) / float64(st.Arrived)
	if frac < 0.8 {
		t.Errorf("only %v of pipelines released under light load", frac)
	}
}

func TestBlockStrategiesBeatPriorWork(t *testing.T) {
	// Fig. 8's headline: at moderate load, block composition releases
	// far faster than query or streaming composition.
	rate := 0.4
	conserve := Run(baseCfg(BlockConserve, rate))
	query := Run(baseCfg(QueryComposition, rate))
	streaming := Run(baseCfg(StreamingComposition, rate))
	if conserve.AvgReleaseTime >= query.AvgReleaseTime {
		t.Errorf("conserve %v h not faster than query %v h",
			conserve.AvgReleaseTime, query.AvgReleaseTime)
	}
	if conserve.AvgReleaseTime >= streaming.AvgReleaseTime {
		t.Errorf("conserve %v h not faster than streaming %v h",
			conserve.AvgReleaseTime, streaming.AvgReleaseTime)
	}
}

func TestConserveBeatsAggressiveUnderLoad(t *testing.T) {
	// Fig. 8: at high arrival rates the conserving strategy outperforms
	// aggressive spending.
	rate := 0.7
	conserve := Run(baseCfg(BlockConserve, rate))
	aggressive := Run(baseCfg(BlockAggressive, rate))
	if conserve.AvgReleaseTime >= aggressive.AvgReleaseTime {
		t.Errorf("conserve %v h not below aggressive %v h at rate %v",
			conserve.AvgReleaseTime, aggressive.AvgReleaseTime, rate)
	}
	// And it spends less budget per model.
	if conserve.AvgBudgetSpent >= aggressive.AvgBudgetSpent {
		t.Errorf("conserve ε/model %v not below aggressive %v",
			conserve.AvgBudgetSpent, aggressive.AvgBudgetSpent)
	}
}

func TestReleaseTimeGrowsWithLoad(t *testing.T) {
	for _, strat := range []Strategy{BlockConserve, QueryComposition} {
		low := Run(baseCfg(strat, 0.1))
		high := Run(baseCfg(strat, 0.7))
		if high.AvgReleaseTime <= low.AvgReleaseTime {
			t.Errorf("%v: release time did not grow with load (%v → %v)",
				strat, low.AvgReleaseTime, high.AvgReleaseTime)
		}
	}
}

func TestSustainableThroughputConserve(t *testing.T) {
	// The paper reports Sage sustaining 0.7 models/hour with release
	// times within a day (~24h) while prior work degrades to multi-day
	// backlogs.
	st := Run(baseCfg(BlockConserve, 0.7))
	if st.AvgReleaseTime > 48 {
		t.Errorf("conserve at 0.7/h: release time %v h, want < 48", st.AvgReleaseTime)
	}
	stream := Run(baseCfg(StreamingComposition, 0.7))
	if stream.AvgReleaseTime < 2*st.AvgReleaseTime {
		t.Errorf("streaming at 0.7/h (%v h) should be ≫ conserve (%v h)",
			stream.AvgReleaseTime, st.AvgReleaseTime)
	}
}

func TestBudgetNeverExceedsGlobal(t *testing.T) {
	// Per-model spend is at most εg under every strategy.
	for _, strat := range []Strategy{StreamingComposition, QueryComposition, BlockAggressive, BlockConserve} {
		st := Run(baseCfg(strat, 0.3))
		if st.AvgBudgetSpent > 1+1e-9 {
			t.Errorf("%v: avg budget/model %v exceeds εg", strat, st.AvgBudgetSpent)
		}
	}
}

func TestSweepShape(t *testing.T) {
	rates := []float64{0.1, 0.3}
	strategies := []Strategy{BlockConserve, BlockAggressive}
	pts := Sweep(baseCfg(BlockConserve, 0.1), rates, strategies)
	if len(pts) != 4 {
		t.Fatalf("Sweep returned %d points, want 4", len(pts))
	}
	seen := map[string]bool{}
	for _, pt := range pts {
		seen[pt.Strategy.String()] = true
		if pt.Stats.Arrived == 0 {
			t.Errorf("rate %v %v: no arrivals", pt.Rate, pt.Strategy)
		}
	}
	if len(seen) != 2 {
		t.Errorf("strategies seen: %v", seen)
	}
}

func TestConfigValidation(t *testing.T) {
	for i, cfg := range []Config{
		{Strategy: BlockConserve, BlockSize: 100}, // no rate
		{Strategy: BlockConserve, ArrivalRate: 1}, // no block size
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			Run(cfg)
		}()
	}
}

func TestStrategyNames(t *testing.T) {
	names := map[Strategy]string{
		StreamingComposition: "Streaming Composition",
		QueryComposition:     "Query Composition",
		BlockAggressive:      "Block/Aggressive",
		BlockConserve:        "Block/Conserve (Sage)",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestCriteoScaleBlocks(t *testing.T) {
	// Fig. 8b uses 267K-point hourly blocks; dynamics must still hold.
	cfg := baseCfg(BlockConserve, 0.5)
	cfg.BlockSize = 267000
	st := Run(cfg)
	if st.Released == 0 {
		t.Fatal("no releases at Criteo scale")
	}
}

// BenchmarkWorkloadRun is the benchmark's workload.run_ms probe — one
// Block/Conserve cell at rate 0.7 over 500 hours — plus the same cell
// under query composition, the attempt branch that pays the √m penalty
// and the queue that never drains.
func BenchmarkWorkloadRun(b *testing.B) {
	for _, c := range []struct {
		name  string
		strat Strategy
	}{{"conserve", BlockConserve}, {"query", QueryComposition}} {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{Strategy: c.strat, EpsG: 1, BlockSize: 16000, ArrivalRate: 0.7, Hours: 500, Seed: 9}
			for i := 0; i < b.N; i++ {
				Run(cfg)
			}
		})
	}
}

// referenceAttempt is the attempt kernel as it stood before PR 19,
// kept verbatim (but for the block index's field name) as the
// differential reference: attemptConserve rescanned a pipeline's
// allocations once per grid budget and found the block count by a
// linear scan with a square root per step; attemptAggressive copied and
// sorted the entries themselves.
func referenceAttempt(s *sim, p *simPipeline) bool {
	switch s.cfg.Strategy {
	case StreamingComposition:
		return s.attempt(p)
	case BlockConserve, QueryComposition:
		return referenceAttemptConserve(s, p, s.cfg.Strategy == QueryComposition)
	default:
		return referenceAttemptAggressive(s, p)
	}
}

func referenceAttemptConserve(s *sim, p *simPipeline, queryPenalty bool) bool {
	size := float64(s.cfg.BlockSize)
	for eps := s.cfg.Epsilon0 / 64; eps <= s.cfg.EpsG*(1+1e-9); eps *= 2 {
		count := 0
		for _, e := range p.allocs {
			if e.amt >= eps {
				count++
			}
		}
		if count == 0 {
			continue
		}
		need := s.nReq(p, eps)
		// Blocks are same-sized: the smallest m ≤ count of them that
		// satisfies the requirement (query composition pays √m).
		useBlocks := 0
		for m := 1; m <= count; m++ {
			data := float64(m) * size
			if queryPenalty {
				if data >= need*math.Sqrt(float64(m)) {
					useBlocks = m
					break
				}
			} else if data >= need {
				useBlocks = m
				break
			}
		}
		if useBlocks == 0 {
			continue
		}
		// Charge ε on exactly useBlocks of the affordable blocks and
		// return everything else.
		used := make(map[*simBlock]bool, useBlocks)
		for _, e := range p.allocs {
			if e.amt >= eps && len(used) < useBlocks {
				used[e.block] = true
			}
		}
		for _, e := range p.allocs {
			if used[e.block] {
				s.returnBudget(e.block, e.amt-eps)
			} else {
				s.returnBudget(e.block, e.amt)
			}
		}
		p.allocs = nil
		p.slot = nil
		p.spent = eps
		return true
	}
	return false
}

func referenceAttemptAggressive(s *sim, p *simPipeline) bool {
	if len(p.allocs) == 0 {
		return false
	}
	entries := append([]allocEntry{}, p.allocs...)
	sort.Slice(entries, func(i, j int) bool { return entries[i].amt > entries[j].amt })
	total := 0.0
	for k, e := range entries {
		total += e.block.size
		epsEff := math.Min(e.amt, s.cfg.EpsG) // min alloc in the prefix
		if epsEff <= 0 {
			break
		}
		if total >= s.nReq(p, epsEff) {
			// Use blocks with alloc ≥ this prefix's minimum; burn
			// their full allocation.
			referenceSpendAndReturn(s, p, entries[k].amt, epsEff, true)
			p.spent = epsEff
			return true
		}
	}
	return false
}

func referenceSpendAndReturn(s *sim, p *simPipeline, threshold, eps float64, burnAll bool) {
	for _, e := range p.allocs {
		if e.amt >= threshold {
			if !burnAll {
				s.returnBudget(e.block, e.amt-eps)
			}
		} else {
			s.returnBudget(e.block, e.amt)
		}
	}
	p.allocs = nil
	p.slot = nil
}

// TestRunMatchesReferenceKernels runs whole simulations over the new
// attempt kernels and over the ones they replaced: every field of Stats
// must be equal, not close — the counters, the closed form and the
// amounts-only sort are rearrangements, not approximations.
func TestRunMatchesReferenceKernels(t *testing.T) {
	r := rng.New(19)
	configs := 320
	if testing.Short() || safety.RaceEnabled {
		// The simulator is sequential; under the race detector the
		// reference's rescans cost most of a minute for nothing.
		configs = 60
	}
	for i := 0; i < configs; i++ {
		cfg := Config{
			Strategy:    Strategy(i % 4),
			BlockSize:   []int{16000, 267000}[i/4%2],
			ArrivalRate: 0.05 + 1.15*r.Float64(),
			Hours:       40 + r.IntN(261),
			Seed:        r.Uint64(),
		}
		if i%3 != 0 {
			cfg.Kappa = 0.25 + 3*r.Float64()
		}
		if i%5 != 0 {
			// Off the powers of two, so the grid's budgets are not
			// exactly representable fractions of the allocations.
			cfg.Epsilon0 = 0.01 + 0.3*r.Float64()
		}
		if got, want := Run(cfg), run(cfg, referenceAttempt); got != want {
			t.Errorf("config %d %+v:\n new %+v\n ref %+v", i, cfg, got, want)
		}
	}
}

// TestMinBlocksMatchesLinearScan pins the closed-form block count to the
// scan it replaced where a closed form is most likely to be off by one:
// requirements within a few ulps of an exact multiple of the block size
// (the plain predicate's boundaries) and of √m block sizes (the query
// penalty's), for every m up to 4096 — which covers every perfect
// square, where √m is exact and the two sides can tie.
func TestMinBlocksMatchesLinearScan(t *testing.T) {
	scan := func(need, size float64, queryPenalty bool, count int) int {
		for m := 1; m <= count; m++ {
			data := float64(m) * size
			if queryPenalty {
				if data >= need*math.Sqrt(float64(m)) {
					return m
				}
			} else if data >= need {
				return m
			}
		}
		return count + 1
	}
	for _, size := range []float64{16000, 267000} {
		for m := 1; m <= 4096; m++ {
			for _, queryPenalty := range []bool{false, true} {
				need := float64(m) * size
				if queryPenalty {
					need = math.Sqrt(float64(m)) * size
				}
				lo, hi := need, need
				for ulp := 0; ulp < 3; ulp++ {
					lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
				}
				for need := lo; need <= hi; need = math.Nextafter(need, math.Inf(1)) {
					// Enough blocks, exactly enough, and one too few.
					for _, count := range []int{m + 2, m, m - 1} {
						if got, want := minBlocks(need, size, queryPenalty, count), scan(need, size, queryPenalty, count); got != want {
							t.Fatalf("minBlocks(%v, %v, %v, %d) = %d, linear scan %d", need, size, queryPenalty, count, got, want)
						}
					}
				}
			}
		}
	}
	for _, need := range []float64{0, 1, math.Inf(1), math.NaN(), 1e300} {
		for _, queryPenalty := range []bool{false, true} {
			if got, want := minBlocks(need, 16000, queryPenalty, 50), scan(need, 16000, queryPenalty, 50); got != want {
				t.Errorf("minBlocks(%v, 16000, %v, 50) = %d, linear scan %d", need, queryPenalty, got, want)
			}
		}
	}
}
