// Package workload implements the multi-pipeline workload simulation of
// §5.4: a data stream delivering one block per hour, ML pipelines
// arriving with Gamma-distributed inter-arrival times and power-law
// sample complexities, and four budget-management strategies competing
// for the stream's (εg, δg) budget:
//
//   - Streaming composition (prior work): each data point is consumed by
//     exactly one pipeline and never reused.
//   - Query composition (prior work): pipelines run one DP sub-query per
//     block and aggregate, so combining B blocks costs ≈ √B more data
//     for the same quality (each sub-query adds independent noise; the
//     averaged noise shrinks only as √B while a combined query's noise
//     would shrink as B).
//   - Block/Aggressive: block composition, spending every allocated
//     budget at invocation time.
//   - Block/Conserve (Sage): block composition with the privacy-adaptive
//     doubling schedule, spending the least budget that passes.
//
// The simulator abstracts training runs into a data-requirement frontier
// calibrated from the Fig. 5/6 experiments: a pipeline with base
// complexity n* (the samples its target needs at ε = εg without
// contention) requires nReq(ε) = n*·(1 + κ/ε)/(1 + κ) samples when
// trained at budget ε — DP noise is compensated with data, the premise
// of privacy-adaptive training. This keeps the Fig. 8 sweep tractable
// while preserving the contention dynamics the figure measures.
//
// An attempt costs what it decides, not what the pipeline holds. The
// conserving search needs, per grid budget ε, how many of the pipeline's
// blocks carry an allocation ≥ ε, and the fewest same-sized blocks that
// meet nReq(ε). The first is a counter addAlloc keeps current
// (allocations only grow until release); the second is a closed form —
// ⌈nReq/size⌉, or ⌈(nReq/size)²⌉ when query composition pays √m —
// that only proposes: the floating-point predicate the scan upward from
// m = 1 used to evaluate settles the answer at the proposal's
// neighbours (minBlocks), so the count is that scan's to the unit. A
// failing attempt is thus O(grid) and a hopeless queue (query
// composition under load) no longer costs hours × waiting × blocks.
// workload_test.go keeps the replaced kernels and holds whole runs to
// equal Stats.
package workload

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/parallel"
	"repro/internal/rng"
)

// Strategy selects the §5.4 budget-management strategy.
type Strategy int

const (
	// StreamingComposition consumes each point once (prior work).
	StreamingComposition Strategy = iota
	// QueryComposition runs per-block sub-queries (prior work).
	QueryComposition
	// BlockAggressive is block composition spending all allocation.
	BlockAggressive
	// BlockConserve is Sage: block composition + conserving doubling.
	BlockConserve
)

// String returns the strategy name as used in Fig. 8's legend.
func (s Strategy) String() string {
	switch s {
	case StreamingComposition:
		return "Streaming Composition"
	case QueryComposition:
		return "Query Composition"
	case BlockAggressive:
		return "Block/Aggressive"
	default:
		return "Block/Conserve (Sage)"
	}
}

// A pipeline's inter-arrival time is Gamma(gammaShape) with mean
// 1/ArrivalRate, and its sample complexity, in blocks of data, is
// Pareto(complexityMinBlocks, complexityAlpha) clipped to
// complexityMaxBlocks (mean ≈ 2 hourly blocks): n* = BlockSize · that.
const (
	gammaShape          = 2
	complexityMinBlocks = 0.8
	complexityAlpha     = 1.6
	complexityMaxBlocks = 60
)

// Config parameterizes one simulation run.
type Config struct {
	Strategy Strategy
	// EpsG is the per-block global budget (paper: 1.0).
	EpsG float64
	// BlockSize is the number of points in one hourly block (paper:
	// ~16K for Taxi, ~267K for Criteo).
	BlockSize int
	// ArrivalRate is the expected pipeline arrivals per hour (Fig. 8's
	// x-axis).
	ArrivalRate float64
	// Kappa is the DP data-inflation constant κ (default 1: training
	// at ε = εg/16 needs ≈ 8.5× the ε = 1 data).
	Kappa float64
	// Epsilon0 is the conserving schedule's starting budget (default
	// EpsG/16).
	Epsilon0 float64
	// Hours is the simulated horizon (default 1000).
	Hours int
	// Seed makes runs reproducible.
	Seed uint64
	// Workers bounds Sweep's parallelism across (rate, strategy) cells
	// (<= 0 means runtime.GOMAXPROCS(0)). A single Run is always
	// sequential; Sweep's output is bit-identical for any value.
	Workers int
}

func (c *Config) fillDefaults() {
	if c.EpsG == 0 {
		c.EpsG = 1
	}
	if c.Kappa == 0 {
		c.Kappa = 1
	}
	if c.Epsilon0 == 0 {
		c.Epsilon0 = c.EpsG / 16
	}
	if c.Hours == 0 {
		c.Hours = 1000
	}
}

// Stats summarizes a run.
type Stats struct {
	// Arrived and Released count pipelines; Unfinished = Arrived −
	// Released at the horizon.
	Arrived, Released, Unfinished int
	// AvgReleaseTime is the mean hours from pipeline arrival to model
	// release; unfinished pipelines contribute their (censored) age at
	// the horizon, so saturated systems show diverging times as in
	// Fig. 8.
	AvgReleaseTime float64
	// AvgBudgetSpent is the mean ε consumed per released model.
	AvgBudgetSpent float64
}

// simBlock is one hourly data block.
type simBlock struct {
	id   int // hour of arrival
	size float64
	// free is budget not yet allocated to any pipeline.
	free float64
}

// allocEntry is a pipeline's reserved budget on one block.
type allocEntry struct {
	block *simBlock
	amt   float64
	// level is how many thresholds of the budget grid amt has reached.
	level int
}

// reservations is a pipeline's hold on the stream's budget. It lives
// from the pipeline's arrival to its release, then serves the next
// arrival (sim.spare): the slices are as long as the stream is old, and
// growing them afresh per pipeline was most of what a conserving cell
// still cost.
type reservations struct {
	// allocs holds the per-block budget reservations.
	allocs []allocEntry
	// slot[b.id] is 1 + block b's position in allocs, 0 for none. Block
	// ids are dense, so this is the map a slice can be.
	slot []int32
	// afford[k] counts the allocations of at least grid[k]: the blocks
	// a training run at that budget could use. addAlloc keeps it
	// current, so an attempt that fails never walks allocs.
	afford []int
}

// simPipeline is one in-flight training pipeline.
type simPipeline struct {
	arrived int
	need    float64 // base sample complexity n* (points at ε = εg)
	reservations
	// streaming composition state: points consumed so far.
	got float64
	// spent ε for reporting (on release).
	spent      float64
	releasedAt int
	done       bool
}

// addAlloc reserves amt > 0 more budget on block b for the pipeline and
// counts the grid thresholds the allocation crosses. A reservation only
// grows until the pipeline releases and hands everything back, so a
// threshold once reached stays reached.
func (p *simPipeline) addAlloc(b *simBlock, amt float64, grid []float64) {
	if p.slot[b.id] == 0 {
		p.allocs = append(p.allocs, allocEntry{block: b})
		p.slot[b.id] = int32(len(p.allocs))
	}
	e := &p.allocs[p.slot[b.id]-1]
	e.amt += amt
	for e.level < len(grid) && e.amt >= grid[e.level] {
		p.afford[e.level]++
		e.level++
	}
}

// sim is the simulation state.
type sim struct {
	cfg Config
	r   *rng.RNG
	// grid is the conserving schedule's budgets, ascending: doubling
	// from ε0/64 (contention can thin per-block allocations well under
	// the nominal starting budget) up to εg.
	grid []float64
	// attemptFn is attempt (see run).
	attemptFn func(*sim, *simPipeline) bool
	freed     []*simBlock    // blocks whose free pool gained budget this hour
	amts      []float64      // attemptAggressive's sort scratch
	spare     []reservations // of released pipelines, for the next arrivals
	waiting   []*simPipeline
	released  []*simPipeline
	now       int
	arrived   int
}

// nReq returns the data requirement of a pipeline at training budget
// eps: n*·(1 + κ/ε)/(1 + κ), the privacy-utility frontier.
func (s *sim) nReq(p *simPipeline, eps float64) float64 {
	k := s.cfg.Kappa
	return p.need * (1 + k/eps) / (1 + k)
}

// Run simulates the workload and returns its statistics.
func Run(cfg Config) Stats { return run(cfg, (*sim).attempt) }

// run is Run with the attempt kernel as a parameter, so that
// workload_test.go can run the whole simulation over the kernels these
// replaced and demand equal Stats.
func run(cfg Config, attempt func(*sim, *simPipeline) bool) Stats {
	cfg.fillDefaults()
	if cfg.ArrivalRate <= 0 {
		panic(fmt.Sprintf("workload: ArrivalRate must be > 0, got %v", cfg.ArrivalRate))
	}
	if cfg.BlockSize <= 0 {
		panic("workload: BlockSize must be > 0")
	}
	s := &sim{cfg: cfg, r: rng.New(cfg.Seed), attemptFn: attempt}
	for eps := cfg.Epsilon0 / 64; eps > 0 && eps <= cfg.EpsG*(1+1e-9); eps *= 2 {
		s.grid = append(s.grid, eps)
	}

	// Pre-draw pipeline arrival times (Gamma inter-arrivals with mean
	// 1/rate).
	var arrivals []float64
	t := 0.0
	for t < float64(cfg.Hours) {
		t += s.r.Gamma(gammaShape, 1/(gammaShape*cfg.ArrivalRate))
		arrivals = append(arrivals, t)
	}
	nextArrival := 0

	for s.now = 0; s.now < cfg.Hours; s.now++ {
		// 1. Pipeline arrivals this hour.
		for nextArrival < len(arrivals) && arrivals[nextArrival] < float64(s.now+1) {
			blocksNeeded := min(s.r.ParetoMin(complexityMinBlocks, complexityAlpha), complexityMaxBlocks)
			p := &simPipeline{
				arrived: s.now,
				need:    blocksNeeded * float64(cfg.BlockSize),
			}
			if n := len(s.spare); n > 0 {
				p.reservations, s.spare = s.spare[n-1], s.spare[:n-1]
			} else if cfg.Strategy != StreamingComposition {
				p.slot = make([]int32, cfg.Hours)
				p.afford = make([]int, len(s.grid))
			}
			s.arrived++
			s.waiting = append(s.waiting, p)
			nextArrival++
		}

		// 2. A new block arrives with a fresh budget.
		nb := &simBlock{id: s.now, size: float64(cfg.BlockSize), free: cfg.EpsG}
		s.freed = append(s.freed, nb)

		// 3. Distribute free block budgets evenly among waiting
		// pipelines (the paper's allocation rule). Streaming
		// composition distributes *points* instead.
		if len(s.waiting) > 0 {
			if cfg.Strategy == StreamingComposition {
				s.distributePoints(nb)
			} else {
				s.distributeBudget()
			}
		}

		// 4. Every waiting pipeline attempts to finish.
		s.attemptAll()
	}

	return s.stats()
}

// distributeBudget splits the free budget of recently-freed blocks
// evenly across the waiting pipelines.
func (s *sim) distributeBudget() {
	if len(s.freed) == 0 {
		return
	}
	n := float64(len(s.waiting))
	for _, b := range s.freed {
		if b.free <= 0 {
			continue
		}
		share := b.free / n
		for _, p := range s.waiting {
			p.addAlloc(b, share, s.grid)
		}
		b.free = 0
	}
	s.freed = s.freed[:0]
}

// distributePoints gives each waiting pipeline an equal share of the
// newest block's points (streaming: each point used once, then gone).
func (s *sim) distributePoints(b *simBlock) {
	share := b.size / float64(len(s.waiting))
	for _, p := range s.waiting {
		p.got += share
	}
	b.size = 0
	s.freed = s.freed[:0]
}

// attemptAll lets every waiting pipeline try to complete, oldest first,
// and redistributes budget returned by completions.
func (s *sim) attemptAll() {
	progress := true
	for progress {
		progress = false
		for _, p := range s.waiting {
			if p.done {
				continue
			}
			if s.attemptFn(s, p) {
				p.done = true
				p.releasedAt = s.now
				s.released = append(s.released, p)
				progress = true
			}
		}
		if !progress {
			return
		}
		// Compact the waiting list.
		kept := s.waiting[:0]
		for _, p := range s.waiting {
			if !p.done {
				kept = append(kept, p)
			}
		}
		s.waiting = kept
		// Budget returned by completions sits in the freed blocks'
		// pools; hand it to the remaining waiters right away.
		if len(s.waiting) > 0 && s.cfg.Strategy != StreamingComposition {
			s.distributeBudget()
		}
	}
}

// attempt returns true if pipeline p can release its model now.
func (s *sim) attempt(p *simPipeline) bool {
	switch s.cfg.Strategy {
	case StreamingComposition:
		// Full budget on exclusively-owned points.
		if p.got >= s.nReq(p, s.cfg.EpsG) {
			p.spent = s.cfg.EpsG
			return true
		}
		return false
	case BlockConserve, QueryComposition:
		return s.attemptConserve(p, s.cfg.Strategy == QueryComposition)
	default:
		return s.attemptAggressive(p)
	}
}

// attemptConserve walks the budget grid upward and releases at the
// smallest budget whose affordable blocks hold enough data. Query
// composition additionally pays the √B penalty for combining B blocks
// with independent noise, over the minimal prefix of blocks it actually
// needs. Until a budget passes, the cost is one counter read and one
// closed form per grid point.
func (s *sim) attemptConserve(p *simPipeline, queryPenalty bool) bool {
	size := float64(s.cfg.BlockSize)
	for k, eps := range s.grid {
		useBlocks := minBlocks(s.nReq(p, eps), size, queryPenalty, p.afford[k])
		if useBlocks > p.afford[k] {
			continue
		}
		// Charge ε on the first useBlocks affordable blocks, in
		// allocation order, and return everything else.
		for _, e := range p.allocs {
			if e.amt >= eps && useBlocks > 0 {
				useBlocks--
				s.returnBudget(e.block, e.amt-eps)
			} else {
				s.returnBudget(e.block, e.amt)
			}
		}
		s.recycle(p)
		p.spent = eps
		return true
	}
	return false
}

// minBlocks returns the smallest m ≥ 1 for which m same-sized blocks
// satisfy the requirement — m·size ≥ need, or m·size ≥ need·√m when
// query composition pays its penalty — looking no further than count:
// a result above count means no m ≤ count does. The closed form
// (⌈need/size⌉, or ⌈(need/size)²⌉ under the penalty) only proposes m;
// the predicate itself, in the floating-point form above, settles it at
// the proposal's neighbours, so the answer is the one a scan upward from
// m = 1 stops at.
func minBlocks(need, size float64, queryPenalty bool, count int) int {
	enough := func(m int) bool {
		data := float64(m) * size
		if queryPenalty {
			return data >= need*math.Sqrt(float64(m))
		}
		return data >= need
	}
	guess := need / size
	if queryPenalty {
		guess *= guess
	}
	if !(guess <= float64(count)+1) { // also NaN
		return count + 1
	}
	m := max(int(math.Ceil(guess)), 1)
	for m > 1 && enough(m-1) {
		m--
	}
	for m <= count && !enough(m) {
		m++
	}
	return m
}

// attemptAggressive uses as much allocated budget as possible: it orders
// its blocks by allocation (richest first) and finds the shortest prefix
// whose minimum allocation ε and total size satisfy the frontier,
// spending the prefix's entire allocations. Blocks are same-sized, so
// the amounts alone decide the prefix: the sort is over a scratch copy
// of them, not of the entries.
func (s *sim) attemptAggressive(p *simPipeline) bool {
	amts := s.amts[:0]
	for _, e := range p.allocs {
		amts = append(amts, e.amt)
	}
	s.amts = amts
	slices.Sort(amts)
	size := float64(s.cfg.BlockSize)
	total := 0.0
	for k := len(amts) - 1; k >= 0; k-- {
		total += size
		epsEff := math.Min(amts[k], s.cfg.EpsG) // min alloc in the prefix
		if total < s.nReq(p, epsEff) {
			continue
		}
		// The prefix's blocks burn their whole allocation; every other
		// allocation returns to its block's free pool.
		for _, e := range p.allocs {
			if e.amt < amts[k] {
				s.returnBudget(e.block, e.amt)
			}
		}
		s.recycle(p)
		p.spent = epsEff
		return true
	}
	return false
}

// recycle empties a released pipeline's reservations for the next
// arrival.
func (s *sim) recycle(p *simPipeline) {
	for _, e := range p.allocs {
		p.slot[e.block.id] = 0
	}
	clear(p.afford)
	p.allocs = p.allocs[:0]
	s.spare = append(s.spare, p.reservations)
	p.reservations = reservations{}
}

// returnBudget adds budget back to a block's free pool and marks it for
// redistribution.
func (s *sim) returnBudget(b *simBlock, amt float64) {
	if amt <= 0 {
		return
	}
	if b.free == 0 {
		s.freed = append(s.freed, b)
	}
	b.free += amt
}

// stats finalizes the run's statistics.
func (s *sim) stats() Stats {
	st := Stats{
		Arrived:    s.arrived,
		Released:   len(s.released),
		Unfinished: len(s.waiting),
	}
	totalTime, totalBudget := 0.0, 0.0
	for _, p := range s.released {
		totalTime += float64(p.releasedAt - p.arrived)
		totalBudget += p.spent
	}
	for _, p := range s.waiting {
		totalTime += float64(s.now - p.arrived) // censored
	}
	if n := st.Released + st.Unfinished; n > 0 {
		st.AvgReleaseTime = totalTime / float64(n)
	}
	if st.Released > 0 {
		st.AvgBudgetSpent = totalBudget / float64(st.Released)
	}
	return st
}

// SweepPoint is one (arrival rate, strategy) measurement for Fig. 8.
type SweepPoint struct {
	Rate     float64
	Strategy Strategy
	Stats    Stats
}

// Sweep runs the base configuration across arrival rates and strategies,
// regenerating one panel of Fig. 8. The (rate × strategy) grid runs on
// base.Workers goroutines (parallel.Map); every cell simulates from its
// own RNG seeded by base.Seed, so the points are bit-identical for any
// worker count and any cross-experiment interleaving.
func Sweep(base Config, rates []float64, strategies []Strategy) []SweepPoint {
	type cell struct {
		rate  float64
		strat Strategy
	}
	var cells []cell
	for _, rate := range rates {
		for _, strat := range strategies {
			cells = append(cells, cell{rate: rate, strat: strat})
		}
	}
	return parallel.Map(base.Workers, len(cells), func(i int) SweepPoint {
		cfg := base
		cfg.ArrivalRate = cells[i].rate
		cfg.Strategy = cells[i].strat
		return SweepPoint{Rate: cells[i].rate, Strategy: cells[i].strat, Stats: Run(cfg)}
	})
}
