package main

// sizes is the one table of work sizes. A round is a fixed amount of
// work; a run is as many rounds as fit into -seconds, and a metric's
// run value is the median over rounds. None of these is a flag: a
// number measured at another size is another benchmark.
type sizes struct {
	clients   int // closed-loop client goroutines, one connection each
	setups    int // set-ups per run; setup_s is their median
	minRounds int // rounds measured on every set-up, whatever -seconds says
	spinIters int // host.spin_ms: iterations of the arithmetic loop
	walkBytes int // host.memwalk_ms: bytes allocated and walked

	// serve-batch, serve-mixed
	trainRides  int // rides the served model is trained on in set-up
	batchRows   int // rows per /predict/batch request
	batchBodies int // distinct pre-built batch bodies
	batchReqs   int // requests per round, all clients together
	mixedBodies int // distinct pre-built /predict bodies
	mixedOps    int // ops per round, all clients together
	sampleEvery int // one response in sampleEvery is compared with the primary
	warmRounds  int // untimed rounds that end a serve set-up

	// loop-durable
	firstLifeTicks int // the set-up life, fills the retention window
	lifeTicks      int // ticks per timed life
	rowsPerBlock   int
	retention      int
	compactEvery   int
	ledgerShards   int
	pipelines      int

	// exp-sweep
	exp expSizes

	// layer probes (traced run): iterations of each direct call
	probeIters int
}

var fullSizes = sizes{
	clients:   2,
	setups:    3,
	minRounds: 4,
	spinIters: 60_000_000,
	walkBytes: 64 << 20,

	trainRides:  160000,
	batchRows:   256,
	batchBodies: 16,
	batchReqs:   250,
	mixedBodies: 1024,
	mixedOps:    4000,
	sampleEvery: 64,
	warmRounds:  6,

	firstLifeTicks: 60,
	lifeTicks:      40,
	rowsPerBlock:   6000,
	retention:      48,
	compactEvery:   32,
	ledgerShards:   4,
	pipelines:      3,

	exp: expSizes{
		fig5Sizes: []int{10000, 40000, 160000}, fig5Holdout: 20000,
		fig6Stream: 150000,
		fig7Sizes:  []int{20000, 80000, 160000}, fig7Block: 10000, fig7Stream: 160000, fig7Holdout: 20000,
		fig8Taxi: []float64{0.2, 0.6}, fig8Criteo: []float64{0.3}, fig8Hours: 500,
		tab2Stream: 40000, tab2Holdout: 10000,
	},

	probeIters: 10,
}

// testSizes is every workload at about 1/50 of full size, for
// bench_test.go: the same code paths and checks in a few seconds.
var testSizes = sizes{
	clients:   2,
	setups:    1,
	minRounds: 2,
	spinIters: 1_000_000,
	walkBytes: 1 << 20,

	trainRides:  160000,
	batchRows:   32,
	batchBodies: 4,
	batchReqs:   40,
	mixedBodies: 32,
	mixedOps:    400,
	sampleEvery: 8,
	warmRounds:  1,

	firstLifeTicks: 8,
	lifeTicks:      6,
	rowsPerBlock:   6000,
	retention:      6,
	compactEvery:   4,
	ledgerShards:   4,
	pipelines:      3,

	exp: expSizes{
		fig5Sizes: []int{5000}, fig5Holdout: 2000,
		fig6Stream: 20000,
		fig7Sizes:  []int{5000}, fig7Block: 2500, fig7Stream: 20000, fig7Holdout: 2000,
		fig8Taxi: []float64{0.4}, fig8Criteo: []float64{0.3}, fig8Hours: 60,
		tab2Stream: 8000, tab2Holdout: 2000,
	},

	probeIters: 2,
}
