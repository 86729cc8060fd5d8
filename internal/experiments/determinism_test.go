package experiments

// Determinism regression tests for the parallel experiment engine: every
// sweep must produce bit-identical output for any worker count, so
// parallelism can never silently change a reproduced figure. Each test
// runs a reduced grid once sequentially (Workers=1) and once heavily
// oversubscribed (Workers=8, far above this grid's size) and compares
// the results exactly — floats included, since every cell derives its
// RNG from its own coordinates rather than from scheduling order.

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/validation"
	"repro/internal/workload"
)

func TestFig5DeterministicAcrossWorkers(t *testing.T) {
	base := Fig5Options{
		Sizes:   []int{5000, 10000},
		Holdout: 5000,
		Models:  []string{"Taxi-LR"},
		Seed:    76,
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	a, b := Fig5(seq), Fig5(par)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Fig5 output depends on worker count:\nworkers=1: %+v\nworkers=8: %+v", a, b)
	}
}

// TestFig6DeterministicAcrossWorkers covers the LR cells and, at a
// smaller stream, the NN cells, whose DP-SGD trainers draw their batches
// from the cell's RNG.
func TestFig6DeterministicAcrossWorkers(t *testing.T) {
	for _, base := range []Fig6Options{{
		MaxStream:        60000,
		MinSamples:       5000,
		Models:           []string{"Taxi-LR"},
		TargetsPerConfig: 2,
		Modes:            []validation.Mode{validation.ModeNoSLA, validation.ModeSage},
		Seed:             77,
	}, {
		MaxStream:        800,
		MinSamples:       400,
		Models:           []string{"Taxi-NN", "Criteo-NN"},
		TargetsPerConfig: 1,
		Modes:            []validation.Mode{validation.ModeNoSLA, validation.ModeSage},
		Seed:             77,
	}} {
		seq := base
		seq.Workers = 1
		par := base
		par.Workers = 8
		a, b := Fig6(seq), Fig6(par)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("Fig6 %v output depends on worker count:\nworkers=1: %+v\nworkers=8: %+v", base.Models, a, b)
		}
	}
}

// TestFig6LeavesStreamOrder: Fig. 6's cells search one shared stream per
// task concurrently, and each leaves it as it found it — checked by a
// digest of every example's label and feature-row pointer, and under the
// race detector by any write at all.
func TestFig6LeavesStreamOrder(t *testing.T) {
	o := Fig6Options{
		MaxStream: 8000, MinSamples: 1000, Models: []string{"Taxi-LR", "Criteo-LG"},
		TargetsPerConfig: 1, Modes: allModes, Seed: 95, Workers: 3,
	}
	o.fill()
	digest := func(streams []*data.Dataset) [sha256.Size]byte {
		h := sha256.New()
		for _, s := range streams {
			for _, ex := range s.Examples {
				fmt.Fprintf(h, "%v %p\n", ex.Label, ex.Features)
			}
		}
		return [sha256.Size]byte(h.Sum(nil))
	}
	streams := o.streams()
	before := digest(streams)
	o.search(streams)
	if digest(streams) != before {
		t.Error("a Fig. 6 search reordered the stream its cells share")
	}
}

func TestFig7DeterministicAcrossWorkers(t *testing.T) {
	base := Fig7Options{
		Sizes:        []int{10000, 20000},
		LRBlockSizes: []int{5000},
		Targets:      []float64{0.007},
		MaxStream:    40000,
		Holdout:      10000,
		SkipNN:       true,
		Seed:         78,
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	if a, b := Fig7Quality(seq), Fig7Quality(par); !reflect.DeepEqual(a, b) {
		t.Errorf("Fig7Quality output depends on worker count:\nworkers=1: %+v\nworkers=8: %+v", a, b)
	}
	if a, b := Fig7Accept(seq), Fig7Accept(par); !reflect.DeepEqual(a, b) {
		t.Errorf("Fig7Accept output depends on worker count:\nworkers=1: %+v\nworkers=8: %+v", a, b)
	}
}

func TestTab2DeterministicAcrossWorkers(t *testing.T) {
	base := Tab2Options{
		Runs:    3,
		Stream:  40000,
		Holdout: 10000,
		Etas:    []float64{0.05},
		Modes:   []validation.Mode{validation.ModeNoSLA, validation.ModeSage},
		Seed:    79,
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	a, b := Tab2(seq), Tab2(par)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("Tab2 output depends on worker count:\nworkers=1: %+v\nworkers=8: %+v", a, b)
	}
}

// TestSharedPoolInterleavedExperimentsDeterministic pins the contract
// cmd/sage-experiments relies on: experiments running concurrently, each
// fanning out on its own workers, share one scheduler — the Go
// runtime's — so their grids interleave arbitrarily on the same cores,
// and each must still produce output bit-identical to its sequential
// one-worker run.
func TestSharedPoolInterleavedExperimentsDeterministic(t *testing.T) {
	fig5Opts := Fig5Options{
		Sizes:   []int{5000, 10000},
		Holdout: 5000,
		Models:  []string{"Taxi-LR"},
		Seed:    81,
		Workers: 1,
	}
	fig6Opts := Fig6Options{
		MaxStream:        60000,
		MinSamples:       5000,
		Models:           []string{"Taxi-LR"},
		TargetsPerConfig: 2,
		Modes:            []validation.Mode{validation.ModeNoSLA, validation.ModeSage},
		Seed:             82,
		Workers:          1,
	}
	sweepBase := workload.Config{EpsG: 1, BlockSize: 16000, Hours: 200, Seed: 83, Workers: 1}
	sweepRates := []float64{0.3}
	sweepStrats := []workload.Strategy{workload.BlockConserve, workload.QueryComposition}

	// Baselines: one after another, one worker each.
	wantFig5 := Fig5(fig5Opts)
	wantFig6 := Fig6(fig6Opts)
	wantSweep := workload.Sweep(sweepBase, sweepRates, sweepStrats)

	// Interleaved: all three run concurrently, two workers each.
	fig5Opts.Workers, fig6Opts.Workers, sweepBase.Workers = 2, 2, 2
	var gotFig5 []Fig5Point
	var gotFig6 []Fig6Point
	var gotSweep []workload.SweepPoint
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); gotFig5 = Fig5(fig5Opts) }()
	go func() { defer wg.Done(); gotFig6 = Fig6(fig6Opts) }()
	go func() { defer wg.Done(); gotSweep = workload.Sweep(sweepBase, sweepRates, sweepStrats) }()
	wg.Wait()

	if !reflect.DeepEqual(wantFig5, gotFig5) {
		t.Errorf("Fig5 changed when run concurrently:\nsequential: %+v\nconcurrent: %+v", wantFig5, gotFig5)
	}
	if !reflect.DeepEqual(wantFig6, gotFig6) {
		t.Errorf("Fig6 changed when run concurrently:\nsequential: %+v\nconcurrent: %+v", wantFig6, gotFig6)
	}
	if !reflect.DeepEqual(wantSweep, gotSweep) {
		t.Errorf("Sweep changed when run concurrently:\nsequential: %+v\nconcurrent: %+v", wantSweep, gotSweep)
	}
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	base := workload.Config{EpsG: 1, BlockSize: 16000, Hours: 300, Seed: 80}
	rates := []float64{0.2, 0.5}
	strategies := []workload.Strategy{
		workload.StreamingComposition, workload.QueryComposition,
		workload.BlockAggressive, workload.BlockConserve,
	}
	seq := base
	seq.Workers = 1
	par := base
	par.Workers = 8
	a := workload.Sweep(seq, rates, strategies)
	b := workload.Sweep(par, rates, strategies)
	// Workers differs between the two configs by construction; the
	// simulated points themselves must not.
	for i := range a {
		if a[i].Rate != b[i].Rate || a[i].Strategy != b[i].Strategy || a[i].Stats != b[i].Stats {
			t.Errorf("Sweep point %d depends on worker count:\nworkers=1: %+v\nworkers=8: %+v",
				i, a[i], b[i])
		}
	}
	if len(a) != len(b) || len(a) != len(rates)*len(strategies) {
		t.Fatalf("Sweep sizes: %d vs %d, want %d", len(a), len(b), len(rates)*len(strategies))
	}
}
