package experiments

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/data"
	"repro/internal/validation"
	"repro/internal/workload"
)

func TestConfigsComplete(t *testing.T) {
	cfgs := Configs()
	if len(cfgs) != 4 {
		t.Fatalf("Configs returned %d entries, want 4 (Table 1)", len(cfgs))
	}
	seen := map[string]bool{}
	for _, c := range cfgs {
		key := c.Task.String() + "-" + c.Name
		seen[key] = true
		if c.LargeEps <= c.SmallEps {
			t.Errorf("%s: large ε %v not above small ε %v", key, c.LargeEps, c.SmallEps)
		}
		if len(c.Targets) == 0 {
			t.Errorf("%s: no targets", key)
		}
		p := c.Build(true, c.Targets[0], validation.ModeSage)
		if p == nil || p.Trainer == nil || p.Validator == nil {
			t.Errorf("%s: Build returned incomplete pipeline", key)
		}
		if !p.Trainer.IsDP() {
			t.Errorf("%s: dp=true build should be DP", key)
		}
		np := c.Build(false, c.Targets[0], validation.ModeSage)
		if np.Trainer.IsDP() {
			t.Errorf("%s: dp=false build should not be DP", key)
		}
	}
	for _, want := range []string{"Taxi-LR", "Taxi-NN", "Criteo-LG", "Criteo-NN"} {
		if !seen[want] {
			t.Errorf("missing config %s", want)
		}
	}
}

func TestDatasetHelper(t *testing.T) {
	taxi := Dataset(TaxiRegression, 1000, 1)
	if taxi.Len() != 1000 {
		t.Errorf("taxi len = %d", taxi.Len())
	}
	criteo := Dataset(CriteoClassification, 500, 1)
	if criteo.Len() != 500 {
		t.Errorf("criteo len = %d", criteo.Len())
	}
}

// TestReleaseDropsEveryRow: a pointer to a released dataset — the stale
// stack word release guards against — reaches no feature row.
func TestReleaseDropsEveryRow(t *testing.T) {
	taxi := Dataset(TaxiRegression, 1000, 1)
	criteo := Dataset(CriteoClassification, 500, 1)
	release(taxi, criteo)
	for _, ds := range []*data.Dataset{taxi, criteo} {
		for i, ex := range ds.Examples {
			if ex.Features != nil {
				t.Fatalf("example %d of %d keeps %d features after release", i, ds.Len(), len(ex.Features))
			}
		}
	}
}

func TestPrintTable1(t *testing.T) {
	var buf bytes.Buffer
	PrintTable1(&buf)
	out := buf.String()
	for _, want := range []string{"AdaSSP", "DP SGD", "Taxi", "Criteo", "Avg.Speed"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q", want)
		}
	}
}

func TestFig5SmallGrid(t *testing.T) {
	pts := Fig5(Fig5Options{
		Sizes:   []int{5000, 40000},
		Holdout: 20000,
		Models:  []string{"Taxi-LR"},
		Seed:    11,
	})
	// 3 variants × 2 sizes.
	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6", len(pts))
	}
	byVariant := map[string]map[int]float64{}
	for _, p := range pts {
		if p.Quality <= 0 {
			t.Errorf("non-positive MSE %v", p.Quality)
		}
		if byVariant[p.Variant] == nil {
			byVariant[p.Variant] = map[int]float64{}
		}
		byVariant[p.Variant][p.N] = p.Quality
	}
	// Shape: the small-ε variant improves with data, and NP is at least
	// as good as small-ε DP at the small size.
	np, smallEps := byVariant["NP"], byVariant["ε=0.05"]
	if smallEps[40000] >= smallEps[5000] {
		t.Errorf("ε=0.05 did not improve with data: %v → %v", smallEps[5000], smallEps[40000])
	}
	if np[5000] > smallEps[5000] {
		t.Errorf("NP (%v) worse than ε=0.05 (%v) at 5K samples", np[5000], smallEps[5000])
	}
	var buf bytes.Buffer
	PrintFig5(&buf, pts)
	if !strings.Contains(buf.String(), "Taxi LR") {
		t.Error("PrintFig5 missing panel header")
	}
}

func TestFig6SmallGrid(t *testing.T) {
	pts := Fig6(Fig6Options{
		MaxStream:        250000,
		MinSamples:       5000,
		Models:           []string{"Taxi-LR"},
		TargetsPerConfig: 1, // easiest target only
		Modes: []validation.Mode{
			validation.ModeNoSLA, validation.ModeSage,
		},
		Seed: 12,
	})
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	var noSLA, sage Fig6Point
	for _, p := range pts {
		switch p.Mode {
		case validation.ModeNoSLA:
			noSLA = p
		case validation.ModeSage:
			sage = p
		}
	}
	if !noSLA.Accepted {
		t.Fatal("No SLA should accept the easiest target")
	}
	if !sage.Accepted {
		t.Fatal("Sage should accept the easiest target within 250K samples")
	}
	// Fig. 6's shape: rigorous validation needs more data.
	if sage.Samples < noSLA.Samples {
		t.Errorf("Sage (%d) accepted with less data than No SLA (%d)",
			sage.Samples, noSLA.Samples)
	}
	var buf bytes.Buffer
	PrintFig6(&buf, pts)
	if !strings.Contains(buf.String(), "ACCEPT") {
		t.Error("PrintFig6 missing header")
	}
}

func TestTab2SmallRun(t *testing.T) {
	rows := Tab2(Tab2Options{
		Runs:    6,
		Stream:  100000,
		Holdout: 30000,
		Etas:    []float64{0.05},
		Modes: []validation.Mode{
			validation.ModeNoSLA, validation.ModeSage,
		},
		Seed: 13,
	})
	if len(rows) != 2 { // Taxi + Criteo, one η each
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		sageRate := row.ViolationRate[validation.ModeSage]
		if row.Accepts[validation.ModeSage] > 0 && sageRate > 0.35 {
			t.Errorf("%s: Sage violation rate %v implausibly high", row.Task, sageRate)
		}
	}
	var buf bytes.Buffer
	PrintTab2(&buf, rows)
	if !strings.Contains(buf.String(), "Sage SLA") {
		t.Error("PrintTab2 missing header")
	}
}

func TestFig7SmallGrid(t *testing.T) {
	o := Fig7Options{
		Sizes:        []int{20000, 80000},
		LRBlockSizes: []int{5000},
		Targets:      []float64{0.007, 0.005},
		MaxStream:    200000,
		Holdout:      20000,
		SkipNN:       true,
		Seed:         14,
	}
	quality := Fig7Quality(o)
	// LR: 2 sizes × (block + 1 query mode).
	if len(quality) != 4 {
		t.Fatalf("quality points = %d, want 4", len(quality))
	}
	var blockMSE, queryMSE float64
	for _, p := range quality {
		if p.N != 80000 {
			continue
		}
		if p.Mode == "Block Comp." {
			blockMSE = p.MSE
		} else {
			queryMSE = p.MSE
		}
	}
	// Fig. 7a: query composition over small blocks is noisier.
	if queryMSE <= blockMSE {
		t.Errorf("query-comp MSE %v not above block-comp %v", queryMSE, blockMSE)
	}

	accepts := Fig7Accept(o)
	if len(accepts) != 4 { // 2 targets × (block + 1 query)
		t.Fatalf("accept points = %d, want 4", len(accepts))
	}
	for _, target := range o.Targets {
		var block, query Fig7AcceptPoint
		for _, p := range accepts {
			if p.Target != target {
				continue
			}
			if p.BlockSize == 0 {
				block = p
			} else {
				query = p
			}
		}
		// Fig. 7b: query composition needs at least as much data to
		// validate, typically far more.
		if query.Accepted && block.Accepted && query.Samples < block.Samples {
			t.Errorf("target %v: query accepted with %d < block %d samples",
				target, query.Samples, block.Samples)
		}
	}
	var buf bytes.Buffer
	PrintFig7(&buf, quality, accepts)
	if !strings.Contains(buf.String(), "Query Comp.") {
		t.Error("PrintFig7 missing modes")
	}
}

func TestFig8SmallSweep(t *testing.T) {
	res := Fig8(Fig8Options{
		TaxiRates:   []float64{0.2, 0.6},
		CriteoRates: []float64{0.3},
		Hours:       400,
		Seed:        15,
	})
	if len(res.Taxi) != 8 || len(res.Criteo) != 4 {
		t.Fatalf("points: taxi %d want 8, criteo %d want 4", len(res.Taxi), len(res.Criteo))
	}
	// Find conserve and streaming at the high taxi rate.
	var conserve, streaming float64
	for _, p := range res.Taxi {
		if p.Rate != 0.6 {
			continue
		}
		switch p.Strategy {
		case workload.BlockConserve:
			conserve = p.Stats.AvgReleaseTime
		case workload.StreamingComposition:
			streaming = p.Stats.AvgReleaseTime
		}
	}
	if conserve >= streaming {
		t.Errorf("conserve (%vh) not below streaming (%vh) at rate 0.6", conserve, streaming)
	}
	var buf bytes.Buffer
	PrintFig8(&buf, res)
	if !strings.Contains(buf.String(), "Block/Conserve") {
		t.Error("PrintFig8 missing strategies")
	}
}

// sweepFig8 is the Fig. 8 call of the benchmark's exp-sweep workload
// (bench/sizes.go) at seed 1.
var sweepFig8 = Fig8Options{TaxiRates: []float64{0.2, 0.6}, CriteoRates: []float64{0.3}, Hours: 500, Seed: 1}

// TestFig8BenchGolden holds PrintFig8 at the benchmark's exp-sweep
// options to the bytes the simulator printed before its attempt kernels
// were rewritten (testdata written at PR 18's commit): a faster
// simulator must be the same simulator.
func TestFig8BenchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fig8_bench.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	PrintFig8(&got, Fig8(sweepFig8))
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("PrintFig8 differs from the golden:\n got:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// BenchmarkSweepPass is one pass of the benchmark's exp-sweep workload:
// the six calls bench/exp.go makes, with its options (bench/sizes.go)
// and GOMAXPROCS workers. It exists for `-cpuprofile` — what a sweep's
// p50 is made of, call by call — and is not gated: bench/ owns the
// numbers. The sub-benchmarks are the calls, so `-bench SweepPass/fig8`
// profiles one.
func BenchmarkSweepPass(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	fig7 := Fig7Options{
		Sizes: []int{20000, 80000, 160000}, LRBlockSizes: []int{10000}, Targets: []float64{0.007},
		MaxStream: 160000, Holdout: 20000, SkipNN: true, Seed: 1, Workers: workers,
	}
	calls := []struct {
		name string
		run  func()
	}{
		{"fig5", func() {
			PrintFig5(io.Discard, Fig5(Fig5Options{
				Sizes: []int{10000, 40000, 160000}, Holdout: 20000, Models: []string{"Taxi-LR"}, Seed: 1, Workers: workers,
			}))
		}},
		{"fig6", func() {
			PrintFig6(io.Discard, Fig6(Fig6Options{
				MaxStream: 150000, Models: []string{"Taxi-LR"}, TargetsPerConfig: 1,
				Modes: []validation.Mode{validation.ModeNoSLA, validation.ModeSage}, Seed: 1, Workers: workers,
			}))
		}},
		{"fig7_quality", func() { PrintFig7(io.Discard, Fig7Quality(fig7), nil) }},
		{"fig7_accept", func() { PrintFig7(io.Discard, nil, Fig7Accept(fig7)) }},
		{"fig8", func() {
			o := sweepFig8
			o.Workers = workers
			PrintFig8(io.Discard, Fig8(o))
		}},
		{"tab2", func() {
			PrintTab2(io.Discard, Tab2(Tab2Options{
				Runs: 1, Stream: 40000, Holdout: 10000, Etas: []float64{0.05},
				Modes: []validation.Mode{validation.ModeSage}, Seed: 1, Workers: workers,
			}))
		}},
	}
	for _, c := range calls {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
