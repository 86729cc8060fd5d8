// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 2 (validator violation rates), Fig. 5 (DP
// impact on model quality), Fig. 6 (sample complexity of SLAed
// validation), Fig. 7 (block vs query composition), and Fig. 8 (workload
// release times). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"

	"repro/internal/criteo"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/taxi"
	"repro/internal/validation"
)

// Task identifies the two evaluation tasks.
type Task int

const (
	// TaxiRegression is the NYC-taxi ride-duration task (MSE, lower
	// better).
	TaxiRegression Task = iota
	// CriteoClassification is the ad-click task (accuracy, higher
	// better).
	CriteoClassification
)

// String names the task.
func (t Task) String() string {
	if t == TaxiRegression {
		return "Taxi"
	}
	return "Criteo"
}

// ModelConfig is one row of Table 1: a pipeline configuration with its
// DP algorithm, hyperparameters, budgets, and quality-target range.
type ModelConfig struct {
	Task  Task
	Name  string // "LR", "NN", "LG"
	DPAlg string // "AdaSSP", "DP SGD"
	// LargeEps and SmallEps are the two fixed budgets of Table 1.
	LargeEps, SmallEps float64
	Delta              float64
	// Targets is the quality-target range [easiest … hardest]
	// (MSE descending for Taxi, accuracy ascending for Criteo).
	Targets []float64
	// Build returns the pipeline (dp selects the DP or non-private
	// trainer) in the given validation mode.
	Build func(dp bool, target float64, mode validation.Mode) *pipeline.Pipeline
}

// Scaled-down NN hyperparameters, a substitution for the paper's: it
// trains 5000/100 and 1024/32 hidden units on a cluster; we keep the
// 2-hidden-layer ReLU shape at 64/32 hidden units, which train at
// laptop scale.
var (
	taxiHidden   = []int{64, 32}
	criteoHidden = []int{64, 32}
)

// Configs returns the Table 1 pipeline configurations.
func Configs() []ModelConfig {
	return []ModelConfig{
		{
			Task: TaxiRegression, Name: "LR", DPAlg: "AdaSSP",
			LargeEps: 1.0, SmallEps: 0.05, Delta: 1e-6,
			Targets: []float64{7e-3, 5e-3, 4e-3, 3.2e-3, 2.7e-3},
			Build: func(dp bool, target float64, mode validation.Mode) *pipeline.Pipeline {
				var tr pipeline.Trainer
				if dp {
					tr = pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1}
				} else {
					tr = pipeline.RidgeTrainer{Lambda: 0.1}
				}
				return &pipeline.Pipeline{
					Name: "taxi-lr", Trainer: tr, Mode: mode,
					Validator: pipeline.MSEValidator{
						Target: target, B: 1,
						ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
					},
				}
			},
		},
		{
			Task: TaxiRegression, Name: "NN", DPAlg: "DP SGD",
			LargeEps: 1.0, SmallEps: 0.1, Delta: 1e-6,
			Targets: []float64{7e-3, 5e-3, 4e-3, 3.2e-3, 2.8e-3},
			Build: func(dp bool, target float64, mode validation.Mode) *pipeline.Pipeline {
				return &pipeline.Pipeline{
					Name: "taxi-nn", Mode: mode,
					Trainer: pipeline.SGDTrainer{
						Kind: ml.Regression, Dim: taxi.FeatureDim,
						Hidden: taxiHidden, LearningRate: 0.01, Momentum: 0.9,
						Epochs: 3, BatchSize: 1024,
						DP: dp, ClipNorm: 1, InitSeed: 11,
					},
					// No ERM for NNs: REJECT is skipped, as in the paper.
					Validator: pipeline.MSEValidator{Target: target, B: 1},
				}
			},
		},
		{
			Task: CriteoClassification, Name: "LG", DPAlg: "DP SGD",
			LargeEps: 1.0, SmallEps: 0.25, Delta: 1e-6,
			Targets: []float64{0.74, 0.75, 0.76, 0.77, 0.78},
			Build: func(dp bool, target float64, mode validation.Mode) *pipeline.Pipeline {
				return &pipeline.Pipeline{
					Name: "criteo-lg", Mode: mode,
					Trainer: pipeline.SGDTrainer{
						Kind: ml.BinaryClassification, Dim: criteo.FeatureDim,
						LearningRate: 0.3, Epochs: 3, BatchSize: 512,
						DP: dp, ClipNorm: 1, InitSeed: 12,
					},
					Validator: pipeline.AccuracyValidator{Target: target},
				}
			},
		},
		{
			Task: CriteoClassification, Name: "NN", DPAlg: "DP SGD",
			LargeEps: 1.0, SmallEps: 0.25, Delta: 1e-6,
			Targets: []float64{0.74, 0.75, 0.76, 0.77, 0.78},
			Build: func(dp bool, target float64, mode validation.Mode) *pipeline.Pipeline {
				return &pipeline.Pipeline{
					Name: "criteo-nn", Mode: mode,
					Trainer: pipeline.SGDTrainer{
						Kind: ml.BinaryClassification, Dim: criteo.FeatureDim,
						Hidden: criteoHidden, LearningRate: 0.05, Momentum: 0.9,
						Epochs: 5, BatchSize: 1024,
						DP: dp, ClipNorm: 1, InitSeed: 13,
					},
					Validator: pipeline.AccuracyValidator{Target: target},
				}
			},
		},
	}
}

// Dataset returns n featurized samples of the task's stream, seeded.
// The span covers at least two weeks so the stream exhibits its full
// hour-of-day and day-of-week structure even for small n (the paper's
// windows always span weeks of data).
func Dataset(task Task, n int, seed uint64) *data.Dataset {
	const minSpan = 24 * 14
	if task == TaxiRegression {
		// ~16K samples/hour at full scale, as in §5.4.
		hours := int64(n / 16000)
		if hours < minSpan {
			hours = minSpan
		}
		return taxi.Pipeline(n, 0, hours, 0, 0, seed)
	}
	hours := int64(n / 267000)
	if hours < minSpan {
		hours = minSpan
	}
	return criteo.Pipeline(n, 0, hours, seed)
}

// release clears the example headers of datasets an experiment built
// and is done with, so that a pointer to one that outlives the
// experiment reaches none of its rows. Such pointers occur: the GC scans
// the innermost frame of an asynchronously preempted goroutine
// conservatively, so a stale stack word left by an earlier worker can
// keep a dropped 160 000-row stream (≈ 70 MB) marked through the next
// experiment's first cycle, which then sets a heap goal twice that
// size. With the headers cleared such a word holds at most the header
// array or one 24 KiB row chunk.
func release(sets ...*data.Dataset) {
	for _, ds := range sets {
		clear(ds.Examples)
	}
}

// PrintTable1 prints the experiment configuration table.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1. Experimental Training Pipelines (reproduction)")
	fmt.Fprintf(w, "%-8s %-4s %-8s %-12s %-12s %s\n",
		"Task", "Model", "DP Alg", "Large ε", "Small ε", "Targets")
	for _, c := range Configs() {
		fmt.Fprintf(w, "%-8s %-4s %-8s (%.2f,%.0e) (%.2f,%.0e) %v\n",
			c.Task, c.Name, c.DPAlg, c.LargeEps, c.Delta, c.SmallEps, c.Delta, c.Targets)
	}
	fmt.Fprintln(w, "Statistics pipelines: Avg.Speed x3 (hour/day/week), error targets {1,5,7.5,10,15} km/h;")
	fmt.Fprintln(w, "Criteo histograms x26, error targets {0.01,0.05,0.10}.")
}
