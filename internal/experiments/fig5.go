package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/validation"
)

// Fig5Point is one measurement of Fig. 5: the quality of one model
// variant trained on N samples and evaluated on a held-out set.
type Fig5Point struct {
	Task    Task
	Model   string // "LR", "NN", "LG"
	Variant string // "NP", "ε=1.00", "ε=0.05", ...
	N       int
	Quality float64 // MSE for Taxi (lower better), accuracy for Criteo
}

// Fig5Options scales the experiment. The zero value gives the full
// sweep; benches shrink Sizes and Holdout.
type Fig5Options struct {
	// Sizes is the training-set size grid (default 10K…1M log grid).
	Sizes []int
	// Holdout is the evaluation set size (paper: 100K).
	Holdout int
	// Models filters by "<Task>-<Name>" (for example "Taxi-LR"); empty
	// runs all.
	Models []string
	// Seed drives data generation and DP noise.
	Seed uint64
	// Workers bounds the experiment engine's parallelism (<= 0 means
	// runtime.GOMAXPROCS(0)). Output is bit-identical for any value.
	Workers int
}

func (o *Fig5Options) fill() {
	if len(o.Sizes) == 0 {
		o.Sizes = []int{10000, 30000, 100000, 300000, 1000000}
	}
	if o.Holdout == 0 {
		o.Holdout = 100000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Fig5 regenerates the learning curves of Fig. 5: for each Table 1
// pipeline, the non-private, large-ε and small-ε variants trained on
// growing data, evaluated on a held-out set. The grid is flattened into
// independent cells run on Workers goroutines (parallel.Map) and
// collected in grid order; per-cell rng.MixSeed seeds keep the output
// bit-identical for any Workers value.
func Fig5(o Fig5Options) []Fig5Point {
	o.fill()
	cfgs := Configs()
	selected := selectConfigs(cfgs, o.Models)

	// Stage 1: the stream and the holdout of each distinct task (several
	// pipelines share a task's data), generated in parallel as tasks of
	// their own, streams first: sets[t] is task t's stream and
	// sets[len(tasks)+t] its holdout.
	maxN := o.Sizes[len(o.Sizes)-1]
	tasks, taskOf := distinctTasks(cfgs, selected)
	sets := parallel.Map(o.Workers, 2*len(tasks), func(i int) *data.Dataset {
		if i < len(tasks) {
			return Dataset(tasks[i], maxN, o.Seed)
		}
		return Dataset(tasks[i-len(tasks)], o.Holdout, o.Seed+1)
	})
	defer release(sets...)

	// Stage 2: flatten the (pipeline × variant × size) grid in output
	// order; every cell trains and evaluates independently.
	type cell struct {
		cfgIdx          int
		stream, holdout *data.Dataset
		variant         string
		dp              bool
		eps             float64
		n               int
	}
	var cells []cell
	for _, cfgIdx := range selected {
		cfg := cfgs[cfgIdx]
		variants := []struct {
			name string
			dp   bool
			eps  float64
		}{
			{"NP", false, 0},
			{fmt.Sprintf("ε=%.2f", cfg.LargeEps), true, cfg.LargeEps},
			{fmt.Sprintf("ε=%.2f", cfg.SmallEps), true, cfg.SmallEps},
		}
		for _, v := range variants {
			for _, n := range o.Sizes {
				t := taskOf[cfg.Task]
				cells = append(cells, cell{
					cfgIdx: cfgIdx, stream: sets[t], holdout: sets[len(tasks)+t],
					variant: v.name, dp: v.dp, eps: v.eps, n: n,
				})
			}
		}
	}
	return parallel.Map(o.Workers, len(cells), func(i int) Fig5Point {
		c := cells[i]
		cfg := cfgs[c.cfgIdx]
		p := cfg.Build(c.dp, cfg.Targets[0], validation.ModeSage)
		train := c.stream.Head(c.n)
		// Train directly (no validation): Fig. 5 measures training
		// quality, not acceptance.
		budget := privacy.Budget{Epsilon: c.eps, Delta: cfg.Delta}
		// The seed mixes the cell's own coordinates — pipeline included,
		// so variants that share an ε (all LargeEps are 1.0) still get
		// decorrelated noise across panels.
		r := rng.New(rng.MixSeed(o.Seed, uint64(c.cfgIdx), uint64(c.n),
			math.Float64bits(c.eps)))
		model := p.Trainer.Train(train, budget, r)
		return Fig5Point{
			Task: cfg.Task, Model: cfg.Name, Variant: c.variant,
			N: c.n, Quality: quality(cfg.Task, model, c.holdout),
		}
	})
}

// selectConfigs returns the indexes of the configs whose "<Task>-<Name>"
// is in models, in Configs() order; empty models selects all.
func selectConfigs(cfgs []ModelConfig, models []string) []int {
	var selected []int
	for i, cfg := range cfgs {
		if len(models) == 0 || slices.Contains(models, cfg.Task.String()+"-"+cfg.Name) {
			selected = append(selected, i)
		}
	}
	return selected
}

// distinctTasks returns the distinct tasks among the selected configs in
// first-appearance order, plus a task → index lookup, so dataset
// generation runs once per task rather than once per pipeline.
func distinctTasks(cfgs []ModelConfig, selected []int) ([]Task, map[Task]int) {
	var tasks []Task
	idx := make(map[Task]int)
	for _, ci := range selected {
		t := cfgs[ci].Task
		if _, ok := idx[t]; !ok {
			idx[t] = len(tasks)
			tasks = append(tasks, t)
		}
	}
	return tasks, idx
}

// quality evaluates a model with the task's metric: MSE for the Taxi
// regression, accuracy for the Criteo classification.
func quality(task Task, m ml.Model, holdout *data.Dataset) float64 {
	if task == TaxiRegression {
		return ml.MSE(m, holdout)
	}
	return ml.Accuracy(m, holdout)
}

// PrintFig5 renders the points as the four panels of Fig. 5.
func PrintFig5(w io.Writer, pts []Fig5Point) {
	fmt.Fprintln(w, "Fig. 5. Impact of DP on training pipelines (quality vs training samples)")
	last := ""
	for _, p := range pts {
		panel := fmt.Sprintf("%s %s", p.Task, p.Model)
		if panel != last {
			metric := "MSE"
			if p.Task == CriteoClassification {
				metric = "Accuracy"
			}
			fmt.Fprintf(w, "-- %s (%s) --\n", panel, metric)
			last = panel
		}
		fmt.Fprintf(w, "%-8s n=%-8d quality=%.6f\n", p.Variant, p.N, p.Quality)
	}
}
