package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/adaptive"
	"repro/internal/data"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/validation"
)

// Fig6Point is one measurement of Fig. 6: the number of samples
// privacy-adaptive training needed before the given validation mode
// ACCEPTed the model at the given quality target.
type Fig6Point struct {
	Task   Task
	Model  string
	Mode   validation.Mode
	Target float64
	// Samples required to ACCEPT; = MaxStream+1 when never accepted
	// within the stream (rendered as "∞" by PrintFig6).
	Samples  int
	Accepted bool
}

// Fig6Options scales the experiment.
type Fig6Options struct {
	// MaxStream bounds the stream a search may consume (paper sweeps
	// to 10M; default 1M).
	MaxStream int
	// MinSamples is the initial window (default 5000).
	MinSamples int
	// Modes to compare (default: all four Table 2 modes).
	Modes []validation.Mode
	// Models filters by "<Task>-<Name>"; empty runs all.
	Models []string
	// TargetsPerConfig keeps each config's first k targets (useful for
	// benches); 0 keeps them all.
	TargetsPerConfig int
	Seed             uint64
	// Workers bounds the experiment engine's parallelism (<= 0 means
	// runtime.GOMAXPROCS(0)). Output is bit-identical for any value.
	Workers int
}

func (o *Fig6Options) fill() {
	if o.MaxStream == 0 {
		o.MaxStream = 1000000
	}
	if o.MinSamples == 0 {
		o.MinSamples = 5000
	}
	if len(o.Modes) == 0 {
		o.Modes = []validation.Mode{
			validation.ModeNoSLA, validation.ModeNPSLA,
			validation.ModeUncorrectedDP, validation.ModeSage,
		}
	}
	if o.Seed == 0 {
		o.Seed = 2
	}
}

// fig6Cell is one task of the Fig. 6 grid: a (pipeline, target, mode)
// coordinate plus the shared (read-only) stream it searches over.
type fig6Cell struct {
	cfgIdx int // index into Configs(): the cell's stable identity
	stream *data.Dataset
	target float64
	mode   validation.Mode
}

// Fig6 regenerates the sample-complexity curves of Fig. 6: for each
// pipeline, target, and validation mode, the data required for
// privacy-adaptive training to ACCEPT. The grid is flattened into
// independent cells run on Workers goroutines (parallel.Map); each
// cell's RNG is derived from its own coordinates, so the output is
// bit-identical for any Workers value and any cross-experiment
// interleaving.
func Fig6(o Fig6Options) []Fig6Point {
	o.fill()
	streams := o.streams()
	defer release(streams...)
	return o.search(streams)
}

// streams is Fig. 6's first stage: one stream per distinct task of the
// selected pipelines (several pipelines share a task's data), generated
// in parallel.
func (o *Fig6Options) streams() []*data.Dataset {
	cfgs := Configs()
	tasks, _ := distinctTasks(cfgs, selectConfigs(cfgs, o.Models))
	return parallel.Map(o.Workers, len(tasks), func(i int) *data.Dataset {
		return Dataset(tasks[i], o.MaxStream, o.Seed)
	})
}

// search is Fig. 6's second stage: it flattens the (pipeline × target ×
// mode) grid in output order and runs every cell's adaptive search
// concurrently over the shared streams, which each search leaves as it
// found them.
func (o *Fig6Options) search(streams []*data.Dataset) []Fig6Point {
	cfgs := Configs()
	selected := selectConfigs(cfgs, o.Models)
	_, taskOf := distinctTasks(cfgs, selected)
	var cells []fig6Cell
	for _, cfgIdx := range selected {
		cfg := cfgs[cfgIdx]
		targets := cfg.Targets
		if o.TargetsPerConfig > 0 && o.TargetsPerConfig < len(targets) {
			targets = targets[:o.TargetsPerConfig]
		}
		for _, target := range targets {
			for _, mode := range o.Modes {
				cells = append(cells, fig6Cell{
					cfgIdx: cfgIdx, stream: streams[taskOf[cfg.Task]],
					target: target, mode: mode,
				})
			}
		}
	}
	return parallel.Map(o.Workers, len(cells), func(i int) Fig6Point {
		c := cells[i]
		cfg := cfgs[c.cfgIdx]
		// NP SLA uses the non-private trainer (it measures the cost of
		// statistical rigor alone); the DP modes use the DP trainer.
		dp := c.mode != validation.ModeNPSLA
		pipe := cfg.Build(dp, c.target, c.mode)
		search := adaptive.Search{
			Pipe:       pipe,
			Epsilon0:   cfg.LargeEps / 8,
			EpsilonCap: cfg.LargeEps,
			Delta:      cfg.Delta,
			MinSamples: o.MinSamples,
		}
		// The cell seed mixes the cell's own coordinates (not its grid
		// position) so nearby cells get decorrelated streams and a
		// cell's result does not depend on which other cells run.
		r := rng.New(rng.MixSeed(o.Seed, uint64(c.cfgIdx),
			math.Float64bits(c.target), uint64(c.mode)))
		res, err := search.Run(c.stream, r)
		pt := Fig6Point{
			Task: cfg.Task, Model: cfg.Name,
			Mode: c.mode, Target: c.target,
		}
		if err == nil && res.Decision == validation.Accept {
			pt.Samples = res.Samples
			pt.Accepted = true
		} else {
			pt.Samples = o.MaxStream + 1
		}
		return pt
	})
}

// PrintFig6 renders the points as the four panels of Fig. 6.
func PrintFig6(w io.Writer, pts []Fig6Point) {
	fmt.Fprintln(w, "Fig. 6. Samples required to ACCEPT models at quality targets")
	last := ""
	for _, p := range pts {
		panel := fmt.Sprintf("%s %s", p.Task, p.Model)
		if panel != last {
			fmt.Fprintf(w, "-- %s ACCEPT --\n", panel)
			last = panel
		}
		n := fmt.Sprintf("%d", p.Samples)
		if !p.Accepted {
			n = "∞ (not accepted within stream)"
		}
		fmt.Fprintf(w, "%-10s target=%-8.4g samples=%s\n", p.Mode, p.Target, n)
	}
}
