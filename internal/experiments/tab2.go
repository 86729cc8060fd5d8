package experiments

import (
	"fmt"
	"io"

	"repro/internal/adaptive"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/validation"
)

// Tab2Row is one cell group of Table 2: the fraction of ACCEPTed models
// that violate their quality target when re-evaluated on a large
// held-out set, per validation mode.
type Tab2Row struct {
	Task Task
	Eta  float64
	// ViolationRate and Accepts per mode.
	ViolationRate map[validation.Mode]float64
	Accepts       map[validation.Mode]int
}

// Tab2Options scales the experiment.
type Tab2Options struct {
	// Runs is the number of independent privacy-adaptive trainings per
	// (task, mode, η) cell; each uses a fresh stream sample.
	Runs int
	// Stream bounds the per-run stream size (default 150K).
	Stream int
	// Holdout is the re-evaluation set size (paper: 100K).
	Holdout int
	// Etas are the validator confidences (paper: 0.01, 0.05).
	Etas []float64
	// Modes to compare (default all four).
	Modes []validation.Mode
	Seed  uint64
	// Workers bounds the experiment engine's parallelism (<= 0 means
	// runtime.GOMAXPROCS(0)). Output is bit-identical for any value.
	Workers int
}

func (o *Tab2Options) fill() {
	if o.Runs == 0 {
		o.Runs = 40
	}
	if o.Stream == 0 {
		o.Stream = 150000
	}
	if o.Holdout == 0 {
		o.Holdout = 100000
	}
	if len(o.Etas) == 0 {
		o.Etas = []float64{0.01, 0.05}
	}
	if len(o.Modes) == 0 {
		o.Modes = []validation.Mode{
			validation.ModeNoSLA, validation.ModeNPSLA,
			validation.ModeUncorrectedDP, validation.ModeSage,
		}
	}
	if o.Seed == 0 {
		o.Seed = 3
	}
}

// Tab2 regenerates Table 2. For each task it repeatedly runs
// privacy-adaptive training with targets drawn near the achievable
// frontier (where erroneous acceptance is possible at all), re-evaluates
// every ACCEPTed model on a held-out set, and reports the fraction that
// violate their target.
//
// Only the LR (Taxi) and LG (Criteo) pipelines run here — the NN
// pipelines behave the same through identical validators but cost far
// more compute; the paper aggregates across its pipelines.
func Tab2(o Tab2Options) []Tab2Row {
	o.fill()
	cfgs := Configs()
	var selected []int
	for i, cfg := range cfgs {
		if cfg.Name == "LR" || cfg.Name == "LG" {
			selected = append(selected, i)
		}
	}

	// Stage 1: one re-evaluation holdout per task, generated in parallel.
	holdouts := parallel.Map(o.Workers, len(selected), func(i int) *data.Dataset {
		return Dataset(cfgs[selected[i]].Task, o.Holdout, o.Seed+999)
	})
	defer release(holdouts...)

	// Stage 2: flatten the (task × η × mode × run) grid. Every run is an
	// independent privacy-adaptive training over its own stream sample —
	// the dominant cost — so runs fan out across Workers goroutines and the
	// accept/violate outcomes are folded back in grid order afterwards.
	type cell struct {
		cfgIdx, holdIdx int
		eta             float64
		mode            validation.Mode
		run             int
	}
	var cells []cell
	for i, cfgIdx := range selected {
		for _, eta := range o.Etas {
			for _, mode := range o.Modes {
				for run := 0; run < o.Runs; run++ {
					cells = append(cells, cell{
						cfgIdx: cfgIdx, holdIdx: i,
						eta: eta, mode: mode, run: run,
					})
				}
			}
		}
	}
	type outcome struct{ accepted, violated bool }
	outcomes := parallel.Map(o.Workers, len(cells), func(i int) outcome {
		c := cells[i]
		cfg := cfgs[c.cfgIdx]
		seed := o.Seed + uint64(c.run)*31 + uint64(c.mode)*7 + uint64(c.eta*1000)
		stream := Dataset(cfg.Task, o.Stream, seed)
		defer release(stream)
		// Hard targets near the frontier: the last (tightest) two of
		// the config's range, alternating per run.
		target := cfg.Targets[len(cfg.Targets)-1-c.run%2]
		dp := c.mode != validation.ModeNPSLA
		pipe := cfg.Build(dp, target, c.mode)
		pipe.Eta = c.eta
		search := adaptive.Search{
			Pipe:       pipe,
			Epsilon0:   cfg.LargeEps / 8,
			EpsilonCap: cfg.LargeEps,
			Delta:      cfg.Delta,
			MinSamples: 5000,
		}
		res, err := search.Run(stream, rng.New(seed))
		if err != nil || res.Decision != validation.Accept {
			return outcome{}
		}
		return outcome{
			accepted: true,
			violated: violates(cfg.Task, res.Model, holdouts[c.holdIdx], target),
		}
	})

	// Stage 3: fold the per-run outcomes into Table 2 rows, in the same
	// order the sequential nest produced them.
	var rows []Tab2Row
	next := 0
	for _, cfgIdx := range selected {
		for _, eta := range o.Etas {
			row := Tab2Row{
				Task: cfgs[cfgIdx].Task, Eta: eta,
				ViolationRate: make(map[validation.Mode]float64),
				Accepts:       make(map[validation.Mode]int),
			}
			for _, mode := range o.Modes {
				violations, accepts := 0, 0
				for run := 0; run < o.Runs; run++ {
					oc := outcomes[next]
					next++
					if oc.accepted {
						accepts++
						if oc.violated {
							violations++
						}
					}
				}
				row.Accepts[mode] = accepts
				if accepts > 0 {
					row.ViolationRate[mode] = float64(violations) / float64(accepts)
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// violates reports whether the model misses its target on the held-out
// set (MSE above target for Taxi; accuracy below target for Criteo).
func violates(task Task, m ml.Model, holdout *data.Dataset, target float64) bool {
	if task == TaxiRegression {
		return ml.MSE(m, holdout) > target
	}
	return ml.Accuracy(m, holdout) < target
}

// PrintTab2 renders the rows in the paper's Table 2 layout.
func PrintTab2(w io.Writer, rows []Tab2Row) {
	fmt.Fprintln(w, "Table 2. Target violation rate of ACCEPTed models")
	fmt.Fprintf(w, "%-8s %-6s %-10s %-10s %-10s %-10s\n",
		"Dataset", "η", "No SLA", "NP SLA", "UC DP SLA", "Sage SLA")
	modes := []validation.Mode{
		validation.ModeNoSLA, validation.ModeNPSLA,
		validation.ModeUncorrectedDP, validation.ModeSage,
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-8s %-6.2f", row.Task, row.Eta)
		for _, m := range modes {
			rate, ok := row.ViolationRate[m]
			if !ok || row.Accepts[m] == 0 {
				fmt.Fprintf(w, " %-10s", "n/a")
			} else {
				fmt.Fprintf(w, " %-10.4f", rate)
			}
		}
		fmt.Fprintln(w)
	}
}
