// Command sage-experiments regenerates the paper's tables and figures
// (§5) from the reproduction: Table 1 (configurations), Table 2
// (validator violation rates), Fig. 5 (DP impact on quality), Fig. 6
// (SLAed validation sample complexity), Fig. 7 (block vs query
// composition), and Fig. 8 (workload release times).
//
// Usage:
//
//	sage-experiments -exp tab1|tab2|fig5|fig6|fig7|fig8|all [-scale small|full] [-seed N] [-workers N]
//
// The small scale finishes on a laptop in minutes; full mirrors the
// paper's grid sizes (hours of compute). Every experiment grid runs on
// the deterministic parallel engine (internal/parallel): -workers bounds
// each grid's concurrency (default: all cores) and any value produces
// bit-identical output.
//
// The selected experiments run concurrently, each in its own goroutine
// with its own -workers cells in flight, so the tail of one
// experiment's grid overlaps the rest of the others instead of idling
// at a per-experiment barrier; the Go runtime schedules them all on the
// same cores. Each experiment writes into its own buffer and the
// buffers are flushed to stdout in the canonical order, so stdout is
// byte-identical for any -workers value. Timing and the DP-SGD
// calibration-cache report go to stderr.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/privacy"
)

// experiment is one runnable unit: it writes its figure/table to w.
type experiment struct {
	name string
	fn   func(w io.Writer)
}

func main() {
	exp := flag.String("exp", "all", "experiment: tab1, tab2, fig5, fig6, fig7, fig8, all")
	scale := flag.String("scale", "small", "small (minutes) or full (hours)")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines per experiment grid (results identical for any value). "+
			"The total timing line's \"cpu X of N cores\" is process CPU time over wall clock: "+
			"a figure near 1 with N > 1 means a serial prefix — a cell cannot start before "+
			"its experiment's dataset is generated — not a scheduler fault")
	flag.Parse()

	full := *scale == "full"
	if *scale != "full" && *scale != "small" {
		fmt.Fprintln(os.Stderr, "unknown -scale; use small or full")
		os.Exit(2)
	}

	all := []experiment{
		{"tab1", func(w io.Writer) { experiments.PrintTable1(w) }},
		{"fig5", func(w io.Writer) {
			o := experiments.Fig5Options{Seed: *seed, Workers: *workers}
			if !full {
				o.Sizes = []int{10000, 50000, 200000}
				o.Holdout = 50000
			}
			experiments.PrintFig5(w, experiments.Fig5(o))
		}},
		{"fig6", func(w io.Writer) {
			o := experiments.Fig6Options{Seed: *seed, Workers: *workers}
			if !full {
				o.MaxStream = 400000
				o.TargetsPerConfig = 3
			} else {
				o.MaxStream = 2000000
			}
			experiments.PrintFig6(w, experiments.Fig6(o))
		}},
		{"tab2", func(w io.Writer) {
			o := experiments.Tab2Options{Seed: *seed, Workers: *workers}
			if !full {
				o.Runs = 15
				o.Stream = 120000
				o.Holdout = 50000
			} else {
				o.Runs = 100
			}
			experiments.PrintTab2(w, experiments.Tab2(o))
		}},
		{"fig7", func(w io.Writer) {
			o := experiments.Fig7Options{Seed: *seed, Workers: *workers}
			if !full {
				o.Sizes = []int{20000, 80000, 320000}
				o.LRBlockSizes = []int{10000, 50000}
				o.NNBlockSize = 100000
				o.MaxStream = 640000
				o.SkipNN = true
			}
			quality := experiments.Fig7Quality(o)
			accepts := experiments.Fig7Accept(o)
			experiments.PrintFig7(w, quality, accepts)
		}},
		{"fig8", func(w io.Writer) {
			o := experiments.Fig8Options{Seed: *seed, Workers: *workers}
			if !full {
				o.Hours = 800
			} else {
				o.Hours = 3000
			}
			experiments.PrintFig8(w, experiments.Fig8(o))
		}},
	}

	var selected []experiment
	for _, e := range all {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown -exp %q\n", *exp)
		os.Exit(2)
	}

	total := stopwatch(runtime.GOMAXPROCS(0))
	run(selected, *scale)
	fmt.Fprintf(os.Stderr, "total wall-clock %s\n", total())
	if st := privacy.SGDCalibrationStats(); st.Hits+st.Misses > 0 {
		fmt.Fprintf(os.Stderr, "DP-SGD calibration cache: %d hits / %d misses (hit rate %.1f%%)\n",
			st.Hits, st.Misses, 100*st.HitRate())
	}
}

// stopwatch starts timing a stretch of the run by wall clock and by the
// CPU time the whole process spends over it; the returned func renders
// both as "1.234s, cpu 1.21 of 2 cores" (wall clock alone where the
// platform does not report process CPU time). The second figure is the
// average number of cores kept busy, the quick answer to "why did more
// workers not help": what runs before an experiment's first cell can
// start is serial, and shows as a figure near 1. The clocks live here,
// not in the experiment packages, which stay free of time so that they
// stay deterministic.
func stopwatch(cores int) func() string {
	start, cpu := time.Now(), processCPU()
	return func() string {
		wall := time.Since(start)
		out := wall.Round(time.Millisecond).String()
		if busy := processCPU() - cpu; busy > 0 && wall > 0 {
			out += fmt.Sprintf(", cpu %.2f of %d cores", busy.Seconds()/wall.Seconds(), cores)
		}
		return out
	}
}

// run executes the experiments concurrently and flushes their buffered
// output in canonical order. Every experiment's cells carry
// coordinate-derived seeds, so the interleaving cannot change a single
// byte of the output.
func run(selected []experiment, scale string) {
	bufs := make([]bytes.Buffer, len(selected))
	elapsed := make([]time.Duration, len(selected))
	done := make([]chan struct{}, len(selected))
	for i, e := range selected {
		done[i] = make(chan struct{})
		go func() {
			defer close(done[i])
			t0 := time.Now()
			e.fn(&bufs[i])
			elapsed[i] = time.Since(t0)
		}()
	}
	for i, e := range selected {
		<-done[i]
		fmt.Printf("==== %s (scale=%s) ====\n", e.name, scale)
		io.Copy(os.Stdout, &bufs[i])
		fmt.Println()
		fmt.Fprintf(os.Stderr, "---- %s done in %v ----\n", e.name, elapsed[i].Round(time.Millisecond))
	}
}
