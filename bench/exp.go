package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/privacy"
	"repro/internal/validation"
)

// expSizes are the options of the six experiment calls of one pass,
// near bench_test.go's, sized so that a pass takes about 1.5 s on two
// cores and no single call is negligible.
type expSizes struct {
	fig5Sizes   []int
	fig5Holdout int
	fig6Stream  int
	fig7Sizes   []int
	fig7Block   int
	fig7Stream  int
	fig7Holdout int
	fig8Taxi    []float64
	fig8Criteo  []float64
	fig8Hours   int
	tab2Stream  int
	tab2Holdout int
}

var expCalls = []string{"fig5", "fig6", "fig7_quality", "fig7_accept", "fig8", "tab2"}

// expWorkload is pure compute: the paper's evaluation at reduced scale
// (linalg/ml kernels, RDP calibration, validators, parallel.Pool, the
// workload simulator), no HTTP and no WAL. A round is one pass over the
// six experiment calls; an op is one call.
type expWorkload struct {
	o       options
	tr      *tracer
	workers int

	passes int
	hashes [][sha256.Size]byte // per call, from the first pass
	// callSec[i] collects call i's duration in every pass.
	callSec [][]float64
}

func newExpWorkload(o options, tr *tracer) *expWorkload {
	return &expWorkload{o: o, tr: tr, workers: runtime.GOMAXPROCS(0), callSec: make([][]float64, len(expCalls))}
}

func (w *expWorkload) setup() error {
	// The DP-SGD calibration cache is process-wide; every set-up starts
	// it cold so that repeated set-ups in one process do the same work.
	privacy.ResetSGDCalibrationCache()
	_, err := w.round()
	w.tr.mark()
	return err
}

// call runs experiment i with the given parallelism and returns its
// printed output.
func (w *expWorkload) call(i, workers int) []byte {
	e := w.o.sz.exp
	var out bytes.Buffer
	switch expCalls[i] {
	case "fig5":
		experiments.PrintFig5(&out, experiments.Fig5(experiments.Fig5Options{
			Sizes: e.fig5Sizes, Holdout: e.fig5Holdout, Models: []string{"Taxi-LR"},
			Seed: w.o.seed, Workers: workers,
		}))
	case "fig6":
		experiments.PrintFig6(&out, experiments.Fig6(experiments.Fig6Options{
			MaxStream: e.fig6Stream, Models: []string{"Taxi-LR"}, TargetsPerConfig: 1,
			Modes: []validation.Mode{validation.ModeNoSLA, validation.ModeSage},
			Seed:  w.o.seed, Workers: workers,
		}))
	case "fig7_quality":
		experiments.PrintFig7(&out, experiments.Fig7Quality(w.fig7(workers)), nil)
	case "fig7_accept":
		experiments.PrintFig7(&out, nil, experiments.Fig7Accept(w.fig7(workers)))
	case "fig8":
		experiments.PrintFig8(&out, experiments.Fig8(experiments.Fig8Options{
			TaxiRates: e.fig8Taxi, CriteoRates: e.fig8Criteo, Hours: e.fig8Hours,
			Seed: w.o.seed, Workers: workers,
		}))
	case "tab2":
		experiments.PrintTab2(&out, experiments.Tab2(experiments.Tab2Options{
			Runs: 1, Stream: e.tab2Stream, Holdout: e.tab2Holdout, Etas: []float64{0.05},
			Modes: []validation.Mode{validation.ModeSage},
			Seed:  w.o.seed, Workers: workers,
		}))
	}
	return out.Bytes()
}

func (w *expWorkload) fig7(workers int) experiments.Fig7Options {
	e := w.o.sz.exp
	return experiments.Fig7Options{
		Sizes: e.fig7Sizes, LRBlockSizes: []int{e.fig7Block}, Targets: []float64{0.007},
		MaxStream: e.fig7Stream, Holdout: e.fig7Holdout, SkipNN: true,
		Seed: w.o.seed, Workers: workers,
	}
}

func (w *expWorkload) round() (roundStat, error) { return w.pass(w.workers) }

// pass runs the six calls once. Every pass uses the run's seed, so the
// printed output of a call must hash the same in every pass — the
// engine's determinism invariant — whatever a kernel change does to
// the low-order bits.
func (w *expWorkload) pass(workers int) (roundStat, error) {
	outputs := make([][]byte, len(expCalls))
	durs := make([]time.Duration, len(expCalls))
	var root span
	if w.tr != nil {
		root = span{ID: w.tr.newID(), Req: uint64(w.passes + 1), Name: "exp.pass", Start: w.tr.now()}
	}
	sec := measure(func() {
		for i := range expCalls {
			start := time.Now()
			outputs[i] = w.call(i, workers)
			durs[i] = time.Since(start)
			if w.tr != nil {
				end := w.tr.now()
				w.tr.record(span{ID: w.tr.newID(), Parent: root.ID, Req: root.Req, Name: "experiments." + expCalls[i], Start: end - durs[i], End: end})
			}
		}
	})
	if w.tr != nil {
		root.End = w.tr.now()
		w.tr.record(root)
	}
	w.passes++
	st := roundStat{section: sec, ops: len(expCalls), parts: durs}
	for i, out := range outputs {
		if workers == w.workers {
			w.callSec[i] = append(w.callSec[i], durs[i].Seconds())
		}
		if len(out) == 0 {
			return st, fmt.Errorf("experiments %s printed nothing", expCalls[i])
		}
		h := sha256.Sum256(out)
		if len(w.hashes) <= i {
			w.hashes = append(w.hashes, h)
		} else if h != w.hashes[i] {
			return st, fmt.Errorf("experiments %s: output differs between passes with one seed", expCalls[i])
		}
	}
	return st, nil
}

// finish has nothing to stop; the determinism check ran in every pass
// after the set-up's.
func (w *expWorkload) finish() error { return nil }
