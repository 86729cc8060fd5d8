// Command bench is the repository's benchmark: four long workloads that
// drive the real tiers in-process through their public APIs, five
// end-to-end metrics per workload, and a traced run that splits each
// workload's time over the layers. README.md has the design; the
// declared names live in declared.go and BENCHMARK.json, and
// bench_test.go keeps the two and the harness's output in bijection.
//
//	bash bench/run.sh --workload serve-batch --seed 1 --seconds 18 --trace 0
//	bash bench/run.sh --aa 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// roundStat is what one fixed-size round reports.
type roundStat struct {
	section           // the timed part only
	ops     int       // operations attempted
	failed  int       // refused, errored or non-200; never retried
	lat     []float64 // ms per completed request, where requests are visible from outside
	// parts splits the timed section where a round is a fixed sequence of
	// unlike operations (exp-sweep's six calls); nil elsewhere.
	parts    []time.Duration
	firstErr error
}

// workload is one of the four. A fresh value is built for every set-up.
type workload interface {
	// setup does everything that precedes the first timed op, including
	// one untimed warm-up round.
	setup() error
	// round runs one fixed-size round. Untimed work between rounds
	// (verification, republishing, recovery) happens inside it, outside
	// the section it reports.
	round() (roundStat, error)
	// finish checks the end-state invariants and stops everything the
	// workload started. It is safe after a failed setup.
	finish() error
	// layers reports the workload's per-layer metrics after a traced
	// run; it is called after finish.
	layers(m metricSet) error
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string    // traces and scratch directories
	log      io.Writer // the human-readable report
}

func newWorkload(o options, tr *tracer) (workload, error) {
	switch o.workload {
	case "serve-batch", "serve-mixed":
		return newServeWorkload(o, tr), nil
	case "loop-durable":
		return newLoopWorkload(o, tr), nil
	case "exp-sweep":
		return newExpWorkload(o, tr), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
}

// result is the run's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by declared name; set panics on a name the
// declaration table does not have, so an undeclared metric cannot be
// printed.
type metricSet struct {
	values map[string]float64
	n      map[string]int // sample counts, for the report
}

func newMetricSet() metricSet {
	return metricSet{values: map[string]float64{}, n: map[string]int{}}
}

func (m metricSet) set(name string, v float64, n int) {
	if _, ok := declaredUnit(name); !ok {
		panic("bench: metric " + name + " is not declared in declared.go")
	}
	m.values[name] = v
	m.n[name] = n
}

// phase runs rounds of w until budget is used up, always at least
// minRounds.
func phase(w workload, minRounds int, budget time.Duration) ([]roundStat, error) {
	var rounds []roundStat
	start := time.Now()
	for {
		st, err := w.round()
		rounds = append(rounds, st)
		if err != nil {
			return rounds, err
		}
		perRound := time.Since(start) / time.Duration(len(rounds))
		if len(rounds) >= minRounds && time.Since(start)+perRound > budget {
			return rounds, nil
		}
	}
}

// The host this runs on is shared: bursts of interference lasting from a
// fraction of a second to tens of seconds slow everything that touches
// memory by 10-25 %, and they only ever slow it. A median over rounds
// therefore moves with the share of a run the bursts happened to cover.
// The estimators below take the quiet decile instead — the time one
// round in ten beats — which stays put while fewer than nine tenths of a
// run are disturbed, and still moves one for one with a change that
// slows every round (every round of a run is the same work).
const quietQuantile = 0.10

// quietWall estimates one undisturbed round's wall time in seconds: per
// part of the round (a round without parts is one part), the quiet decile
// of that part's time over all rounds, summed.
func quietWall(rounds []roundStat) float64 {
	nparts := max(len(rounds[0].parts), 1)
	total := 0.0
	for k := 0; k < nparts; k++ {
		times := make([]float64, len(rounds))
		for i, r := range rounds {
			if len(r.parts) == 0 {
				times[i] = r.wall.Seconds()
			} else {
				times[i] = r.parts[k].Seconds()
			}
		}
		total += quantile(sortedCopy(times), quietQuantile)
	}
	return total
}

// endToEnd reduces a phase's rounds to the end-to-end metrics measured
// per round (setup_s and peak_rss_mb are filled in by run).
func endToEnd(m metricSet, rounds []roundStat) {
	var alloc, roundP50 []float64
	ops, done, nlat := 0, 0, 0
	for _, r := range rounds {
		ops += r.ops
		done += r.ops - r.failed
		alloc = append(alloc, float64(r.alloc)/1024/float64(r.ops))
		if len(r.lat) > 0 {
			roundP50 = append(roundP50, median(r.lat))
			nlat += len(r.lat)
		}
	}
	perRound := float64(done) / float64(len(rounds))
	wall := quietWall(rounds)
	m.set("rate_per_s", perRound/wall, len(rounds))
	m.set("alloc_kb_per_op", median(alloc), len(alloc))
	if len(roundP50) > 0 {
		// The median client-observed latency of each round, then the quiet
		// decile over rounds.
		m.set("p50_ms", quantile(sortedCopy(roundP50), quietQuantile), nlat)
	} else {
		// Single ticks and experiment cells are not visible from outside:
		// the quiet round's wall ÷ ops stands in.
		m.set("p50_ms", 1e3*wall/(float64(ops)/float64(len(rounds))), len(rounds))
	}
}

// measureOn builds the workload (traced when tr is non-nil), times its
// set-up, runs rounds on it for budget and finishes it. The finished
// workload is returned for its layer report.
func measureOn(o options, tr *tracer, budget time.Duration) (workload, float64, []roundStat, error) {
	w, err := newWorkload(o, tr)
	if err != nil {
		return nil, 0, nil, err
	}
	start := time.Now()
	if err := w.setup(); err != nil {
		return nil, 0, nil, errors.Join(fmt.Errorf("set-up: %w", err), w.finish())
	}
	setupSec := time.Since(start).Seconds()
	rounds, err := phase(w, o.sz.minRounds, budget)
	if err = errors.Join(err, w.finish()); err != nil {
		return nil, 0, nil, err
	}
	// The per-round series shows the host's drift to whoever reads a slow
	// run's report.
	fmt.Fprintf(o.log, "bench: set-up %.2f s, per-round ops/s:", setupSec)
	for _, r := range rounds {
		fmt.Fprintf(o.log, " %.4g", float64(r.ops-r.failed)/r.wall.Seconds())
	}
	fmt.Fprintln(o.log)
	return w, setupSec, rounds, nil
}

// run performs one benchmark run and returns its result line.
func run(o options) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	m := newMetricSet()
	fmt.Fprintf(o.log, "bench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d clients=%d scratch=%s\n",
		o.workload, o.seed, o.seconds, o.trace, runtime.GOMAXPROCS(0), o.sz.clients, o.outDir)
	spinBefore := spinMS(o.sz.spinIters)
	var walkBefore float64
	if o.trace {
		// The 64 MB walk would sit in the untraced run's peak RSS.
		walkBefore = memwalkMS(o.sz.walkBytes)
	}

	// Set-up, several times: one set-up is too short to time against the
	// host's drift, so setup_s is the median of sz.setups of them. Every
	// set-up is measured on for its share of the run, which also spreads
	// the rounds over several builds of the workload (listeners, heap
	// layout, connection-to-thread pairing) instead of betting the run on
	// one.
	budget := time.Duration(o.seconds * float64(time.Second))
	nsetups := o.sz.setups
	if o.trace {
		// The traced run reports no setup_s and halves its time between an
		// untraced and a traced build of the workload, one set-up each.
		budget = budget * 45 / 100
		nsetups = 1
	}
	var setups []float64
	var rounds []roundStat
	for i := 0; i < nsetups; i++ {
		_, sec, got, err := measureOn(o, nil, budget/time.Duration(nsetups))
		if err != nil {
			return res, err
		}
		setups = append(setups, sec)
		rounds = append(rounds, got...)
		runtime.GC()
	}
	m.set("setup_s", median(setups), len(setups))
	endToEnd(m, rounds)
	all := rounds

	if o.trace {
		tr := newTracer()
		w, _, traced, err := measureOn(o, tr, budget)
		if err != nil {
			return res, err
		}
		all = append(all, traced...)
		path, err := writeTrace(o.outDir, o.workload, tr.all())
		if err != nil {
			return res, fmt.Errorf("writing the trace: %w", err)
		}
		fmt.Fprintf(o.log, "bench: %d spans, first %d written to %s\n", len(tr.all()), min(len(tr.all()), traceFileSpans), path)

		tm := newMetricSet()
		endToEnd(tm, traced)
		m.set("trace.overhead_pct", 100*(m.values["rate_per_s"]-tm.values["rate_per_s"])/m.values["rate_per_s"], len(traced))
		processLayers(m, rounds)
		if err := w.layers(m); err != nil {
			return res, fmt.Errorf("per-layer metrics: %w", err)
		}
		m.set("host.spin_ms", (spinBefore+spinMS(o.sz.spinIters))/2, 2)
		m.set("host.memwalk_ms", (walkBefore+memwalkMS(o.sz.walkBytes))/2, 2)
	}
	fmt.Fprintf(o.log, "bench: host.spin_ms before=%.2f after=%.2f\n", spinBefore, spinMS(o.sz.spinIters))

	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	m.set("peak_rss_mb", rss, 1)

	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
		if r.firstErr != nil {
			fmt.Fprintf(o.log, "bench: failed op: %v\n", r.firstErr)
		}
	}
	res.Correct = true
	want := endToEndDecls
	if o.trace {
		want = perLayerDecls
	}
	for _, d := range want {
		// A layer this workload does not exercise was never set and reads
		// 0 (README, last column of the layer table).
		res.Metrics[d.name] = metricValue{Value: m.values[d.name], Unit: d.unit}
	}
	printReport(o.log, m)
	fmt.Fprintf(o.log, "bench: ops_attempted=%d ops_failed=%d rounds=%d\n", res.Attempted, res.Failed, len(all))
	return res, nil
}

// processLayers reports the process-level metrics of the untraced
// rounds: tails, CPU, allocation counts and GC.
func processLayers(m metricSet, rounds []roundStat) {
	var total section
	var lat []float64
	ops := 0
	for _, r := range rounds {
		total.add(r.section)
		ops += r.ops
		lat = append(lat, r.lat...)
	}
	if len(lat) > 0 {
		s := sortedCopy(lat)
		m.set("e2e.p99_ms", quantile(s, 0.99), len(s))
		m.set("e2e.p999_ms", quantile(s, 0.999), len(s))
	}
	m.set("e2e.cpu_ms_per_op", float64(total.cpu)/1e6/float64(ops), ops)
	m.set("proc.allocs_per_op", float64(total.mallocs)/float64(ops), ops)
	m.set("proc.gc_cycles", float64(total.gcs), len(rounds))
	m.set("proc.gc_pause_ms", float64(total.gcPause)/1e6, len(rounds))
}

// printReport lists every metric measured in this run, by name, with
// unit and sample count.
func printReport(w io.Writer, m metricSet) {
	names := make([]string, 0, len(m.values))
	for name := range m.values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		unit, _ := declaredUnit(name)
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d\n", name, m.values[name], unit, m.n[name])
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "one of "+fmt.Sprint(workloadNames()))
		seed    = flag.Uint64("seed", 1, "every input is derived from it")
		seconds = flag.Float64("seconds", 18, "how long the run measures")
		trace   = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics instead of the end-to-end ones")
		aa      = flag.Int("aa", 0, "A/A check: two interleaved sets of N runs per workload of this binary")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for traces and scratch files")
	)
	flag.Parse()
	// Two closed-loop clients on at most two cores is the load every
	// number in this benchmark is stated at.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if *aa > 0 {
		if err := runAA(*aa, *seconds, *out, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(options{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0,
		sz: fullSizes, outDir: *out, log: os.Stderr,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: FAILED:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
