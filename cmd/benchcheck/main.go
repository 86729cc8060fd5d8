// Command benchcheck is the CI bench-regression gate: it parses raw
// `go test -bench` output and compares each row of the committed
// BENCH_*.json baselines against it, failing when any benchmark is
// slower than the allowed ratio. The tolerance is deliberately loose
// (default 3×): shared CI runners are noisy, and the gate exists to
// catch "someone quadratically regressed the batch path", not 20%
// jitter — claims are judged by bench/, this is the tripwire.
//
// Usage:
//
//	go test -run '^$' -bench 'ServePredict' -benchtime 100x ./internal/store/ | tee bench.txt
//	go run ./cmd/benchcheck -bench bench.txt -max-ratio 3 BENCH_serving.json
//
// Every baseline has the one schema parseBaseline documents, and every
// row of every baseline passed must have a result in the bench output:
// the gate fails closed on a file of another shape, on a row missing a
// mandatory field, and on a row nothing was measured against; results
// no row names are ignored. Exit status: 0 ok, 1 regression, 2 usage,
// parse or missing-row error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches one line of go test -bench output, e.g.
//
//	BenchmarkServePredictBatch/linear/rows=256-8   362   3200506 ns/op   74.10 MB/s
//
// The -8 GOMAXPROCS suffix is optional (absent on 1-core runners).
var benchLine = regexp.MustCompile(`(?m)^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+(?:e[+-]?\d+)?) ns/op`)

// parseBenchOutput returns benchmark name (sans "Benchmark" prefix and
// cpu suffix) → ns/op. Repeated names (e.g. -count>1) keep the minimum:
// the best observed run is the fairest statement of current cost.
func parseBenchOutput(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, m := range benchLine.FindAllStringSubmatch(string(raw), -1) {
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		if prev, ok := out[name]; !ok || ns < prev {
			out[name] = ns
		}
	}
	return out, nil
}

// baselineRow is one gated measurement of a committed BENCH_*.json. The
// five JSON fields are mandatory; whatever else a row carries
// (allocs_per_op, rows_per_s, a note) is the row's own business.
type baselineRow struct {
	Benchmark  string  `json:"benchmark"` // as go test prints it, sans "Benchmark" and the -N suffix
	NsPerOp    float64 `json:"ns_per_op"`
	Command    string  `json:"command"` // reproduces the row
	GoMaxProcs int     `json:"gomaxprocs"`
	Date       string  `json:"date"`
	file       string  // the baseline the row came from, for the report
}

// parseBaseline reads one committed BENCH_*.json. There is one schema,
//
//	{"description": "…", "results": [{"benchmark", "ns_per_op", "command", "gomaxprocs", "date", …}]}
//
// and anything else — another top-level key, no rows, a row without one
// of the mandatory fields — is an error: a baseline the gate cannot read
// in full is a baseline it silently does not enforce.
func parseBaseline(path string) ([]baselineRow, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var file struct {
		Description string            `json:"description"`
		Results     []json.RawMessage `json:"results"`
	}
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if file.Description == "" || len(file.Results) == 0 {
		return nil, fmt.Errorf("%s: want a description and at least one result", path)
	}
	rows := make([]baselineRow, len(file.Results))
	for i, r := range file.Results {
		row := &rows[i]
		if err := json.Unmarshal(r, row); err != nil {
			return nil, fmt.Errorf("%s: results[%d]: %w", path, i, err)
		}
		if row.Benchmark == "" || row.NsPerOp <= 0 || row.Command == "" || row.GoMaxProcs <= 0 || row.Date == "" {
			return nil, fmt.Errorf("%s: results[%d] (%q) lacks one of benchmark, ns_per_op, command, gomaxprocs, date", path, i, row.Benchmark)
		}
		row.file = path
	}
	return rows, nil
}

// check compares every baseline row against the current results,
// writing the per-benchmark table to w. It returns the exit status main
// should use: 0 ok, 1 regression, 2 when a baseline row has no current
// result — the benchmark was renamed, deleted or dropped from the
// `-bench` regex, and a row that is compared against nothing gates
// nothing.
func check(w io.Writer, current map[string]float64, baseline []baselineRow, maxRatio float64) int {
	regressed, missing := 0, 0
	for _, row := range baseline {
		cur, ok := current[row.Benchmark]
		if !ok {
			missing++
			fmt.Fprintf(w, "%-10s %-48s in %s but not in the bench output\n", "MISSING", row.Benchmark, row.file)
			continue
		}
		ratio := cur / row.NsPerOp
		status := "ok"
		if ratio > maxRatio {
			status = "REGRESSION"
			regressed++
		}
		fmt.Fprintf(w, "%-10s %-48s %12.0f ns/op vs %12.0f baseline (%s)  ratio %.2f\n",
			status, row.Benchmark, cur, row.NsPerOp, row.file, ratio)
	}
	switch {
	case missing > 0:
		fmt.Fprintf(w, "benchcheck: %d of %d baseline row(s) have no current result — name drift? failing closed\n", missing, len(baseline))
		return 2
	case regressed > 0:
		fmt.Fprintf(w, "benchcheck: %d of %d benchmark(s) regressed beyond %.1fx\n", regressed, len(baseline), maxRatio)
		return 1
	default:
		fmt.Fprintf(w, "benchcheck: %d benchmark(s) within %.1fx of baseline\n", len(baseline), maxRatio)
		return 0
	}
}

func main() {
	benchPath := flag.String("bench", "", "raw `go test -bench` output to check")
	maxRatio := flag.Float64("max-ratio", 3, "fail when current ns/op exceeds baseline by more than this factor")
	flag.Parse()
	if *benchPath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: benchcheck -bench bench.txt [-max-ratio 3] BASELINE.json...")
		os.Exit(2)
	}

	current, err := parseBenchOutput(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	var baseline []baselineRow
	for _, path := range flag.Args() {
		rows, err := parseBaseline(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			os.Exit(2)
		}
		baseline = append(baseline, rows...)
	}
	os.Exit(check(os.Stdout, current, baseline, *maxRatio))
}
