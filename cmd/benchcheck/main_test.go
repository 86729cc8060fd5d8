package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBenchOutput(t *testing.T) {
	path := write(t, "bench.txt", `goos: linux
goarch: amd64
BenchmarkServePredictBatch/linear/rows=256-8   362   3200506 ns/op   74.10 MB/s
BenchmarkFig7BlockVsQuery 	       3	 199724361 ns/op
BenchmarkFig7BlockVsQuery 	       3	 180000000 ns/op
PASS
`)
	got, err := parseBenchOutput(path)
	if err != nil {
		t.Fatal(err)
	}
	if got["ServePredictBatch/linear/rows=256"] != 3200506 {
		t.Errorf("batch ns/op = %v", got["ServePredictBatch/linear/rows=256"])
	}
	// Repeated runs keep the fastest.
	if got["Fig7BlockVsQuery"] != 180000000 {
		t.Errorf("repeated bench kept %v, want the minimum", got["Fig7BlockVsQuery"])
	}
	if len(got) != 2 {
		t.Errorf("parsed %d benchmarks, want 2: %v", len(got), got)
	}
}

const goodRow = `{"benchmark": "ServePredictBatch/linear/rows=256", "ns_per_op": 3251999, "rows_per_s": 78721,
	"command": "go test -bench ServePredictBatch ./internal/store/", "gomaxprocs": 2, "date": "2026-09-29"}`

// TestParseBaselineOneShape: the one schema parses, extra per-row
// metrics and all; every other shape the tree has ever committed, and a
// row short of a mandatory field, is an error rather than a quietly
// empty baseline.
func TestParseBaselineOneShape(t *testing.T) {
	rows, err := parseBaseline(write(t, "good.json", `{"description": "d", "results": [`+goodRow+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Benchmark != "ServePredictBatch/linear/rows=256" || rows[0].NsPerOp != 3251999 ||
		rows[0].GoMaxProcs != 2 || rows[0].Date != "2026-09-29" || rows[0].Command == "" {
		t.Errorf("parsed %+v", rows)
	}

	for name, doc := range map[string]string{
		"name-keyed object":     `{"_meta": {"description": "d"}, "benchmarks": {"BenchmarkFig7BlockVsQuery": {"ns_per_op": 185515269}}}`,
		"extra top-level key":   `{"description": "d", "environment": {"cores": 1}, "results": [` + goodRow + `]}`,
		"nested context block":  `{"description": "d", "results": [` + goodRow + `], "fast_path_effect": {"before": {"ns_per_op": 1}}}`,
		"no description":        `{"results": [` + goodRow + `]}`,
		"no rows":               `{"description": "d", "results": []}`,
		"row without command":   `{"description": "d", "results": [{"benchmark": "X", "ns_per_op": 1, "gomaxprocs": 2, "date": "2026-09-29"}]}`,
		"row without procs":     `{"description": "d", "results": [{"benchmark": "X", "ns_per_op": 1, "command": "c", "date": "2026-09-29"}]}`,
		"row without date":      `{"description": "d", "results": [{"benchmark": "X", "ns_per_op": 1, "command": "c", "gomaxprocs": 2}]}`,
		"row without ns_per_op": `{"description": "d", "results": [{"benchmark": "X", "command": "c", "gomaxprocs": 2, "date": "2026-09-29"}]}`,
		"row without a name":    `{"description": "d", "results": [{"ns_per_op": 1, "command": "c", "gomaxprocs": 2, "date": "2026-09-29"}]}`,
		"not JSON":              `BenchmarkX 1 5 ns/op`,
	} {
		if rows, err := parseBaseline(write(t, "bad.json", doc)); err == nil {
			t.Errorf("%s: accepted as %+v", name, rows)
		}
	}
}

// TestCommittedBaselinesParse holds the repo's own BENCH_*.json to the
// schema, so a malformed baseline fails `go test ./...` rather than a
// later CI step.
func TestCommittedBaselinesParse(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed baselines found: %v", err)
	}
	for _, path := range paths {
		if _, err := parseBaseline(path); err != nil {
			t.Error(err)
		}
	}
}

func TestCheckGate(t *testing.T) {
	baseline := []baselineRow{
		{Benchmark: "X", NsPerOp: 1_000_000, file: "b.json"},
		{Benchmark: "Y", NsPerOp: 900, file: "b.json"},
	}
	for _, tc := range []struct {
		name     string
		current  map[string]float64
		wantExit int
	}{
		{"within tolerance", map[string]float64{"X": 2_900_000, "Y": 1_000}, 0},
		{"regression", map[string]float64{"X": 10_000_000, "Y": 1_000}, 1},
		{"improvement", map[string]float64{"X": 100_000, "Y": 900}, 0},
		{"unbaselined extra is ignored", map[string]float64{"X": 1_000_000, "Y": 900, "Z": 5}, 0},
		{"a row with no current result fails closed", map[string]float64{"X": 100_000}, 2},
		{"missing outranks regression", map[string]float64{"Y": 1_000_000}, 2},
		{"no intersection fails closed", map[string]float64{"Z": 5}, 2},
	} {
		var buf strings.Builder
		if got := check(&buf, tc.current, baseline, 3); got != tc.wantExit {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.wantExit, buf.String())
		}
		if wantMissing := tc.wantExit == 2; strings.Contains(buf.String(), "MISSING") != wantMissing {
			t.Errorf("%s: MISSING reported = %v, want %v\n%s", tc.name, !wantMissing, wantMissing, buf.String())
		}
	}
}
