package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declJSON `json:"end_to_end"`
	PerLayer []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarationsMatchBenchmarkJSON: every name in BENCHMARK.json is in
// declared.go with the same unit, direction and bound, and the reverse.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadDecls) {
		t.Fatalf("BENCHMARK.json has %d workloads, declared.go %d", len(b.Workloads), len(workloadDecls))
	}
	for i, w := range workloadDecls {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, declared.go %q (or their whys differ)", i, b.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or a why over 200 characters", w.name)
		}
	}
	check := func(kind string, got []declJSON, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, declared.go %d", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, declared.go %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs between BENCHMARK.json and declared.go", kind, d.name)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	check("end_to_end", b.EndToEnd, endToEndDecls, true)
	check("per_layer", b.PerLayer, perLayerDecls, false)

	largest := 0.0
	for _, d := range endToEndDecls {
		largest = max(largest, d.bound)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	if endToEndDecls[0].name != "setup_s" || endToEndDecls[0].bound != largest {
		t.Errorf("setup_s must be declared, with the largest bound")
	}
}

// TestWorkloadsPrintExactlyTheDeclaredMetrics runs every workload at
// about 1/50 size, untraced and traced, and requires a bijection between
// the declared names and the printed ones, every value finite and the
// end-to-end ones non-zero, and every correctness check to pass.
func TestWorkloadsPrintExactlyTheDeclaredMetrics(t *testing.T) {
	measured := map[string]bool{} // per-layer names some workload measured (non-zero or set)
	for _, wl := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{
				workload: wl, seed: 7, seconds: 0.2, trace: traced,
				sz: testSizes, outDir: t.TempDir(), log: io.Discard,
			}
			res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndDecls
			if traced {
				want = perLayerDecls
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, declared %d", wl, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				got, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: declared metric %s not printed", wl, traced, d.name)
				case got.Unit != d.unit:
					t.Errorf("%s trace=%v: %s printed in %q, declared in %q", wl, traced, d.name, got.Unit, d.unit)
				case !traced && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl, d.name, got.Value)
				case traced && got.Value != 0:
					measured[d.name] = true
				}
			}
		}
	}
	// Counters that are legitimately zero on a healthy run.
	zeroOK := map[string]bool{
		"gateway.retries": true, "gateway.shed": true, "gateway.unroutable": true,
		"gateway.backend_skew": true, "gateway.handler_panics": true,
		"replica.pushes_duplicate": true, "replica.pushes_gap": true,
		"daemon.rejected": true, "daemon.blocked_ticks": true,
		"e2e.p999_ms": true, "proc.gc_pause_ms": true,
	}
	for _, d := range perLayerDecls {
		if !measured[d.name] && !zeroOK[d.name] {
			t.Errorf("per-layer metric %s read 0 on every workload: nothing measures it", d.name)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}
