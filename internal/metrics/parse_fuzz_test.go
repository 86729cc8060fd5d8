package metrics

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// expositionGolden is TestExpositionGolden's text: one of every metric
// kind, the fuzz corpus's starting point.
const expositionGolden = `# HELP sage_test_eps_spent Privacy spend.
# TYPE sage_test_eps_spent gauge
sage_test_eps_spent{shard="0"} 0.25
# HELP sage_test_inflight In-flight requests.
# TYPE sage_test_inflight gauge
sage_test_inflight 2
# HELP sage_test_latency_seconds Request latency.
# TYPE sage_test_latency_seconds histogram
sage_test_latency_seconds_bucket{le="0.25"} 1
sage_test_latency_seconds_bucket{le="0.5"} 2
sage_test_latency_seconds_bucket{le="+Inf"} 3
sage_test_latency_seconds_sum 1.75
sage_test_latency_seconds_count 3
# HELP sage_test_requests_total Requests served.
# TYPE sage_test_requests_total counter
sage_test_requests_total{class="batch"} 1
sage_test_requests_total{class="read"} 3
`

// FuzzMetricsParse feeds the exposition parser — the e2e gates and the
// repository benchmark read every tier's /metrics through it — two
// ways. Arbitrary bytes: it must never panic, and whatever it accepts
// holds its own contract (every sample under a family whose TYPE was
// declared). And as the other half of TextExpose: a registry whose help
// text, label value, counter, gauges and histogram observations all
// derive from the input must come back from Parse family for family and
// value for value, whatever bytes the strings contain.
func FuzzMetricsParse(f *testing.F) {
	f.Add([]byte(expositionGolden))
	f.Add([]byte("# TYPE a counter\na{b=\"\\\\\\\"\\n\"} +Inf\n"))
	f.Add([]byte("back\\slash \\n \"quoted\"\nsecond line\r\n"))
	f.Add([]byte{0xff, 0xfe, 0x7f, 0, 0, 0, 0xf0, 0x7f})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if fams, err := Parse(bytes.NewReader(raw)); err == nil {
			for name, fam := range fams {
				if fam.Name != name {
					t.Fatalf("family %q filed under %q", fam.Name, name)
				}
				for _, s := range fam.Samples {
					if fam.Type == "" || !sampleBelongsTo(s.Name, fam) {
						t.Fatalf("accepted sample %s under family %s of type %q", s.Name, fam.Name, fam.Type)
					}
				}
			}
		}

		text := string(raw)
		var word [8]byte
		copy(word[:], raw)
		n := binary.LittleEndian.Uint64(word[:])
		level := math.Float64frombits(n)
		src := Label{Name: "src", Value: text}

		r := New()
		r.Counter("sage_fuzz_events_total", text, src).Add(n)
		r.GaugeFunc("sage_fuzz_depth", text, func() float64 { return float64(int64(n)) })
		r.GaugeFunc("sage_fuzz_level", text, func() float64 { return level }, src)
		h := r.Histogram("sage_fuzz_latency_seconds", text, []float64{0.5, 1, 2}, src)
		for _, b := range raw {
			h.Observe(float64(b) / 64)
		}
		var exposed strings.Builder
		if err := r.TextExpose(&exposed); err != nil {
			t.Fatal(err)
		}
		fams, err := Parse(strings.NewReader(exposed.String()))
		if err != nil {
			t.Fatalf("TextExpose output does not parse: %v\n%s", err, exposed.String())
		}
		if len(fams) != 4 {
			t.Fatalf("%d families parsed from 4 registered\n%s", len(fams), exposed.String())
		}
		labels := map[string]string{"src": text}
		for _, want := range []struct {
			family, typ, sample string
			labels              map[string]string
			value               float64
		}{
			{"sage_fuzz_events_total", "counter", "sage_fuzz_events_total", labels, float64(n)},
			{"sage_fuzz_depth", "gauge", "sage_fuzz_depth", nil, float64(int64(n))},
			{"sage_fuzz_level", "gauge", "sage_fuzz_level", labels, level},
			{"sage_fuzz_latency_seconds", "histogram", "sage_fuzz_latency_seconds_count", labels, float64(len(raw))},
			{"sage_fuzz_latency_seconds", "histogram", "sage_fuzz_latency_seconds_sum", labels, h.Sum()},
		} {
			fam := fams[want.family]
			if fam == nil || fam.Type != want.typ || fam.Help != text {
				t.Fatalf("family %s came back as %+v, want type %s and help %q\n%s", want.family, fam, want.typ, text, exposed.String())
			}
			got, ok := fams.Value(want.sample, want.labels)
			if !ok || math.Float64bits(got) != math.Float64bits(want.value) && !(math.IsNaN(got) && math.IsNaN(want.value)) {
				t.Fatalf("%s%v = %v (present %v), registry holds %v\n%s", want.sample, want.labels, got, ok, want.value, exposed.String())
			}
		}
	})
}
