package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a series. Label sets are
// fixed at construction; the hot path never touches them.
type Label struct {
	Name  string
	Value string
}

// Counter is a monotonically non-decreasing cumulative count. The
// zero value is unusable — obtain counters from Registry.Counter.
// All methods are safe on a nil receiver (no-ops / zero).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram counts observations into fixed cumulative buckets.
// Observe is lock-free: a linear scan over the (small, sorted) bounds
// slice, one bucket increment, and a CAS loop folding the observation
// into the float64-bits sum. The zero value is unusable — obtain
// histograms from Registry.Histogram. Methods are nil-receiver safe.
type Histogram struct {
	// bounds are the inclusive upper bounds of each finite bucket, in
	// strictly increasing order. counts has len(bounds)+1 entries; the
	// last is the implicit +Inf bucket.
	bounds []float64
	counts []atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits of the running sum
	// exemplar is the most recent traced observation (see
	// ObserveExemplar) — the bridge from an aggregate latency series to
	// one concrete trace id a debugger can look up.
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar ties one concrete observation to the trace that produced
// it. Histograms keep the most recent one; GET /debug/trace exposes
// the table so "p99 spiked" resolves to "look at this trace".
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start. As a deferred
// call it records handler latency without a closure allocation.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// ObserveExemplar records v and, when traceID is non-empty, replaces
// the histogram's exemplar with it. An empty traceID (tracing
// disabled, or no span in context) is exactly Observe — no exemplar
// write, no allocation — so the untraced hot path keeps its pinned
// budgets.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID != "" {
		h.exemplar.Store(&Exemplar{Value: v, TraceID: traceID})
	}
}

// ObserveSinceExemplar is ObserveExemplar over elapsed seconds.
func (h *Histogram) ObserveSinceExemplar(start time.Time, traceID string) {
	h.ObserveExemplar(time.Since(start).Seconds(), traceID)
}

// Exemplar returns the most recent traced observation, if any.
func (h *Histogram) Exemplar() (Exemplar, bool) {
	if h == nil {
		return Exemplar{}, false
	}
	e := h.exemplar.Load()
	if e == nil {
		return Exemplar{}, false
	}
	return *e, true
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets returns n bucket upper bounds starting at start and
// multiplying by factor: the standard shape for latency and size
// histograms. It panics on invalid arguments (programming error).
func ExpBuckets(start, factor float64, n int) []float64 {
	if n < 1 || start <= 0 || factor <= 1 {
		panic("metrics: ExpBuckets requires n >= 1, start > 0, factor > 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default duration histogram shape: 100µs to
// ~6.5s in ×2 steps, wide enough to show both a fast in-memory serve
// and a stalled fsync.
func LatencyBuckets() []float64 { return ExpBuckets(100e-6, 2, 17) }

// SizeBuckets is the default shape for small cardinalities (batch
// sizes, cohort sizes): 1 to 1024 in ×2 steps.
func SizeBuckets() []float64 { return ExpBuckets(1, 2, 11) }

// metricType is the exposition TYPE of a family.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family type.
type series struct {
	labels []Label
	sig    string // canonical label signature, for dedup + sorting

	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

// family is every series sharing one metric name.
type family struct {
	name string
	help string
	typ  metricType

	mu     sync.Mutex
	series []*series
}

// Registry holds metric families and renders them. Construction
// methods (Counter, GaugeFunc, Histogram) panic on conflicting
// re-registration — a duplicate name+labels, or a name reused with a
// different type or help — because that is a wiring bug, not runtime
// input. A nil *Registry is a valid no-op sink: every constructor
// returns a nil/no-op metric, so components can be built
// uninstrumented.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or re-resolves nothing — duplicates panic) a
// counter series and returns its handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.add(name, help, typeCounter, labels, &series{counter: c})
	return c
}

// GaugeFunc registers a gauge series whose value is computed by fn at
// exposition time. fn runs outside all registry locks but must itself
// be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if r == nil {
		return
	}
	if fn == nil {
		panic("metrics: nil GaugeFunc")
	}
	r.add(name, help, typeGauge, labels, &series{gaugeFn: fn})
}

// Histogram registers a histogram series with the given bucket upper
// bounds (strictly increasing; +Inf is implicit) and returns its
// handle.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if !(buckets[i] > buckets[i-1]) {
			panic("metrics: histogram bounds must be strictly increasing")
		}
	}
	if math.IsInf(buckets[len(buckets)-1], +1) {
		panic("metrics: +Inf bucket is implicit")
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	r.add(name, help, typeHistogram, labels, &series{hist: h})
	return h
}

// add validates and inserts one series, panicking on misuse.
func (r *Registry) add(name, help string, typ metricType, labels []Label, s *series) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	for i, l := range ls {
		if !validLabelName(l.Name) || l.Name == "le" {
			panic(fmt.Sprintf("metrics: invalid label name %q on %s", l.Name, name))
		}
		if i > 0 && ls[i-1].Name == l.Name {
			panic(fmt.Sprintf("metrics: duplicate label name %q on %s", l.Name, name))
		}
	}
	s.labels = ls
	s.sig = labelSignature(ls)

	r.mu.Lock()
	fam := r.families[name]
	if fam == nil {
		fam = &family{name: name, help: help, typ: typ}
		r.families[name] = fam
	}
	r.mu.Unlock()

	if fam.typ != typ || fam.help != help {
		panic(fmt.Sprintf("metrics: %s re-registered with conflicting type or help", name))
	}
	fam.mu.Lock()
	defer fam.mu.Unlock()
	for _, prev := range fam.series {
		if prev.sig == s.sig {
			panic(fmt.Sprintf("metrics: duplicate series %s{%s}", name, s.sig))
		}
	}
	fam.series = append(fam.series, s)
}

// TextExpose renders every registered family in the Prometheus text
// exposition format, families and series in deterministic (sorted)
// order. Gauge funcs are invoked outside all registry locks.
func (r *Registry) TextExpose(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		fams = append(fams, fam)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, fam := range fams {
		fam.mu.Lock()
		ss := append([]*series(nil), fam.series...)
		fam.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })

		fmt.Fprintf(&b, "# HELP %s %s\n", fam.name, escapeHelp(fam.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.name, fam.typ)
		for _, s := range ss {
			switch {
			case s.counter != nil:
				writeSample(&b, fam.name, s.labels, nil, strconv.FormatUint(s.counter.Value(), 10))
			case s.gaugeFn != nil:
				writeSample(&b, fam.name, s.labels, nil, formatFloat(s.gaugeFn()))
			case s.hist != nil:
				writeHistogram(&b, fam.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Exemplars returns every histogram series' current exemplar, keyed
// by metric name (plus the canonical {label} signature for labeled
// series). Exemplars ride the /debug/trace JSON payload, not the text
// exposition — the 0.0.4 format has no exemplar syntax and the
// in-repo parser is strict. Nil-registry safe (nil map).
func (r *Registry) Exemplars() map[string]Exemplar {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, fam := range r.families {
		fams = append(fams, fam)
	}
	r.mu.Unlock()

	out := make(map[string]Exemplar)
	for _, fam := range fams {
		fam.mu.Lock()
		ss := append([]*series(nil), fam.series...)
		fam.mu.Unlock()
		for _, s := range ss {
			if s.hist == nil {
				continue
			}
			e, ok := s.hist.Exemplar()
			if !ok {
				continue
			}
			key := fam.name
			if s.sig != "" {
				key = fam.name + "{" + s.sig + "}"
			}
			out[key] = e
		}
	}
	return out
}

// writeHistogram renders one histogram series: cumulative _bucket
// lines ending at le="+Inf", then _sum and _count. Buckets are read
// low-to-high without a lock, so a concurrent Observe can make the
// rendered _count exceed a bucket snapshot — cumulative sums are
// taken from the same pass, so the rendered buckets themselves stay
// non-decreasing and end exactly at _count.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.hist
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		bound := "+Inf"
		if i < len(h.bounds) {
			bound = formatFloat(h.bounds[i])
		}
		writeSample(b, name+"_bucket", s.labels, &Label{Name: "le", Value: bound}, strconv.FormatUint(cum, 10))
	}
	writeSample(b, name+"_sum", s.labels, nil, formatFloat(h.Sum()))
	writeSample(b, name+"_count", s.labels, nil, strconv.FormatUint(cum, 10))
}

// writeSample renders one `name{labels} value` line. extra, when
// non-nil, is appended after the series labels (the histogram `le`).
func writeSample(b *strings.Builder, name string, labels []Label, extra *Label, value string) {
	b.WriteString(name)
	if len(labels) > 0 || extra != nil {
		b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, l)
		}
		if extra != nil {
			if len(labels) > 0 {
				b.WriteByte(',')
			}
			writeLabel(b, *extra)
		}
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func writeLabel(b *strings.Builder, l Label) {
	b.WriteString(l.Name)
	b.WriteString(`="`)
	b.WriteString(escapeLabelValue(l.Value))
	b.WriteByte('"')
}

// formatFloat renders a float the way the exposition format expects:
// shortest round-trip representation, +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// labelSignature is the canonical rendered form of a sorted label
// set; equal signatures mean equal label sets.
func labelSignature(ls []Label) string {
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, l)
	}
	return b.String()
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		alpha := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
