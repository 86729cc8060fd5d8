package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition line. For histograms Name carries
// the full sample name (family_bucket, family_sum, family_count).
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Family is one parsed metric family with its declared metadata.
type Family struct {
	Name    string
	Help    string
	Type    string
	Samples []Sample
}

// Families maps family name → parsed family.
type Families map[string]*Family

// Value finds the sample with the given full sample name and exactly
// the given labels (nil means "no labels"), across all families.
func (fs Families) Value(name string, labels map[string]string) (float64, bool) {
	for _, fam := range fs {
		if !sampleBelongsTo(name, fam) {
			continue
		}
		for _, s := range fam.Samples {
			if s.Name == name && labelsEqual(s.Labels, labels) {
				return s.Value, true
			}
		}
	}
	return 0, false
}

// Sum adds up every sample with the given full sample name whose
// labels are a superset of the given subset (nil matches all).
func (fs Families) Sum(name string, subset map[string]string) (total float64, n int) {
	for _, fam := range fs {
		if !sampleBelongsTo(name, fam) {
			continue
		}
		for _, s := range fam.Samples {
			if s.Name != name {
				continue
			}
			match := true
			for k, v := range subset {
				if s.Labels[k] != v {
					match = false
					break
				}
			}
			if match {
				total += s.Value
				n++
			}
		}
	}
	return total, n
}

func labelsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// sampleBelongsTo reports whether a sample name can appear under the
// family: the family name itself, or the histogram suffixes.
func sampleBelongsTo(sample string, fam *Family) bool {
	if sample == fam.Name {
		return fam.Type != "histogram"
	}
	if fam.Type != "histogram" {
		return false
	}
	rest, ok := strings.CutPrefix(sample, fam.Name)
	if !ok {
		return false
	}
	return rest == "_bucket" || rest == "_sum" || rest == "_count"
}

// Parse reads a Prometheus text-format payload and validates it
// strictly — stricter than Prometheus itself, because it only has to
// accept what TextExpose emits:
//
//   - every sample must belong to a family declared by a preceding
//     # TYPE line (counter, gauge, or histogram);
//   - HELP and TYPE appear at most once per family, TYPE before any
//     sample; no other comment forms, no timestamps;
//   - duplicate series (same sample name + label set) are an error;
//   - counter values must be finite and non-negative;
//   - each histogram series must have cumulative non-decreasing
//     _bucket samples ending at le="+Inf", and _sum/_count samples
//     with _count equal to the +Inf bucket.
func Parse(r io.Reader) (Families, error) {
	fams := make(Families)
	seen := make(map[string]bool) // full sample name + rendered labels
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// A line ends at "\n" and nowhere else: a carriage return before it
	// is part of the line (of a HELP text, say), not something to trim.
	for i, line := range strings.Split(string(raw), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			err = parseComment(line, fams)
		} else {
			err = parseSample(line, fams, seen)
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	for _, fam := range fams {
		if fam.Type == "histogram" {
			if err := validateHistogram(fam); err != nil {
				return nil, fmt.Errorf("histogram %s: %w", fam.Name, err)
			}
		}
	}
	return fams, nil
}

func parseComment(line string, fams Families) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return fmt.Errorf("malformed comment %q", line)
	}
	kind, name := fields[1], fields[2]
	rest := ""
	if len(fields) == 4 {
		rest = fields[3]
	}
	if !validMetricName(name) {
		return fmt.Errorf("invalid metric name %q", name)
	}
	switch kind {
	case "HELP":
		fam := fams[name]
		if fam == nil {
			fam = &Family{Name: name}
			fams[name] = fam
		}
		if fam.Help != "" {
			return fmt.Errorf("duplicate HELP for %s", name)
		}
		fam.Help = unescapeHelp(rest)
		return nil
	case "TYPE":
		switch rest {
		case "counter", "gauge", "histogram":
		default:
			return fmt.Errorf("unsupported type %q for %s", rest, name)
		}
		fam := fams[name]
		if fam == nil {
			fam = &Family{Name: name}
			fams[name] = fam
		}
		if fam.Type != "" {
			return fmt.Errorf("duplicate TYPE for %s", name)
		}
		if len(fam.Samples) > 0 {
			return fmt.Errorf("TYPE for %s after its samples", name)
		}
		fam.Type = rest
		return nil
	default:
		return fmt.Errorf("unsupported comment kind %q", kind)
	}
}

func parseSample(line string, fams Families, seen map[string]bool) error {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return fmt.Errorf("malformed sample %q", line)
	}
	name := rest[:i]
	if !validMetricName(name) {
		return fmt.Errorf("invalid sample name %q", name)
	}
	rest = rest[i:]

	labels := map[string]string{}
	if rest[0] == '{' {
		var err error
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return fmt.Errorf("sample %s: %w", name, err)
		}
	}
	rest = strings.TrimPrefix(rest, " ")
	if rest == "" || strings.ContainsAny(rest, " \t") {
		return fmt.Errorf("sample %s: expected exactly one value, got %q (timestamps are not accepted)", name, rest)
	}
	value, err := parseValue(rest)
	if err != nil {
		return fmt.Errorf("sample %s: %w", name, err)
	}

	fam := findFamily(name, fams)
	if fam == nil || fam.Type == "" {
		return fmt.Errorf("sample %s has no preceding # TYPE declaration", name)
	}
	if fam.Type == "counter" && (value < 0 || math.IsInf(value, 0) || math.IsNaN(value)) {
		return fmt.Errorf("counter %s has non-finite or negative value %v", name, value)
	}
	key := name + "|" + canonicalLabels(labels)
	if seen[key] {
		return fmt.Errorf("duplicate series %s{%s}", name, canonicalLabels(labels))
	}
	seen[key] = true
	fam.Samples = append(fam.Samples, Sample{Name: name, Labels: labels, Value: value})
	return nil
}

// findFamily resolves a sample name to its declared family, handling
// histogram suffixes.
func findFamily(sample string, fams Families) *Family {
	if fam := fams[sample]; fam != nil && fam.Type != "histogram" {
		return fam
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(sample, suffix); ok {
			if fam := fams[base]; fam != nil && fam.Type == "histogram" {
				return fam
			}
		}
	}
	return nil
}

// parseLabels consumes `name="value",...}` and returns the labels and
// the remaining input after the closing brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("malformed label in %q", s)
		}
		name := s[:eq]
		if !validLabelName(name) && name != "le" {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", name)
		}
		s = s[eq+1:]
		if s == "" || s[0] != '"' {
			return nil, "", fmt.Errorf("label %s: unquoted value", name)
		}
		value, rest, err := parseQuoted(s[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", name, err)
		}
		labels[name] = value
		s = rest
		if s != "" && s[0] == ',' {
			s = s[1:]
		}
	}
}

// parseQuoted consumes a label value up to its closing quote,
// resolving \\, \", and \n escapes.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("truncated escape")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("unknown escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(+1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// validateHistogram checks every series of a histogram family:
// cumulative non-decreasing buckets ending at +Inf, with matching
// _sum and _count.
func validateHistogram(fam *Family) error {
	type hseries struct {
		buckets  []Sample
		sum      *Sample
		count    *Sample
		labelSig string
	}
	groups := make(map[string]*hseries)
	group := func(labels map[string]string) *hseries {
		base := make(map[string]string, len(labels))
		for k, v := range labels {
			if k != "le" {
				base[k] = v
			}
		}
		sig := canonicalLabels(base)
		g := groups[sig]
		if g == nil {
			g = &hseries{labelSig: sig}
			groups[sig] = g
		}
		return g
	}
	for i := range fam.Samples {
		s := fam.Samples[i]
		g := group(s.Labels)
		switch s.Name {
		case fam.Name + "_bucket":
			if _, ok := s.Labels["le"]; !ok {
				return fmt.Errorf("series {%s}: bucket without le label", g.labelSig)
			}
			g.buckets = append(g.buckets, s)
		case fam.Name + "_sum":
			g.sum = &fam.Samples[i]
		case fam.Name + "_count":
			g.count = &fam.Samples[i]
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for _, g := range groups {
		if len(g.buckets) == 0 || g.sum == nil || g.count == nil {
			return fmt.Errorf("series {%s}: missing _bucket, _sum, or _count", g.labelSig)
		}
		bounds := make([]float64, len(g.buckets))
		for i, b := range g.buckets {
			v, err := parseValue(b.Labels["le"])
			if err != nil || math.IsNaN(v) {
				return fmt.Errorf("series {%s}: bad le %q", g.labelSig, b.Labels["le"])
			}
			bounds[i] = v
		}
		idx := make([]int, len(g.buckets))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return bounds[idx[a]] < bounds[idx[b]] })
		prev := -1.0
		for rank, i := range idx {
			if rank > 0 && g.buckets[i].Value < prev {
				return fmt.Errorf("series {%s}: bucket counts decrease at le=%q", g.labelSig, g.buckets[i].Labels["le"])
			}
			prev = g.buckets[i].Value
		}
		last := g.buckets[idx[len(idx)-1]]
		if !math.IsInf(bounds[idx[len(idx)-1]], +1) {
			return fmt.Errorf("series {%s}: missing le=\"+Inf\" bucket", g.labelSig)
		}
		if last.Value != g.count.Value {
			return fmt.Errorf("series {%s}: +Inf bucket %v != _count %v", g.labelSig, last.Value, g.count.Value)
		}
	}
	return nil
}

// canonicalLabels renders a label map in sorted order for dedup keys
// and error messages.
func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		writeLabel(&b, Label{Name: k, Value: labels[k]})
	}
	return b.String()
}

// helpUnescaper resolves a HELP text's \\ and \n escapes in one pass (a
// Replacer never rescans what it has replaced): unescaping one kind and
// then the other would read the second half of an escaped backslash as
// the start of the escape after it.
var helpUnescaper = strings.NewReplacer(`\\`, `\`, `\n`, "\n")

func unescapeHelp(s string) string { return helpUnescaper.Replace(s) }
