package store

import (
	"bytes"
	"math"
	"testing"
)

// fuzzSeeds is the fuzz target's seed corpus: canonical_test.go's golden
// bundle plus one well-formed release per model layout and the
// unservable ones, so mutation starts from inputs that reach every
// Instantiate branch.
func fuzzSeeds() []Bundle {
	seeds := []Bundle{
		canonicalTestBundle(),
		{Name: "m", Version: 1, Model: ModelSpec{Kind: "linear", Weights: []float64{1, 2}, Bias: 0.5}},
		{Name: "c", Version: 2, Model: ModelSpec{Kind: "constant", Bias: 7}},
		{Name: "clf", Version: 1, Model: ModelSpec{Kind: "logistic", Dim: 2, Params: []float64{0.5, -0.5, 0.1}}},
		// 2→3→1: 3*(2+1) + 1*(3+1) parameters.
		{Name: "nn", Version: 4, Model: ModelSpec{Kind: "mlp-clf", Dim: 2, Hidden: []int{3},
			Params: []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}}},
	}
	for _, name := range []string{"unknown kind", "logistic params"} {
		seeds = append(seeds, Bundle{Name: "u", Version: 1, Model: unservableSpecs[name]})
	}
	return seeds
}

// TestDecodeCanonicalBundleIntegerRange: the decoder faces the network
// (replica push), so every integer it converts to a Go int is bounded.
// A pushed 2^63 used to wrap to a negative int and panic the first
// make() sized from it, at first predict on the replica.
func TestDecodeCanonicalBundleIntegerRange(t *testing.T) {
	fields := map[string]func(*Bundle, int){
		"version": func(b *Bundle, v int) { b.Version = v },
		"dim":     func(b *Bundle, v int) { b.Model.Dim = v },
		"hidden":  func(b *Bundle, v int) { b.Model.Hidden[1] = v },
	}
	values := []struct {
		v      int // encoded as uint64(v)
		accept bool
	}{
		{math.MaxInt32, true},
		{math.MaxInt32 + 1, false},
		{math.MinInt64, false}, // 2^63 on the wire
		{-1, false},            // 2^64-1 on the wire
	}
	for name, set := range fields {
		for _, tc := range values {
			b := canonicalTestBundle()
			set(&b, tc.v)
			got, err := DecodeCanonicalBundle(b.CanonicalBytes())
			if (err == nil) != tc.accept {
				t.Errorf("%s = %d on the wire: err %v, want accepted=%v", name, uint64(tc.v), err, tc.accept)
			}
			if err != nil {
				continue
			}
			// Accepted but absurd for this bundle's four params: the
			// model must refuse to instantiate, not allocate from it.
			if _, err := got.Model.Instantiate(); err == nil && name != "version" {
				t.Errorf("%s = %d instantiated over %d params", name, tc.v, len(got.Model.Params))
			}
		}
	}
}

// TestDecodeCanonicalBundleRejectsNonCanonical: the decoder accepts only
// what CanonicalBytes emits, so a pushed body is the canonical bytes of
// the release it decodes to. Feature keys out of order (or repeated) are the one way to
// spell a bundle twice.
func TestDecodeCanonicalBundleRejectsNonCanonical(t *testing.T) {
	b := canonicalTestBundle()
	raw := b.CanonicalBytes()
	swapped := bytes.Replace(raw, []byte("hour_speed"), []byte("zone_count"), 1)
	if _, err := DecodeCanonicalBundle(swapped); err == nil {
		t.Fatal("duplicate feature key accepted")
	}
	i, j := bytes.Index(raw, []byte("hour_speed")), bytes.Index(raw, []byte("zone_count"))
	reordered := append([]byte(nil), raw...)
	copy(reordered[i:], "zone_count")
	copy(reordered[j:], "hour_speed")
	if _, err := DecodeCanonicalBundle(reordered); err == nil {
		t.Fatal("descending feature keys accepted")
	}
}

// FuzzDecodeCanonicalBundle feeds the decoder arbitrary bytes: it must
// never panic, and anything it accepts must re-encode to exactly the
// input (a body is its release's canonical bytes and WAL record). What it
// accepts then goes where a pushed body goes, into a store: Apply either
// refuses it, leaving the store empty, or stores it with a model that
// predicts a zero row of its width — without panicking or allocating
// beyond its payload either way.
func FuzzDecodeCanonicalBundle(f *testing.F) {
	for _, b := range fuzzSeeds() {
		raw := b.CanonicalBytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		b, err := DecodeCanonicalBundle(raw)
		if err != nil {
			return
		}
		if !bytes.Equal(b.CanonicalBytes(), raw) {
			t.Fatalf("accepted input does not re-encode to itself:\n in  %x\n out %x", raw, b.CanonicalBytes())
		}
		// An empty store takes version 1 only; a later one would just be
		// refused as a gap, before its model is looked at.
		b.Version = min(b.Version, 1)
		s := New()
		if _, err := s.Apply(*b); err != nil {
			if len(s.List()) != 0 || s.Generation() != 0 {
				t.Fatalf("refused release (%v) changed the store", err)
			}
			return
		}
		stored, ok := s.Get(b.Name, b.Version)
		if !ok {
			t.Fatalf("applied %s@v%d is not in the store", b.Name, b.Version)
		}
		stored.model.Predict(make([]float64, stored.Model.InputDim()))
	})
}
