package store

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
)

func canonicalTestBundle() Bundle {
	return Bundle{
		Name:    "taxi-lr-0",
		Version: 3,
		Model: ModelSpec{
			Kind: "mlp-reg", Dim: 4, Hidden: []int{8, 4},
			Params: []float64{0.5, -1.25, 3e-9, 0},
		},
		Features: map[string][]float64{
			"hour_speed": {30, 25, 12.5},
			"zone_count": {1, 2},
		},
		Provenance: Provenance{
			Pipeline: "taxi-lr-0",
			Spent:    privacy.MustBudget(0.5, 1e-8),
			Blocks:   []data.BlockID{4, 5, 6},
			Decision: "ACCEPT",
			Quality:  0.0123,
		},
	}
}

// servableTestBundle is canonicalTestBundle with a model that builds,
// which the codec tests do not need and a store requires.
func servableTestBundle() Bundle {
	b := canonicalTestBundle()
	b.Model = ModelSpec{Kind: "linear", Weights: []float64{0.5, -1.25, 3e-9, 0}}
	return b
}

func TestCanonicalBundleRoundTrip(t *testing.T) {
	cases := map[string]Bundle{
		"full": canonicalTestBundle(),
		"linear": {
			Name: "m", Version: 1,
			Model: ModelSpec{Kind: "linear", Weights: []float64{1, 2}, Bias: 0.5},
		},
		"constant-no-features": {
			Name: "c", Version: 2,
			Model: ModelSpec{Kind: "constant", Bias: 7},
		},
	}
	for name, b := range cases {
		t.Run(name, func(t *testing.T) {
			raw := b.CanonicalBytes()
			if len(raw) != cap(raw) {
				t.Errorf("encoded %d bytes into a buffer sized %d: the up-front size is wrong", len(raw), cap(raw))
			}
			got, err := DecodeCanonicalBundle(raw)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*got, b) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", *got, b)
			}
			// Canonical means canonical: re-encoding the decoded bundle
			// is byte-identical, so digests transfer across the decode.
			if !reflect.DeepEqual(got.CanonicalBytes(), raw) {
				t.Fatal("re-encode differs from original bytes")
			}
			if got.Digest() != b.Digest() {
				t.Fatal("digest changed across decode")
			}
		})
	}
}

func TestDecodeCanonicalBundleRejectsDamage(t *testing.T) {
	b := canonicalTestBundle()
	raw := b.CanonicalBytes()
	if _, err := DecodeCanonicalBundle(raw[:len(raw)-2]); err == nil {
		t.Fatal("truncated bundle decoded")
	}
	if _, err := DecodeCanonicalBundle(append(append([]byte{}, raw...), 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeCanonicalBundle(nil); err == nil {
		t.Fatal("empty payload decoded")
	}
	// Damaged length fields must error, never panic or pre-size huge
	// allocations. Corrupt the model-params length (after name,
	// version, kind, weights, bias, dim, hidden-count for the "linear"
	// layout below) and the feature count in turn by splicing in an
	// absurd 2^61.
	small := Bundle{Name: "m", Version: 1, Model: ModelSpec{Kind: "constant", Bias: 1}}
	rawSmall := small.CanonicalBytes()
	for off := 0; off+8 <= len(rawSmall); off += 8 {
		bad := append([]byte(nil), rawSmall...)
		bad[off] = 0x20 // turn whatever 8-byte field starts here into ~2^61
		if got, err := DecodeCanonicalBundle(bad); err == nil && got.Digest() == small.Digest() {
			t.Fatalf("corrupted length at %d decoded to the original bundle", off)
		}
	}
}

// TestStoreJournal pins the store half of the write-ahead contract:
// every new release's canonical bytes reach the journal before the
// release is acknowledged, duplicates and failures journal nothing, and
// replaying the journal rebuilds the store exactly.
func TestStoreJournal(t *testing.T) {
	src := New()
	var journal [][]byte
	src.SetJournal(func(canonical []byte) error {
		journal = append(journal, append([]byte(nil), canonical...))
		return nil
	})

	b := servableTestBundle()
	b.Version = 0
	v1 := src.Publish(b)
	b2 := b
	b2.Provenance.Quality = 0.02
	v2 := src.Publish(b2)
	if v1 != 1 || v2 != 2 {
		t.Fatalf("versions %d, %d", v1, v2)
	}
	if len(journal) != 2 {
		t.Fatalf("journal has %d records, want 2", len(journal))
	}
	// The journaled bytes are the canonical bytes of the stored release
	// (version assigned), i.e. the push digest's preimage.
	stored, _ := src.Get(b.Name, 1)
	if !reflect.DeepEqual(journal[0], stored.CanonicalBytes()) {
		t.Fatal("journal record differs from stored release's canonical bytes")
	}

	// Apply of a new version journals; an idempotent re-apply does not.
	applied, err := src.Apply(Bundle{Name: "pushed", Version: 1, Model: ModelSpec{Kind: "constant", Bias: 1}})
	if err != nil || !applied {
		t.Fatalf("apply: %v applied=%v", err, applied)
	}
	if len(journal) != 3 {
		t.Fatalf("apply did not journal: %d records", len(journal))
	}
	applied, err = src.Apply(Bundle{Name: "pushed", Version: 1, Model: ModelSpec{Kind: "constant", Bias: 1}})
	if err != nil || applied {
		t.Fatalf("re-apply: %v applied=%v", err, applied)
	}
	if len(journal) != 3 {
		t.Fatal("idempotent re-apply journaled")
	}

	// Replay rebuilds the store: decode each record and Apply at its
	// declared version (journal unset — exactly what recovery does).
	recovered := New()
	for i, rec := range journal {
		rb, err := DecodeCanonicalBundle(rec)
		if err != nil {
			t.Fatalf("decode journal record %d: %v", i, err)
		}
		if _, err := recovered.Apply(*rb); err != nil {
			t.Fatalf("replay record %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(recovered.Watermarks(), src.Watermarks()) {
		t.Fatalf("watermarks differ: %v vs %v", recovered.Watermarks(), src.Watermarks())
	}
	for _, name := range src.List() {
		for v := 1; v <= src.VersionCount(name); v++ {
			want, _ := src.Get(name, v)
			got, ok := recovered.Get(name, v)
			if !ok || got.Digest() != want.Digest() {
				t.Fatalf("recovered %s@v%d diverges", name, v)
			}
		}
	}

	// Journal failure: Apply reports it and stores nothing; Publish
	// panics and stores nothing.
	boom := errors.New("disk gone")
	src.SetJournal(func([]byte) error { return boom })
	if _, err := src.Apply(Bundle{Name: "pushed", Version: 2, Model: ModelSpec{Kind: "constant"}}); !errors.Is(err, boom) {
		t.Fatalf("apply with failing journal: %v", err)
	}
	if src.VersionCount("pushed") != 1 {
		t.Fatal("failed apply journal still stored the bundle")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Publish with failing journal did not panic")
			}
		}()
		src.Publish(Bundle{Name: "x", Model: ModelSpec{Kind: "constant"}})
	}()
	if src.VersionCount("x") != 0 {
		t.Fatal("failed publish journal still stored the bundle")
	}
}

func TestSnapshotBundlesCoversEverything(t *testing.T) {
	src := New()
	for i := 0; i < 3; i++ {
		b := servableTestBundle()
		b.Version = 0
		src.Publish(b)
	}
	src.Publish(Bundle{Name: "other", Model: ModelSpec{Kind: "constant", Bias: 2}})

	recovered := New()
	for i, rec := range src.SnapshotBundles() {
		rb, err := DecodeCanonicalBundle(rec)
		if err != nil {
			t.Fatalf("snapshot record %d: %v", i, err)
		}
		if _, err := recovered.Apply(*rb); err != nil {
			t.Fatalf("apply snapshot record %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(recovered.Watermarks(), src.Watermarks()) {
		t.Fatalf("watermarks differ: %v vs %v", recovered.Watermarks(), src.Watermarks())
	}
}
