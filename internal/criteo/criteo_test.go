package criteo

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/rng"
	"repro/internal/safety"
)

func TestGenerateDeterministic(t *testing.T) {
	a := NewGenerator(Config{}, 3).Generate(100, 0, 24)
	b := NewGenerator(Config{}, 3).Generate(100, 0, 24)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("impression %d differs between same-seed generators", i)
		}
	}
}

func TestSharedGroundTruthAcrossSeeds(t *testing.T) {
	// Different seeds draw different samples from the SAME task: a model
	// trained on seed A must transfer to data from seed B.
	train := Featurize(NewGenerator(Config{}, 10).Generate(60000, 0, 24))
	test := Featurize(NewGenerator(Config{}, 11).Generate(20000, 0, 24))
	m := ml.NewLogisticRegression(FeatureDim)
	ml.TrainSGD(m, train, ml.SGDConfig{LearningRate: 0.1, Epochs: 3, BatchSize: 256}, rng.New(12))
	acc := ml.Accuracy(m, test)
	naive := ml.Accuracy(ml.NaiveMajorityModel(train), test)
	if acc <= naive+0.01 {
		t.Errorf("cross-seed accuracy %v not above naive %v: task not shared", acc, naive)
	}
}

func TestFeaturizeShape(t *testing.T) {
	imps := NewGenerator(Config{}, 4).Generate(500, 5, 10)
	ds := Featurize(imps)
	if ds.Len() != 500 || ds.FeatureDim() != FeatureDim {
		t.Fatalf("Len=%d dim=%d", ds.Len(), ds.FeatureDim())
	}
	for _, ex := range ds.Examples {
		if ex.Label != 0 && ex.Label != 1 {
			t.Fatalf("label %v not binary", ex.Label)
		}
		if ex.Time < 5 || ex.Time >= 15 {
			t.Fatalf("time %d outside span", ex.Time)
		}
		// Each categorical group has exactly one active column.
		for c := 0; c < NumCategorical; c++ {
			base := NumNumeric + c*(TopValues+1)
			ones := 0
			for v := 0; v <= TopValues; v++ {
				if ex.Features[base+v] == 1 {
					ones++
				}
			}
			if ones != 1 {
				t.Fatalf("categorical %d has %d active columns", c, ones)
			}
		}
	}
}

func TestNumericFeatureRange(t *testing.T) {
	imps := NewGenerator(Config{}, 5).Generate(2000, 0, 1)
	for _, imp := range imps {
		for j, v := range imp.Numeric {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("numeric feature %d = %v", j, v)
			}
		}
		for c, v := range imp.Categorical {
			if v < 0 || v >= cardinality(c) {
				t.Fatalf("categorical %d = %d outside cardinality %d", c, v, cardinality(c))
			}
		}
	}
}

func TestZipfSkew(t *testing.T) {
	imps := NewGenerator(Config{}, 6).Generate(20000, 0, 1)
	// Value 0 of any categorical should be much more frequent than a
	// mid-cardinality value.
	zeros, mids := 0, 0
	for _, imp := range imps {
		if imp.Categorical[4] == 0 {
			zeros++
		}
		if imp.Categorical[4] == cardinality(4)/2 {
			mids++
		}
	}
	if zeros <= mids*5 {
		t.Errorf("value 0 count %d not ≫ mid-value count %d", zeros, mids)
	}
}

// TestCalibrationAnchors pins the generator to the paper's anchors: CTR
// ≈ 25.7% (majority-class accuracy 74.3%) and the best model visibly
// above the baseline but below ~0.82 so the paper's target range
// [0.74, 0.78] stays discriminative.
func TestCalibrationAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check trains on 100K samples")
	}
	gen := NewGenerator(Config{}, 20)
	train := Featurize(gen.Generate(100000, 0, 24*30))
	test := Featurize(NewGenerator(Config{}, 21).Generate(30000, 0, 24*30))
	ctr := train.MeanLabel()
	if math.Abs(ctr-0.257) > 0.03 {
		t.Errorf("CTR = %v, want ≈ 0.257 (paper)", ctr)
	}
	naive := ml.Accuracy(ml.NaiveMajorityModel(train), test)
	if math.Abs(naive-0.743) > 0.03 {
		t.Errorf("naive accuracy = %v, want ≈ 0.743 (paper)", naive)
	}
	m := ml.NewLogisticRegression(FeatureDim)
	ml.TrainSGD(m, train, ml.SGDConfig{LearningRate: 0.1, Epochs: 3, BatchSize: 512}, rng.New(22))
	acc := ml.Accuracy(m, test)
	if acc < naive+0.02 {
		t.Errorf("LG accuracy %v barely above naive %v", acc, naive)
	}
	if acc > 0.83 {
		t.Errorf("LG accuracy %v too high: targets up to 0.78 would be trivial", acc)
	}
}

func TestPipelineHelper(t *testing.T) {
	ds := Pipeline(300, 7, 5, 9)
	if ds.Len() != 300 || ds.FeatureDim() != FeatureDim {
		t.Fatalf("Len=%d dim=%d", ds.Len(), ds.FeatureDim())
	}
}

// Property: labels are binary and user IDs within range for any seed.
func TestGenerateInvariantsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 1
		imps := NewGenerator(Config{Users: 50}, seed).Generate(n, 0, 5)
		if len(imps) != n {
			return false
		}
		for _, imp := range imps {
			if imp.UserID < 0 || imp.UserID >= 50 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// referenceFeaturize is Featurize as it stood before PR 19 — one make
// per row — kept verbatim as the differential reference for the chunked
// rows.
func referenceFeaturize(imps []Impression) *data.Dataset {
	ds := &data.Dataset{Examples: make([]data.Example, 0, len(imps))}
	for i := range imps {
		imp := &imps[i]
		f := make([]float64, FeatureDim)
		copy(f, imp.Numeric[:])
		base := NumNumeric
		for c := 0; c < NumCategorical; c++ {
			v := imp.Categorical[c]
			if v > TopValues {
				v = TopValues
			}
			f[base+v] = 1
			base += TopValues + 1
		}
		label := 0.0
		if imp.Click {
			label = 1
		}
		ds.Append(data.Example{Features: f, Label: label, Time: imp.Time, UserID: imp.UserID})
	}
	return ds
}

// TestFeaturizeMatchesReference: value-identical datasets, cap == len on
// every row, and two results disjoint in memory.
func TestFeaturizeMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 18, 19, 2500} {
		imps := NewGenerator(Config{}, 21).Generate(n, 0, 48)
		got, want := Featurize(imps), referenceFeaturize(imps)
		if !reflect.DeepEqual(got.Examples, want.Examples) {
			t.Errorf("n=%d: dataset differs from the reference", n)
		}
		other := Featurize(imps)
		for _, ds := range []*data.Dataset{got, other} {
			for i, ex := range ds.Examples {
				if cap(ex.Features) != len(ex.Features) {
					t.Fatalf("n=%d row %d: cap %d != len %d, an append would write its neighbour", n, i, cap(ex.Features), len(ex.Features))
				}
			}
		}
		for _, ex := range other.Examples {
			for j := range ex.Features {
				ex.Features[j] = math.Inf(-1)
			}
		}
		if !reflect.DeepEqual(got.Examples, want.Examples) {
			t.Errorf("n=%d: overwriting one Featurize result changed another", n)
		}
	}
}

// TestFeaturizeAllocs pins the chunked rows: 6000 impressions featurize
// in rows/chunk + 4 allocations, not one per row.
func TestFeaturizeAllocs(t *testing.T) {
	imps := NewGenerator(Config{}, 22).Generate(6000, 0, 24)
	const rowsPerChunk = (24 << 10) / (8 * FeatureDim)
	got := safety.MaxAllocs(t, 5, 6000.0/rowsPerChunk+4, func() { Featurize(imps) })
	t.Logf("Featurize(6000 impressions): %.0f allocations", got)
}

// TestGenerateMatchesPerFeatureSamplers: the impressions are those of
// the generator as it stood before PR 19, which gave each of the 26
// categoricals a sampler of its own and searched its whole table on
// every draw. Sharing a table between categoricals of one cardinality,
// and guiding the search, change neither an index nor the RNG stream.
func TestGenerateMatchesPerFeatureSamplers(t *testing.T) {
	got := NewGenerator(Config{}, 23)
	want := NewGenerator(Config{}, 23)
	for c := range want.zipfs {
		n := cardinality(c)
		cum := make([]float64, n)
		acc := 0.0
		for i := range cum {
			acc += math.Pow(float64(i+1), -1.15)
			cum[i] = acc
		}
		total := acc
		want.zipfs[c] = func() int {
			u := want.r.Float64() * total
			lo, hi := 0, n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if cum[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
	}
	a, b := got.Generate(3000, 0, 48), want.Generate(3000, 0, 48)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("impression %d differs from the per-feature-sampler generator", i)
		}
	}
}
