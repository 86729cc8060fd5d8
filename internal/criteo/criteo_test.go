package criteo

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/safety"
)

// generate draws an n-impression stream the way Pipeline does.
func generate(g *Generator, n int, startTime, span int64) []Impression {
	imps := make([]Impression, n)
	for i := range imps {
		g.draw(&imps[i], i, n, startTime, span)
	}
	return imps
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(NewGenerator(Config{}, 3), 100, 0, 24)
	b := generate(NewGenerator(Config{}, 3), 100, 0, 24)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("impression %d differs between same-seed generators", i)
		}
	}
}

func TestSharedGroundTruthAcrossSeeds(t *testing.T) {
	// Different seeds draw different samples from the SAME task: a model
	// trained on seed A must transfer to data from seed B.
	train := Pipeline(60000, 0, 24, 10)
	test := Pipeline(20000, 0, 24, 11)
	m := ml.NewLogisticRegression(FeatureDim)
	ml.TrainSGD(m, train, ml.SGDConfig{LearningRate: 0.1, Epochs: 3, BatchSize: 256}, rng.New(12))
	acc := ml.Accuracy(m, test)
	naive := ml.Accuracy(ml.NaiveMajorityModel(train), test)
	if acc <= naive+0.01 {
		t.Errorf("cross-seed accuracy %v not above naive %v: task not shared", acc, naive)
	}
}

func TestFeaturizeShape(t *testing.T) {
	ds := Pipeline(500, 5, 10, 4)
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
	imps := generate(NewGenerator(Config{}, 5), 2000, 0, 1)
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
	imps := generate(NewGenerator(Config{}, 6), 20000, 0, 1)
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
	train := Pipeline(100000, 0, 24*30, 20)
	test := Pipeline(30000, 0, 24*30, 21)
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
		imps := generate(NewGenerator(Config{Users: 50}, seed), n, 0, 5)
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

// referenceGenerate is Generator.Generate as it stood before ingest
// streamed, and referenceFeaturize is Featurize as it stood before PR 19
// — one make per row — both kept verbatim as the differential reference
// for Pipeline's per-impression draws and its carved rows.
func referenceGenerate(g *Generator, n int, startTime, span int64) []Impression {
	if span <= 0 {
		span = 1
	}
	out := make([]Impression, n)
	for i := range out {
		imp := &out[i]
		imp.Time = startTime + int64(float64(span)*float64(i)/float64(n))
		imp.UserID = int64(g.r.IntN(g.cfg.Users))
		for j := 0; j < NumNumeric; j++ {
			raw := g.r.LogNormal(0, 1)
			imp.Numeric[j] = privacy.Clip(math.Log1p(raw)/3, 0, 1)
		}
		for c := 0; c < NumCategorical; c++ {
			imp.Categorical[c] = g.zipfs[c]()
		}
		imp.Click = g.r.Bool(ml.Sigmoid(g.logit(imp)))
	}
	return out
}

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

// TestFeaturizeMatchesReference: Pipeline is the reference's
// Featurize(Generate(n)) to the bit at every n around a row-chunk
// boundary and with a span of 0, with cap == len on every row and two
// results disjoint in memory.
func TestFeaturizeMatchesReference(t *testing.T) {
	const rowsPerChunk = (24 << 10) / (8 * FeatureDim)
	for _, c := range []struct {
		n    int
		span int64
	}{{0, 48}, {1, 48}, {rowsPerChunk - 1, 48}, {rowsPerChunk, 48}, {rowsPerChunk + 1, 48}, {3*rowsPerChunk + 7, 48}, {2500, 48}, {40, 0}} {
		n := c.n
		want := referenceFeaturize(referenceGenerate(NewGenerator(Config{}, 24), n, 5, c.span))
		got := Pipeline(n, 5, c.span, 24)
		if !reflect.DeepEqual(got.Examples, want.Examples) {
			t.Errorf("n=%d span=%d: dataset differs from the reference", n, c.span)
		}
		other := Pipeline(n, 5, c.span, 24)
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
			t.Errorf("n=%d: overwriting one Pipeline result changed another", n)
		}
	}
}

// TestGroundTruthDrawOrder: the categorical and numeric effects are the
// fixed-seed draws in the order the generator has always made them —
// categorical by categorical, value by value, then the numerics — so
// holding them in an array instead of per-categorical maps moved no bit.
func TestGroundTruthDrawOrder(t *testing.T) {
	g := NewGenerator(Config{}, 1)
	truth := rng.New(0xC817E0)
	for c := 0; c < NumCategorical; c++ {
		for v := 0; v <= TopValues; v++ {
			if w := truth.Normal(0, 0.55); g.catW[c][v] != w {
				t.Fatalf("catW[%d][%d] = %v, want %v", c, v, g.catW[c][v], w)
			}
		}
	}
	for i := 0; i < NumNumeric; i++ {
		if w := truth.Normal(0, 0.5); g.numW[i] != w {
			t.Fatalf("numW[%d] = %v, want %v", i, g.numW[i], w)
		}
	}
}

// TestFeaturizeAllocs pins that Pipeline holds no stream-sized buffer:
// 6000 impressions cost their row chunks, the examples and the
// generator's set-up, not one allocation per row and not a []Impression
// of the stream (2 MB).
func TestFeaturizeAllocs(t *testing.T) {
	const n, rowsPerChunk = 6000, (24 << 10) / (8 * FeatureDim)
	base := testing.AllocsPerRun(5, func() { NewGenerator(Config{}, 22) })
	got := safety.MaxAllocs(t, 5, base+(n+rowsPerChunk-1)/rowsPerChunk+2, func() { Pipeline(n, 0, 24, 22) })
	t.Logf("Pipeline(%d impressions): %.0f allocations (%.0f of them the generator)", n, got, base)
	bytes := safety.LeastBytes(5, func() { Pipeline(n, 0, 24, 22) })
	const budget = n*FeatureDim*8 + n*48 + 512<<10 // rows, examples, the generator's samplers
	if bytes > budget {
		t.Errorf("Pipeline(%d impressions) allocated %d bytes, budget %d", n, bytes, budget)
	}
	t.Logf("Pipeline(%d impressions): %d bytes", n, bytes)
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
	a, b := generate(got, 3000, 0, 48), generate(want, 3000, 0, 48)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("impression %d differs from the per-feature-sampler generator", i)
		}
	}
}
