package taxi

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
	"repro/internal/stats"
)

func TestGenerateDeterministic(t *testing.T) {
	a := NewGenerator(Config{}, 7).Generate(100, 0, 24)
	b := NewGenerator(Config{}, 7).Generate(100, 0, 24)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ride %d differs between same-seed generators", i)
		}
	}
	c := NewGenerator(Config{}, 8).Generate(100, 0, 24)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d/100 rides identical across seeds", same)
	}
}

func TestGenerateTimeSpan(t *testing.T) {
	rides := NewGenerator(Config{}, 1).Generate(1000, 100, 50)
	for _, r := range rides {
		if r.PickupHour < 100 || r.PickupHour >= 150 {
			t.Fatalf("pickup hour %d outside [100, 150)", r.PickupHour)
		}
	}
	// Times must be non-decreasing (stream order).
	for i := 1; i < len(rides); i++ {
		if rides[i].PickupHour < rides[i-1].PickupHour {
			t.Fatal("pickup times not monotone")
		}
	}
}

func TestCleanRides(t *testing.T) {
	rides := NewGenerator(Config{}, 2).Generate(5000, 0, 24*7)
	kept, dropped := Clean(rides)
	if dropped != 0 || len(kept) != 5000 {
		t.Errorf("clean generator dropped %d rides", dropped)
	}
}

func TestCleanFiltersOutliers(t *testing.T) {
	const frac = 0.2
	rides := NewGenerator(Config{OutlierFraction: frac}, 3).Generate(20000, 0, 24*7)
	kept, dropped := Clean(rides)
	got := float64(dropped) / 20000
	if math.Abs(got-frac) > 0.02 {
		t.Errorf("dropped fraction %v, want ~%v", got, frac)
	}
	for _, r := range kept {
		if !Valid(r) {
			t.Fatal("Clean returned an invalid ride")
		}
	}
}

func TestValidFilters(t *testing.T) {
	base := NewGenerator(Config{}, 4).Generate(1, 0, 1)[0]
	if !Valid(base) {
		t.Fatal("clean ride should be valid")
	}
	cases := []func(Ride) Ride{
		func(r Ride) Ride { r.Price = 1500; return r },
		func(r Ride) Ride { r.Price = -1; return r },
		func(r Ride) Ride { r.Duration = -0.1; return r },
		func(r Ride) Ride { r.Duration = 3; return r },
		func(r Ride) Ride { r.MalformedDate = true; return r },
		func(r Ride) Ride { r.PickupLat = 10; return r },
		func(r Ride) Ride { r.DropLon = 50; return r },
	}
	for i, mutate := range cases {
		if Valid(mutate(base)) {
			t.Errorf("case %d should be filtered", i)
		}
	}
}

func TestSpeedProfileShape(t *testing.T) {
	// Rush hours must be slower than night.
	if speedProfile(8) >= speedProfile(2) {
		t.Error("morning rush not slower than night")
	}
	if speedProfile(17) >= speedProfile(23) {
		t.Error("evening rush not slower than late night")
	}
	for h := 0; h < 24; h++ {
		if speedProfile(h) <= 0 {
			t.Errorf("hour %d has non-positive speed", h)
		}
	}
}

func TestSpeedByHourExact(t *testing.T) {
	rides := NewGenerator(Config{}, 5).Generate(50000, 0, 24*14)
	speeds := SpeedByHour(rides, 0, nil)
	if len(speeds) != 24 {
		t.Fatalf("len = %d", len(speeds))
	}
	// Recovered profile must reflect rush-hour structure.
	if speeds[8] >= speeds[2] {
		t.Errorf("hour 8 speed %v not below hour 2 speed %v", speeds[8], speeds[2])
	}
}

func TestSpeedByHourDPCloseToExact(t *testing.T) {
	rides := NewGenerator(Config{}, 6).Generate(100000, 0, 24*14)
	exact := SpeedByHour(rides, 0, nil)
	dp := SpeedByHour(rides, 1.0, rng.New(7))
	for h := range exact {
		if math.Abs(dp[h]-exact[h]) > 2.0 {
			t.Errorf("hour %d: DP speed %v far from exact %v", h, dp[h], exact[h])
		}
	}
}

func TestFeaturizeShape(t *testing.T) {
	rides := NewGenerator(Config{}, 8).Generate(1000, 0, 24*7)
	ds := Featurize(rides, SpeedByHour(rides, 0, nil))
	if ds.Len() != 1000 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if ds.FeatureDim() != FeatureDim {
		t.Fatalf("FeatureDim = %d, want %d", ds.FeatureDim(), FeatureDim)
	}
	for _, ex := range ds.Examples {
		if ex.Label < 0 || ex.Label > 1 {
			t.Fatalf("label %v outside [0,1]", ex.Label)
		}
		// One-hot groups must each have exactly one active bit.
		ones := 0
		for _, v := range ex.Features[2:] {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatalf("non-binary one-hot value %v", v)
			}
		}
		if ones != 4 {
			t.Fatalf("expected 4 active one-hot bits, got %d", ones)
		}
	}
}

// TestCalibrationAnchors pins the generator to the paper's anchors: the
// naïve (mean-label) MSE ≈ 0.0069 and the best linear model ≈ 0.0024
// (§5 Methodology). Ranges are generous to absorb sampling noise.
func TestCalibrationAnchors(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check trains on 150K samples")
	}
	train := Pipeline(150000, 0, 24*30, 0, 0, 11)
	test := Pipeline(30000, 0, 24*30, 0, 0, 12)
	naive := ml.MSE(ml.NaiveMeanModel(train), test)
	if naive < 0.005 || naive > 0.010 {
		t.Errorf("naive MSE = %v, want ≈ 0.0069 (paper)", naive)
	}
	lr := ml.TrainRidge(train, ml.RidgeConfig{Lambda: 1e-4})
	best := ml.MSE(lr, test)
	if best < 0.0015 || best > 0.0035 {
		t.Errorf("LR MSE = %v, want ≈ 0.0024 (paper)", best)
	}
	if best > naive/2 {
		t.Errorf("LR (%v) should at least halve the naive MSE (%v)", best, naive)
	}
}

func TestPipelineWithDPSpeeds(t *testing.T) {
	ds := Pipeline(5000, 0, 24*7, 0.05, 0.5, 13)
	if ds.Len() == 0 || ds.Len() > 5000 {
		t.Fatalf("Len = %d", ds.Len())
	}
	if ds.FeatureDim() != FeatureDim {
		t.Fatal("wrong feature dim")
	}
}

// Property: featurized values are always bounded, labels in [0,1], for
// any generator seed and outlier fraction.
func TestFeatureBoundsProperty(t *testing.T) {
	f := func(seed uint64, fracRaw uint8) bool {
		frac := float64(fracRaw) / 512 // up to 50%
		ds := Pipeline(200, 0, 48, frac, 0, seed)
		for _, ex := range ds.Examples {
			if ex.Label < 0 || ex.Label > 1 {
				return false
			}
			for _, v := range ex.Features {
				if v < 0 || v > 1 || math.IsNaN(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// referencePipeline is Pipeline as it stood before PR 19 — Clean's copy,
// SpeedByHour over key and value arrays in both branches, one make per
// featurized row — over Generate as it stood before ingest streamed, all
// kept verbatim as the differential reference for Ingest's per-ride
// draws, filter, table and rows at once.
func referencePipeline(n int, startHour, spanHours int64, outlierFrac, speedEpsilon float64, seed uint64) (*data.Dataset, []float64) {
	gen := NewGenerator(Config{OutlierFraction: outlierFrac}, seed)
	rides := referenceGenerate(gen, n, startHour, spanHours)
	clean, _ := Clean(rides)
	var r *rng.RNG
	if speedEpsilon > 0 {
		r = rng.New(seed + 1)
	}
	speeds := referenceSpeedByHour(clean, speedEpsilon, r)
	return referenceFeaturize(clean, speeds), speeds
}

func referenceGenerate(g *Generator, n int, startHour, spanHours int64) []Ride {
	if spanHours <= 0 {
		spanHours = 1
	}
	rides := make([]Ride, n)
	for i := range rides {
		tick := startHour + int64(float64(spanHours)*float64(i)/float64(n))
		rides[i] = g.ride(tick)
		if g.cfg.OutlierFraction > 0 && g.r.Bool(g.cfg.OutlierFraction) {
			g.corrupt(&rides[i])
		}
	}
	return rides
}

func referenceSpeedByHour(rides []Ride, epsilon float64, r *rng.RNG) []float64 {
	keys := make([]int, len(rides))
	values := make([]float64, len(rides))
	for i, ride := range rides {
		keys[i] = int(ride.PickupHour % 24)
		values[i] = ride.Speed
	}
	if epsilon > 0 {
		return stats.DPGroupByMean(keys, values, numHourBuckets, epsilon, 45, r)
	}
	sums := make([]float64, numHourBuckets)
	counts := make([]float64, numHourBuckets)
	for i, k := range keys {
		sums[k] += values[i]
		counts[k]++
	}
	means := make([]float64, numHourBuckets)
	for k := range means {
		if counts[k] > 0 {
			means[k] = sums[k] / counts[k]
		}
	}
	return means
}

func referenceFeaturize(rides []Ride, speedByHour []float64) *data.Dataset {
	ds := &data.Dataset{Examples: make([]data.Example, 0, len(rides))}
	for _, ride := range rides {
		hour := int(ride.PickupHour % 24)
		day := int(ride.PickupHour / 24 % 7)
		week := int(ride.PickupHour / (24 * 7) % int64(numWeekBuckets))
		distBucket := int(distScale(ride.Distance) * float64(numDistBuckets))
		if distBucket >= numDistBuckets {
			distBucket = numDistBuckets - 1
		}
		f := make([]float64, FeatureDim)
		f[0] = distScale(ride.Distance)
		f[1] = speedScale(speedByHour[hour])
		base := 2
		f[base+hour] = 1
		base += numHourBuckets
		f[base+day] = 1
		base += numDayBuckets
		f[base+week] = 1
		base += numWeekBuckets
		f[base+distBucket] = 1
		ds.Append(data.Example{
			Features: f,
			Label:    privacy.Clip(ride.Duration/MaxDuration, 0, 1),
			Time:     ride.PickupHour,
			UserID:   ride.UserID,
		})
	}
	return ds
}

// TestIngestMatchesReference: the dataset and the speed table are
// value-identical to the reference's at every n around a row-chunk
// boundary, with and without outliers to filter — some dropped on both
// sides of a ride whose row starts a chunk — and with exact and with DP
// speeds, through Ingest and through the Generate, Clean, SpeedByHour
// and Featurize wrappers; every row has cap == len; and two results are
// disjoint in memory.
func TestIngestMatchesReference(t *testing.T) {
	const seed, rowsPerChunk = 14, (24 << 10) / (8 * FeatureDim)
	straddled := false
	for _, n := range []int{0, 1, rowsPerChunk - 1, rowsPerChunk, rowsPerChunk + 1, 3*rowsPerChunk + 7, 3000} {
		for _, c := range []struct{ outlierFrac, speedEp float64 }{{0, 0}, {0, 0.3}, {0.08, 0}, {0.5, 0.3}} {
			want, wantSpeeds := referencePipeline(n, 24, 24*9, c.outlierFrac, c.speedEp, seed)
			var r *rng.RNG
			if c.speedEp > 0 {
				r = rng.New(seed + 1)
			}
			got, gotSpeeds := Ingest(nil, NewGenerator(Config{OutlierFraction: c.outlierFrac}, seed), n, 24, 24*9, c.speedEp, r)
			if !reflect.DeepEqual(gotSpeeds, wantSpeeds) {
				t.Errorf("n=%d %+v: speed table differs from the reference", n, c)
			}
			if !reflect.DeepEqual(got.Examples, want.Examples) {
				t.Errorf("n=%d %+v: dataset differs from the reference (%d vs %d rows)", n, c, got.Len(), want.Len())
			}
			if viaPipeline := Pipeline(n, 24, 24*9, c.outlierFrac, c.speedEp, seed); !reflect.DeepEqual(viaPipeline.Examples, got.Examples) {
				t.Errorf("n=%d %+v: Pipeline and Ingest disagree", n, c)
			}
			assertOwnRows(t, got, Pipeline(n, 24, 24*9, c.outlierFrac, c.speedEp, seed))
			rides := NewGenerator(Config{OutlierFraction: c.outlierFrac}, seed).Generate(n, 24, 24*9)
			clean, _ := Clean(rides)
			if c.speedEp > 0 {
				r = rng.New(seed + 1)
			}
			if viaWrappers := Featurize(clean, SpeedByHour(clean, c.speedEp, r)); !reflect.DeepEqual(viaWrappers.Examples, want.Examples) {
				t.Errorf("n=%d %+v: Featurize(Clean(Generate)) differs from the reference", n, c)
			}
			kept := 0
			for i := range rides {
				if !Valid(rides[i]) {
					continue
				}
				if kept > 0 && kept%rowsPerChunk == 0 && i > 0 && i+1 < n {
					straddled = straddled || !Valid(rides[i-1]) && !Valid(rides[i+1])
				}
				kept++
			}
		}
	}
	if !straddled {
		t.Fatal("no case drops the rides on both sides of a chunk's first row")
	}
}

// assertOwnRows fails unless every row of a and b has cap == len and a
// write over all of one dataset's rows leaves the other's untouched.
func assertOwnRows(t *testing.T, a, b *data.Dataset) {
	t.Helper()
	for _, ds := range []*data.Dataset{a, b} {
		for i, ex := range ds.Examples {
			if cap(ex.Features) != len(ex.Features) {
				t.Fatalf("row %d: cap %d != len %d, an append would write its neighbour", i, cap(ex.Features), len(ex.Features))
			}
		}
	}
	before := make([][]float64, b.Len())
	for i, ex := range b.Examples {
		before[i] = append([]float64(nil), ex.Features...)
	}
	for _, ex := range a.Examples {
		for j := range ex.Features {
			ex.Features[j] = math.Inf(-1)
		}
	}
	for i, ex := range b.Examples {
		if !reflect.DeepEqual(ex.Features, before[i]) {
			t.Fatalf("row %d changed when another Featurize result was overwritten", i)
		}
	}
}

// TestFeaturizeAllocs pins the chunked rows: 6000 rides featurize in
// rows/chunk + 4 allocations, not one per row.
func TestFeaturizeAllocs(t *testing.T) {
	rides := NewGenerator(Config{}, 8).Generate(6000, 0, 24)
	speeds := SpeedByHour(rides, 0, nil)
	const rowsPerChunk = (24 << 10) / (8 * FeatureDim)
	got := safety.MaxAllocs(t, 5, 6000.0/rowsPerChunk+4, func() { Featurize(rides, speeds) })
	t.Logf("Featurize(6000 rides): %.0f allocations", got)
}

// TestIngestAllocs pins that Ingest holds no stream-sized buffer: 6000
// rides cost their row chunks, the dataset and its examples and the speed
// table's counts, sums and means (the DP release adds its two noisy
// vectors), and no more bytes
// than those — a []Ride of the stream would add 528 kB, key and value
// arrays 96 kB. Into a buffer with room, as the daemon ingests block
// after block, the 6000 × 48 B of examples are not allocated at all.
func TestIngestAllocs(t *testing.T) {
	const n, rowsPerChunk = 6000, (24 << 10) / (8 * FeatureDim)
	chunks := float64((n + rowsPerChunk - 1) / rowsPerChunk)
	buf := make([]data.Example, 0, n)
	for _, c := range []struct {
		into     []data.Example
		examples int // allocations and bytes of the examples' headers
	}{{nil, 1}, {buf, 0}} {
		for _, eps := range []float64{0, 0.3} {
			ingest := func() {
				Ingest(c.into, NewGenerator(Config{OutlierFraction: 0.02}, 8), n, 0, 24, eps, rng.New(9))
			}
			base := testing.AllocsPerRun(5, func() { NewGenerator(Config{OutlierFraction: 0.02}, 8); rng.New(9) })
			budget := base + chunks + 3 + float64(c.examples)
			if eps > 0 {
				budget += 2
			}
			got := safety.MaxAllocs(t, 5, budget, ingest)
			t.Logf("Ingest(%d rides, ε=%v, into cap %d): %.0f allocations (%.0f of them the generator and RNG)", n, eps, cap(c.into), got, base)

			bytes := safety.LeastBytes(5, ingest)
			const (
				rows  = n * FeatureDim * 8
				slack = 24 << 10 // the generator, the RNGs, the table
			)
			if limit := rows + c.examples*n*48 + slack; bytes > uint64(limit) {
				t.Errorf("Ingest(%d rides, ε=%v, into cap %d) allocated %d bytes, budget %d", n, eps, cap(c.into), bytes, limit)
			}
			t.Logf("Ingest(%d rides, ε=%v, into cap %d): %d bytes", n, eps, cap(c.into), bytes)
		}
	}
}
