package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 identical draws", same)
	}
}

// moments computes the sample mean and variance of n draws.
func moments(n int, draw func() float64) (mean, variance float64) {
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance = sumSq/float64(n) - mean*mean
	return mean, variance
}

func TestLaplaceMoments(t *testing.T) {
	r := New(3)
	const scale = 2.0
	mean, v := moments(200000, func() float64 { return r.Laplace(0, scale) })
	if math.Abs(mean) > 0.05 {
		t.Errorf("Laplace mean = %v, want ~0", mean)
	}
	// Var(Laplace(0,b)) = 2b².
	want := 2 * scale * scale
	if math.Abs(v-want)/want > 0.05 {
		t.Errorf("Laplace variance = %v, want ~%v", v, want)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(4)
	mean, v := moments(200000, func() float64 { return r.Normal(1.5, 3.0) })
	if math.Abs(mean-1.5) > 0.05 {
		t.Errorf("Normal mean = %v, want ~1.5", mean)
	}
	if math.Abs(v-9.0)/9.0 > 0.05 {
		t.Errorf("Normal variance = %v, want ~9", v)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(6)
	const shape, scale = 2.5, 1.5
	mean, v := moments(200000, func() float64 { return r.Gamma(shape, scale) })
	if math.Abs(mean-shape*scale)/(shape*scale) > 0.05 {
		t.Errorf("Gamma mean = %v, want ~%v", mean, shape*scale)
	}
	want := shape * scale * scale
	if math.Abs(v-want)/want > 0.10 {
		t.Errorf("Gamma variance = %v, want ~%v", v, want)
	}
}

func TestGammaSmallShape(t *testing.T) {
	r := New(61)
	const shape, scale = 0.5, 2.0
	mean, _ := moments(200000, func() float64 { return r.Gamma(shape, scale) })
	if math.Abs(mean-shape*scale)/(shape*scale) > 0.07 {
		t.Errorf("Gamma(0.5) mean = %v, want ~%v", mean, shape*scale)
	}
}

func TestParetoMin(t *testing.T) {
	r := New(8)
	const min, alpha = 10.0, 2.5
	for i := 0; i < 10000; i++ {
		if x := r.ParetoMin(min, alpha); x < min {
			t.Fatalf("Pareto draw %v below min %v", x, min)
		}
	}
	// E[X] = alpha·min/(alpha-1) for alpha > 1.
	mean, _ := moments(300000, func() float64 { return r.ParetoMin(min, alpha) })
	want := alpha * min / (alpha - 1)
	if math.Abs(mean-want)/want > 0.05 {
		t.Errorf("Pareto mean = %v, want ~%v", mean, want)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(10)
	draw := r.Zipf(50, 1.2)
	counts := make([]int, 50)
	for i := 0; i < 100000; i++ {
		k := draw()
		if k < 0 || k >= 50 {
			t.Fatalf("Zipf draw %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[49] {
		t.Errorf("Zipf head count %d not greater than tail count %d", counts[0], counts[49])
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency = %v", got)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(12)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation")
		}
		seen[v] = true
	}
}

// TestShuffleMakesPermsDraws: Shuffle over an identity []int32 is Perm(n)
// element by element and leaves the generator where Perm leaves it, so a
// caller may trade one for the other without moving any later draw.
func TestShuffleMakesPermsDraws(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 1000, 1 << 16} {
		a, b := New(uint64(n)+40), New(uint64(n)+40)
		want := a.Perm(n)
		got := make([]int32, n)
		for i := range got {
			got[i] = int32(i)
		}
		b.Shuffle(n, func(i, j int) { got[i], got[j] = got[j], got[i] })
		for i := range want {
			if int(got[i]) != want[i] {
				t.Fatalf("n=%d: Shuffle[%d] = %d, Perm[%d] = %d", n, i, got[i], i, want[i])
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("n=%d: the generators part after Perm and Shuffle", n)
		}
	}
}

// Property: Laplace draws are symmetric around the mean (median ≈ mean).
func TestLaplaceSymmetryProperty(t *testing.T) {
	f := func(seed uint64, rawMean int16, rawScale uint8) bool {
		mean := float64(rawMean) / 100
		scale := float64(rawScale)/50 + 0.1
		r := New(seed)
		above := 0
		const n = 4000
		for i := 0; i < n; i++ {
			if r.Laplace(mean, scale) > mean {
				above++
			}
		}
		frac := float64(above) / n
		return frac > 0.44 && frac < 0.56
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: IntN always returns values in range.
func TestIntNRangeProperty(t *testing.T) {
	f := func(seed uint64, rawN uint16) bool {
		n := int(rawN)%1000 + 1
		r := New(seed)
		for i := 0; i < 100; i++ {
			v := r.IntN(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// referenceZipf is Zipf as it stood before PR 19, kept verbatim as the
// differential reference: a fresh binary search over [0, n-1] per draw.
func referenceZipf(r *RNG, n int, s float64) func() int {
	weights := make([]float64, n)
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -s)
	}
	// Precompute cumulative weights for binary search.
	cum := make([]float64, n)
	acc := 0.0
	for i, w := range weights {
		acc += w
		cum[i] = acc
	}
	total := acc
	return func() int {
		u := r.src.Float64() * total
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

// TestZipfMatchesReference holds the guided search to the unguided one
// at the Criteo generator's five cardinalities: the same index on every
// one of 10⁶ draws, and the RNG left where the reference leaves it.
func TestZipfMatchesReference(t *testing.T) {
	draws := 1000000
	if testing.Short() {
		draws = 50000
	}
	for _, n := range []int{20, 100, 500, 5000, 20000} {
		a, b := New(uint64(n)), New(uint64(n))
		got, want := a.Zipf(n, 1.15), referenceZipf(b, n, 1.15)
		for i := 0; i < draws; i++ {
			if g, w := got(), want(); g != w {
				t.Fatalf("n=%d draw %d: index %d, reference %d", n, i, g, w)
			}
		}
		if g, w := a.Uint64(), b.Uint64(); g != w {
			t.Errorf("n=%d: RNG streams diverged after %d draws", n, draws)
		}
	}
}

// TestZipfIndexAtBoundaries aims u where a guide table can go wrong and
// random draws almost never land: at every cumulative weight and every
// bucket edge, and one ulp to either side of each.
func TestZipfIndexAtBoundaries(t *testing.T) {
	for _, n := range []int{1, 2, 20, 100, 500, 5000, 20000} {
		tab := newZipfTable(n, 1.15)
		total := tab.cum[n-1]
		unguided := func(u float64) int {
			lo, hi := 0, n-1
			for lo < hi {
				mid := (lo + hi) / 2
				if tab.cum[mid] < u {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			return lo
		}
		check := func(u float64) {
			for _, v := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, math.Inf(1))} {
				if v < 0 || v > total {
					continue
				}
				if got, want := tab.index(v), unguided(v); got != want {
					t.Fatalf("n=%d u=%v: index %d, unguided search %d", n, v, got, want)
				}
			}
		}
		// The second and third rounds skew the bucket scale, so that
		// the guide brackets the wrong indices: index checks a bracket
		// before trusting it, so a wrong guide may cost steps, never
		// the answer. (With an exact scale the check only fires when a
		// cumulative weight sits within rounding of a bucket edge.)
		exact := tab.perUnit
		for _, skew := range []float64{1, 0.97, 1.03} {
			tab.perUnit = exact * skew
			for i := 0; i < n; i++ {
				check(tab.cum[i])
				check(total * float64(i) / float64(n))
				check(float64(i) / tab.perUnit)
			}
			check(0)
			check(total)
		}
	}
}
