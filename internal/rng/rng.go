// Package rng provides deterministic random number generation and the
// noise samplers used by Sage's differentially private mechanisms.
//
// All randomness in the repository flows through an *rng.RNG so that every
// experiment, test, and benchmark is reproducible from a single seed.
// Concurrent components each seed their own RNG from their coordinates
// (MixSeed), without sharing state, which keeps them deterministic
// regardless of scheduling.
package rng

import (
	"math"
	"math/rand/v2"
)

// RNG is a deterministic random source. It wraps a PCG generator from
// math/rand/v2 and adds the distribution samplers Sage needs (Laplace,
// Gaussian, exponential, Gamma, power law, lognormal).
//
// An RNG is not safe for concurrent use; give each concurrent component
// its own, seeded with MixSeed.
type RNG struct {
	src *rand.Rand
}

// New returns an RNG seeded from the given seed. Two RNGs created with the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	// Derive two 64-bit seeds with splitmix64 so that nearby seeds yield
	// decorrelated streams.
	s0 := splitmix64(&seed)
	s1 := splitmix64(&seed)
	return &RNG{src: rand.New(rand.NewPCG(s0, s1))}
}

// splitmix64 advances *x and returns a well-mixed 64-bit value. It is the
// standard seed-expansion function recommended for PCG/xoshiro seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MixSeed combines a base seed and task coordinates (grid indices,
// parameter bit patterns, mode values) into one well-mixed 64-bit seed
// by absorbing each part through splitmix64. Neighboring coordinates
// yield decorrelated seeds, unlike additive schemes such as
// seed+i+j*1e6 where nearby cells collide or share low bits. The
// parallel experiment engine derives each task's RNG as
// rng.New(rng.MixSeed(seed, coords...)), which depends only on the
// task's own coordinates — never on scheduling — so sweeps are
// bit-identical for any worker count.
func MixSeed(parts ...uint64) uint64 {
	h := uint64(0x243f6a8885a308d3) // π fractional bits: arbitrary non-zero offset
	for _, p := range parts {
		x := h ^ p
		h = splitmix64(&x)
	}
	return h
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 { return r.src.Uint64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) IntN(n int) int { return r.src.IntN(n) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.src.Float64() < p }

// Normal returns a draw from the normal distribution with the given mean
// and standard deviation.
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.src.NormFloat64()
}

// Laplace returns a draw from the Laplace distribution with the given mean
// and scale b (density (1/2b)·exp(-|x-mean|/b)). The Laplace mechanism adds
// Laplace(0, sensitivity/ε) noise for (ε, 0)-DP.
func (r *RNG) Laplace(mean, scale float64) float64 {
	// Inverse CDF sampling: u uniform in (-1/2, 1/2),
	// x = mean - b·sign(u)·ln(1-2|u|).
	u := r.src.Float64() - 0.5
	if u >= 0 {
		return mean - scale*math.Log(1-2*u)
	}
	return mean + scale*math.Log(1+2*u)
}

// Gamma returns a draw from the Gamma distribution with shape k and scale
// theta, using the Marsaglia–Tsang method. Used by the workload simulator
// for pipeline inter-arrival times (§5.4 of the paper).
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires shape, scale > 0")
	}
	if shape < 1 {
		// Boost: Gamma(k) = Gamma(k+1) · U^{1/k}.
		u := r.src.Float64()
		for u == 0 {
			u = r.src.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.src.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.src.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// ParetoMin returns a draw from a Pareto (power-law) distribution with the
// given minimum value and tail exponent alpha > 0: P(X > x) = (min/x)^alpha
// for x >= min. The workload simulator draws model sample complexities from
// this distribution (§5.4).
func (r *RNG) ParetoMin(min, alpha float64) float64 {
	if min <= 0 || alpha <= 0 {
		panic("rng: ParetoMin requires min, alpha > 0")
	}
	u := r.src.Float64()
	for u == 0 {
		u = r.src.Float64()
	}
	return min * math.Pow(u, -1/alpha)
}

// LogNormal returns a draw from a lognormal distribution where the
// underlying normal has the given mu and sigma.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements through swap. It
// makes exactly the draws Perm(n) makes, so shuffling an identity slice
// yields Perm(n) and leaves the generator where Perm would.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Zipf returns a sampler over [0, n) with Zipf-like weights 1/(i+1)^s,
// used by the Criteo generator for power-law categorical features. A
// draw consumes one Float64.
func (r *RNG) Zipf(n int, s float64) func() int {
	t := newZipfTable(n, s)
	return func() int { return t.index(r.src.Float64() * t.cum[n-1]) }
}

// zipfTable inverts the Zipf CDF: index(u) is the smallest i whose
// cumulative weight cum[i] reaches u (n−1 if rounding leaves none). The
// binary search that finds it does not start from [0, n−1] but from a
// guide table: u's share of the total picks one of n equal-width
// buckets, and guide[j], guide[j+1] bracket the answer of every u in
// bucket j. A frequent value's weight spans many buckets, so the common
// draw needs no search step at all and the rare one a few instead of
// log₂ n.
type zipfTable struct {
	cum     []float64
	guide   []int32
	perUnit float64 // buckets per unit of cumulative weight
}

func newZipfTable(n int, s float64) *zipfTable {
	t := &zipfTable{cum: make([]float64, n), guide: make([]int32, n+1)}
	acc := 0.0
	for i := range t.cum {
		acc += math.Pow(float64(i+1), -s)
		t.cum[i] = acc
	}
	for j, i := 0, 0; j < n; j++ {
		for i < n-1 && t.cum[i] < acc*float64(j)/float64(n) {
			i++
		}
		t.guide[j] = int32(i)
	}
	t.guide[n] = int32(n - 1)
	t.perUnit = float64(n) / acc
	return t
}

func (t *zipfTable) index(u float64) int {
	n := len(t.cum)
	j := min(int(u*t.perUnit), n-1)
	lo, hi := int(t.guide[j]), int(t.guide[j+1])
	// The bucket index is a rounded product, so the bracket is checked
	// against the table before it is trusted: the result is the
	// unguided search's for every u.
	if lo > 0 && t.cum[lo-1] >= u {
		lo = 0
	}
	if t.cum[hi] < u {
		hi = n - 1
	}
	for lo < hi {
		mid := (lo + hi) / 2
		if t.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
