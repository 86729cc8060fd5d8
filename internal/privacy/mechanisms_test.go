package privacy

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestLaplaceScale(t *testing.T) {
	m := LaplaceMechanism{Sensitivity: 2, Epsilon: 0.5}
	if got := m.Scale(); got != 4 {
		t.Errorf("Scale = %v, want 4", got)
	}
	if got := m.Cost(); got.Epsilon != 0.5 || got.Delta != 0 {
		t.Errorf("Cost = %v", got)
	}
}

func TestLaplaceReleaseUnbiased(t *testing.T) {
	r := rng.New(1)
	m := LaplaceMechanism{Sensitivity: 1, Epsilon: 1}
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += m.Release(10, r)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.05 {
		t.Errorf("mean release = %v, want ~10", mean)
	}
}

func TestLaplaceTailBound(t *testing.T) {
	r := rng.New(2)
	m := LaplaceMechanism{Sensitivity: 1, Epsilon: 0.5}
	const eta = 0.05
	bound := m.TailBound(eta)
	below := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if m.Release(0, r) < -bound {
			below++
		}
	}
	frac := float64(below) / n
	if frac > eta*1.15 {
		t.Errorf("tail frequency %v exceeds eta %v", frac, eta)
	}
	// Bound should be tight-ish: at 2× the bound far fewer violations.
	if frac < eta/4 {
		t.Errorf("tail frequency %v way below eta %v: bound too loose", frac, eta)
	}
}

func TestReleaseVector(t *testing.T) {
	r := rng.New(4)
	m := LaplaceMechanism{Sensitivity: 1, Epsilon: 10}
	in := []float64{1, 2, 3}
	out := m.ReleaseVector(in, r)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	for i := range in {
		if out[i] == in[i] {
			t.Errorf("coordinate %d unchanged: noise not applied?", i)
		}
		if math.Abs(out[i]-in[i]) > 5 {
			t.Errorf("coordinate %d noise implausibly large at ε=10", i)
		}
	}
}

func TestClip(t *testing.T) {
	if Clip(5, 0, 1) != 1 || Clip(-5, 0, 1) != 0 || Clip(0.5, 0, 1) != 0.5 {
		t.Error("Clip misbehaves")
	}
}

// Empirical DP check: the Laplace mechanism's output distributions on two
// neighboring counts differ by at most e^ε in probability over bins.
func TestLaplaceEmpiricalDP(t *testing.T) {
	const eps = 1.0
	m := LaplaceMechanism{Sensitivity: 1, Epsilon: eps}
	const n = 400000
	histA := make(map[int]int)
	histB := make(map[int]int)
	rA, rB := rng.New(5), rng.New(6)
	for i := 0; i < n; i++ {
		histA[int(math.Floor(m.Release(10, rA)))]++
		histB[int(math.Floor(m.Release(11, rB)))]++
	}
	for bin, ca := range histA {
		cb := histB[bin]
		if ca < 500 || cb < 500 {
			continue // skip low-probability bins with high variance
		}
		ratio := float64(ca) / float64(cb)
		if ratio > math.Exp(eps)*1.2 || ratio < math.Exp(-eps)/1.2 {
			t.Errorf("bin %d ratio %v outside e^±ε", bin, ratio)
		}
	}
}
