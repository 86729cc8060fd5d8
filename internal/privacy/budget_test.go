package privacy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewBudgetValidation(t *testing.T) {
	cases := []struct {
		eps, delta float64
		ok         bool
	}{
		{1, 1e-6, true},
		{0, 0, true},
		{0, 1, true},
		{-1, 0, false},
		{1, -0.1, false},
		{1, 1.1, false},
		{math.NaN(), 0, false},
		{1, math.NaN(), false},
		{math.Inf(1), 0, false},
	}
	for _, c := range cases {
		_, err := NewBudget(c.eps, c.delta)
		if (err == nil) != c.ok {
			t.Errorf("NewBudget(%v, %v) err=%v, want ok=%v", c.eps, c.delta, err, c.ok)
		}
	}
}

func TestBudgetAddSub(t *testing.T) {
	a := MustBudget(0.5, 1e-6)
	b := MustBudget(0.25, 2e-6)
	sum := a.Add(b)
	if sum.Epsilon != 0.75 || sum.Delta != 3e-6 {
		t.Errorf("Add = %v", sum)
	}
	diff := sum.Sub(b)
	if math.Abs(diff.Epsilon-0.5) > 1e-12 || math.Abs(diff.Delta-1e-6) > 1e-18 {
		t.Errorf("Sub = %v", diff)
	}
	// Sub clamps at zero.
	z := a.Sub(MustBudget(10, 1))
	if !z.IsZero() {
		t.Errorf("clamped Sub = %v, want zero", z)
	}
}

func TestBudgetDeltaSaturates(t *testing.T) {
	a := MustBudget(1, 0.7)
	b := a.Add(a)
	if b.Delta != 1 {
		t.Errorf("delta = %v, want saturation at 1", b.Delta)
	}
}

func TestBudgetCovers(t *testing.T) {
	big := MustBudget(1, 1e-5)
	small := MustBudget(0.5, 1e-6)
	if !big.Covers(small) {
		t.Error("big should cover small")
	}
	if small.Covers(big) {
		t.Error("small should not cover big")
	}
	if !big.Covers(big) {
		t.Error("budget should cover itself")
	}
	// Tolerance covers floating-point dust.
	dust := Budget{Epsilon: 1 + 1e-15, Delta: 1e-5}
	if !big.Covers(dust) {
		t.Error("tolerance should absorb 1e-15 dust")
	}
}

// Property: Add is commutative and monotone in both arguments.
func TestBudgetAddProperties(t *testing.T) {
	gen := func(e1, d1, e2, d2 uint16) (Budget, Budget) {
		a := Budget{Epsilon: float64(e1) / 1000, Delta: float64(d1) / 1e6 / 65.536}
		b := Budget{Epsilon: float64(e2) / 1000, Delta: float64(d2) / 1e6 / 65.536}
		return a, b
	}
	f := func(e1, d1, e2, d2 uint16) bool {
		a, b := gen(e1, d1, e2, d2)
		ab, ba := a.Add(b), b.Add(a)
		if ab != ba {
			return false
		}
		return ab.Covers(a) && ab.Covers(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
