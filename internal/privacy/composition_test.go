package privacy

import (
	"math"
	"testing"
	"testing/quick"
)

// sum is the basic-composition loss of a sequence of budgets: Σεi, Σδi.
func sum(budgets []Budget) Budget {
	total := Zero
	for _, b := range budgets {
		total = total.Add(b)
	}
	return total
}

func TestStrongComposeBeatsBasicForManySmallQueries(t *testing.T) {
	// k queries at ε each: basic gives kε; strong gives
	// ~sqrt(2k·ln(1/δ̃))·ε + k·ε(e^ε−1), which wins for small ε, large k.
	spends := make([]Budget, 100)
	for i := range spends {
		spends[i] = Budget{Epsilon: 0.01}
	}
	basic := sum(spends)
	strong := StrongCompose(spends, 1e-6)
	if strong.Epsilon >= basic.Epsilon {
		t.Errorf("strong ε=%v not better than basic ε=%v for 100 small queries",
			strong.Epsilon, basic.Epsilon)
	}
	if strong.Delta != 1e-6 {
		t.Errorf("strong δ=%v, want slack 1e-6", strong.Delta)
	}
}

func TestStrongComposeKnownValue(t *testing.T) {
	// Single query: ε' = (e^ε−1)ε + sqrt(2·ln(1/δ̃))·ε.
	eps := 0.5
	slack := 1e-5
	got := StrongCompose([]Budget{{Epsilon: eps}}, slack)
	want := (math.Exp(eps)-1)*eps + math.Sqrt(2*eps*eps*math.Log(1/slack))
	if math.Abs(got.Epsilon-want) > 1e-12 {
		t.Errorf("StrongCompose ε=%v, want %v", got.Epsilon, want)
	}
}

func TestAdaptiveStrongCompose(t *testing.T) {
	spends := make([]Budget, 200)
	for i := range spends {
		spends[i] = Budget{Epsilon: 0.01, Delta: 1e-9}
	}
	basic := sum(spends)
	adaptive := AdaptiveStrongCompose(spends, 1.0, 1e-6)
	if adaptive.Epsilon >= basic.Epsilon {
		t.Errorf("adaptive strong ε=%v not better than basic ε=%v",
			adaptive.Epsilon, basic.Epsilon)
	}
	// Adaptive bound is looser than the fixed-parameter strong bound.
	strong := StrongCompose(spends, 1e-6)
	if adaptive.Epsilon < strong.Epsilon {
		t.Errorf("adaptive ε=%v tighter than fixed-parameter strong ε=%v: suspicious",
			adaptive.Epsilon, strong.Epsilon)
	}
	wantDelta := 1e-6 + 200*1e-9
	if math.Abs(adaptive.Delta-wantDelta) > 1e-15 {
		t.Errorf("adaptive δ=%v, want %v", adaptive.Delta, wantDelta)
	}
}

// Property: composition loss is monotone — adding a query never reduces
// ε, under basic (Σ), strong or adaptive-strong composition.
func TestCompositionMonotoneProperty(t *testing.T) {
	compose := []func([]Budget) Budget{
		sum,
		func(spends []Budget) Budget { return StrongCompose(spends, 1e-6) },
		func(spends []Budget) Budget { return AdaptiveStrongCompose(spends, 1, 1e-6) },
	}
	f := func(raw []uint8, extra uint8) bool {
		if len(raw) > 20 {
			raw = raw[:20]
		}
		spends := make([]Budget, len(raw))
		for i, r := range raw {
			spends[i] = Budget{Epsilon: float64(r) / 512}
		}
		next := Budget{Epsilon: float64(extra)/512 + 1e-4}
		for _, loss := range compose {
			before := loss(spends).Epsilon
			after := loss(append(append([]Budget{}, spends...), next)).Epsilon
			if after < before-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: strong composition is a valid bound — never below the max
// individual ε (any single query's loss is part of the total).
func TestStrongComposeLowerBoundProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 30 {
			raw = raw[:30]
		}
		spends := make([]Budget, len(raw))
		maxEps := 0.0
		for i, r := range raw {
			e := float64(r) / 256
			spends[i] = Budget{Epsilon: e}
			maxEps = math.Max(maxEps, e)
		}
		got := StrongCompose(spends, 1e-6)
		return got.Epsilon >= maxEps-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
