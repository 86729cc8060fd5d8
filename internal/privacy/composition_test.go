package privacy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBasicCompose(t *testing.T) {
	got := BasicCompose([]Budget{{0.1, 1e-7}, {0.2, 2e-7}, {0.3, 0}})
	if math.Abs(got.Epsilon-0.6) > 1e-12 || math.Abs(got.Delta-3e-7) > 1e-18 {
		t.Errorf("BasicCompose = %v", got)
	}
	if !BasicCompose(nil).IsZero() {
		t.Error("empty composition should be zero")
	}
}

func TestStrongComposeBeatsBasicForManySmallQueries(t *testing.T) {
	// k queries at ε each: basic gives kε; strong gives
	// ~sqrt(2k·ln(1/δ̃))·ε + k·ε(e^ε−1), which wins for small ε, large k.
	spends := make([]Budget, 100)
	for i := range spends {
		spends[i] = Budget{Epsilon: 0.01}
	}
	basic := BasicCompose(spends)
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
	basic := BasicCompose(spends)
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

func TestAccountantSpendLoss(t *testing.T) {
	a := NewAccountant(BasicArithmetic{})
	a.Spend(MustBudget(0.3, 1e-7))
	a.Spend(MustBudget(0.2, 0))
	loss := a.Loss()
	if math.Abs(loss.Epsilon-0.5) > 1e-12 || loss.Delta != 1e-7 {
		t.Errorf("Loss = %v", loss)
	}
	if a.NumSpends() != 2 {
		t.Errorf("NumSpends = %d", a.NumSpends())
	}
}

func TestAccountantWouldExceed(t *testing.T) {
	a := NewAccountant(nil) // defaults to basic
	ceiling := MustBudget(1, 1e-6)
	a.Spend(MustBudget(0.8, 0))
	if a.WouldExceed(MustBudget(0.2, 0), ceiling) {
		t.Error("exactly reaching the ceiling should be allowed")
	}
	if !a.WouldExceed(MustBudget(0.21, 0), ceiling) {
		t.Error("exceeding the ceiling should be detected")
	}
	if !a.WouldExceed(MustBudget(0, 2e-6), ceiling) {
		t.Error("delta exhaustion should be detected")
	}
}

func TestAccountantRefund(t *testing.T) {
	a := NewAccountant(nil)
	a.Spend(MustBudget(0.5, 1e-7))
	a.Spend(MustBudget(0.3, 0))
	a.Refund(MustBudget(0.3, 0))
	loss := a.Loss()
	if math.Abs(loss.Epsilon-0.5) > 1e-12 {
		t.Errorf("after refund ε=%v, want 0.5", loss.Epsilon)
	}
	// Refund spanning multiple spends.
	a.Refund(MustBudget(0.4, 0))
	loss = a.Loss()
	if math.Abs(loss.Epsilon-0.1) > 1e-12 {
		t.Errorf("after second refund ε=%v, want 0.1", loss.Epsilon)
	}
	defer func() {
		if recover() == nil {
			t.Error("over-refund should panic")
		}
	}()
	a.Refund(MustBudget(10, 0))
}

// TestAccountantCanRefund: CanRefund answers what Refund would do —
// component by component, across spends — without doing it, and a
// refused Refund panics before it removes anything.
func TestAccountantCanRefund(t *testing.T) {
	a := NewAccountant(nil)
	a.Spend(MustBudget(0.5, 1e-7))
	a.Spend(MustBudget(0.3, 0))
	for _, c := range []struct {
		b    Budget
		want bool
	}{
		{MustBudget(0, 0), true},
		{MustBudget(0.3, 0), true},
		{MustBudget(0.8, 1e-7), true}, // exactly everything, over both spends
		{MustBudget(0.8000001, 0), false},
		{MustBudget(0.1, 2e-7), false}, // ε is covered, δ is not
		{MustBudget(math.MaxFloat64, 1), false},
	} {
		if got := a.CanRefund(c.b); got != c.want {
			t.Errorf("CanRefund(%v) = %v, want %v", c.b, got, c.want)
		}
	}
	if loss := a.Loss(); loss != MustBudget(0.8, 1e-7) || a.NumSpends() != 2 {
		t.Errorf("CanRefund changed the accountant: loss %v, %d spends", loss, a.NumSpends())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-refund should panic")
			}
		}()
		a.Refund(MustBudget(0.9, 0))
	}()
	if loss := a.Loss(); loss != MustBudget(0.8, 1e-7) || a.NumSpends() != 2 {
		t.Errorf("a refused refund was partly applied: loss %v, %d spends", loss, a.NumSpends())
	}
	if empty := NewAccountant(nil); empty.CanRefund(MustBudget(1e-9, 0)) || !empty.CanRefund(Zero) {
		t.Error("an empty accountant covers exactly the zero refund")
	}
}

func TestStrongArithmeticPicksTighter(t *testing.T) {
	s := StrongArithmetic{DeltaSlack: 1e-6}
	// One big query: basic wins.
	one := []Budget{{Epsilon: 1}}
	if got := s.Loss(one); got.Epsilon != 1 {
		t.Errorf("single query loss ε=%v, want 1 (basic)", got.Epsilon)
	}
	// Many small queries: strong wins.
	many := make([]Budget, 400)
	for i := range many {
		many[i] = Budget{Epsilon: 0.01}
	}
	if got, basic := s.Loss(many), BasicCompose(many); got.Epsilon >= basic.Epsilon {
		t.Errorf("many-query loss ε=%v, want < basic %v", got.Epsilon, basic.Epsilon)
	}
}

// Property: composition loss is monotone — adding a query never reduces ε.
func TestCompositionMonotoneProperty(t *testing.T) {
	arith := []CompositionArithmetic{
		BasicArithmetic{},
		StrongArithmetic{DeltaSlack: 1e-6},
		AdaptiveStrongArithmetic{EpsG: 1, DeltaSlack: 1e-6},
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
		for _, ar := range arith {
			before := ar.Loss(spends).Epsilon
			after := ar.Loss(append(append([]Budget{}, spends...), next)).Epsilon
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
