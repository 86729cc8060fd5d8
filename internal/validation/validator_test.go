package validation

import (
	"testing"

	"repro/internal/rng"
)

func TestDecisionString(t *testing.T) {
	if Accept.String() != "ACCEPT" || Reject.String() != "REJECT" || Retry.String() != "RETRY" {
		t.Error("decision names wrong")
	}
}

func TestModeProperties(t *testing.T) {
	if ModeNPSLA.isDP() {
		t.Error("NP SLA must not add DP noise")
	}
	for _, m := range []Mode{ModeNoSLA, ModeUncorrectedDP, ModeSage} {
		if !m.isDP() {
			t.Errorf("%v should be DP", m)
		}
	}
	if !ModeSage.corrects() || ModeUncorrectedDP.corrects() || ModeNoSLA.corrects() {
		t.Error("only Sage mode corrects for DP noise")
	}
	names := map[Mode]string{
		ModeNoSLA: "No SLA", ModeNPSLA: "NP SLA",
		ModeUncorrectedDP: "UC DP SLA", ModeSage: "Sage SLA",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestConfigCost(t *testing.T) {
	c := Config{Mode: ModeSage, Eta: 0.05, Epsilon: 0.5}
	if got := c.Cost(); got.Epsilon != 0.5 || got.Delta != 0 {
		t.Errorf("Cost = %v", got)
	}
	np := Config{Mode: ModeNPSLA, Eta: 0.05}
	if !np.Cost().IsZero() {
		t.Error("NP SLA should be free")
	}
}

// mkLosses returns n per-example losses all equal to v.
func mkLosses(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestLossAcceptObviousCases(t *testing.T) {
	v := LossValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.3, B: 1,
	}
	r := rng.New(1)
	// Tiny loss on plenty of data: must accept.
	if !v.Accept(mkLosses(100000, 0.05), r) {
		t.Error("should accept loss 0.05 << target 0.3")
	}
	// Loss far above target: must not accept.
	if v.Accept(mkLosses(100000, 0.8), r) {
		t.Error("should not accept loss 0.8 >> target 0.3")
	}
	// Near-empty test set: cannot accept.
	if v.Accept(mkLosses(1, 0.0), r) {
		t.Error("should not accept on 1 sample")
	}
}

func TestLossAcceptNeedsMoreDataNearTarget(t *testing.T) {
	v := LossValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.3, B: 1,
	}
	r := rng.New(2)
	// Loss slightly under target: small n insufficient, large n fine.
	if v.Accept(mkLosses(50, 0.28), r) {
		t.Error("50 samples should not suffice at margin 0.02")
	}
	if !v.Accept(mkLosses(300000, 0.28), r) {
		t.Error("300K samples should suffice at margin 0.02")
	}
}

func TestLossRejectTest(t *testing.T) {
	v := LossValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.1, B: 1,
	}
	r := rng.New(3)
	// Best empirical model has loss 0.5 on lots of data → no model can
	// reach 0.1: REJECT.
	if !v.Reject(mkLosses(100000, 0.5), r) {
		t.Error("should reject: best loss 0.5 >> target 0.1")
	}
	// Best model already beats the target → no rejection.
	if v.Reject(mkLosses(100000, 0.05), r) {
		t.Error("should not reject: best loss 0.05 < target")
	}
	// Nil training losses (e.g. NN): never reject.
	if v.Reject(nil, r) {
		t.Error("nil ERM losses should never reject")
	}
}

func TestLossValidateDecisions(t *testing.T) {
	v := LossValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.3, B: 1,
	}
	r := rng.New(4)
	// ACCEPT: the first test passes, so REJECT never runs.
	if !v.Accept(mkLosses(100000, 0.1), r) {
		t.Error("loss 0.1 on 100000 points should ACCEPT")
	}
	// REJECT: ACCEPT fails first, then REJECT passes.
	if v.Accept(mkLosses(100000, 0.9), r) {
		t.Error("loss 0.9 should not ACCEPT")
	}
	if !v.Reject(mkLosses(100000, 0.9), r) {
		t.Error("best loss 0.9 should REJECT")
	}
	// Good-enough loss but insufficient data: neither test passes, RETRY.
	if v.Accept(mkLosses(30, 0.25), r) {
		t.Error("30 points should not ACCEPT")
	}
	if v.Reject(mkLosses(30, 0.2), r) {
		t.Error("best loss 0.2 on 30 points should not REJECT")
	}
}

func TestLossNoSLAAcceptsNaively(t *testing.T) {
	naive := LossValidator{
		Config: Config{Mode: ModeNoSLA, Eta: 0.05, Epsilon: 1},
		Target: 0.3, B: 1,
	}
	sage := LossValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.3, B: 1,
	}
	// On a tiny test set with loss below target, No SLA accepts happily
	// (this is exactly the unreliability Table 2 quantifies) while Sage
	// holds out for more data.
	accN, accS := 0, 0
	for i := 0; i < 200; i++ {
		r := rng.New(uint64(i))
		if naive.Accept(mkLosses(40, 0.25), r) {
			accN++
		}
		if sage.Accept(mkLosses(40, 0.25), rng.New(uint64(i))) {
			accS++
		}
	}
	if accN < 100 {
		t.Errorf("No SLA accepted only %d/200 small-sample models", accN)
	}
	if accS != 0 {
		t.Errorf("Sage accepted %d/200 small-sample models", accS)
	}
}

func TestAccuracyAcceptObviousCases(t *testing.T) {
	v := AccuracyValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.74,
	}
	r := rng.New(5)
	if !v.Accept(90000, 100000, r) {
		t.Error("90% on 100K should accept target 74%")
	}
	if v.Accept(50000, 100000, r) {
		t.Error("50% should not accept target 74%")
	}
	if v.Accept(9, 10, r) {
		t.Error("10 samples should not accept")
	}
}

func TestAccuracyRejectTest(t *testing.T) {
	v := AccuracyValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.9,
	}
	r := rng.New(6)
	// Best train accuracy 70% on plenty of data → can't reach 90%.
	if !v.Reject(70000, 100000, r) {
		t.Error("should reject: best accuracy 0.7 << target 0.9")
	}
	if v.Reject(95000, 100000, r) {
		t.Error("should not reject: best accuracy 0.95 > target")
	}
	if v.Reject(-1, 100000, r) {
		t.Error("bestCorrect=-1 must skip rejection")
	}
}

func TestAccuracyValidateDecisions(t *testing.T) {
	v := AccuracyValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.74,
	}
	r := rng.New(7)
	// ACCEPT: the first test passes, so REJECT never runs.
	if !v.Accept(80000, 100000, r) {
		t.Error("accuracy 0.8 on 100000 points should ACCEPT")
	}
	// REJECT: ACCEPT fails first, then REJECT passes.
	if v.Accept(50000, 100000, r) {
		t.Error("accuracy 0.5 should not ACCEPT")
	}
	if !v.Reject(50000, 100000, r) {
		t.Error("best accuracy 0.5 should REJECT")
	}
	// Too few points and no best classifier: neither test passes, RETRY.
	if v.Accept(76, 100, r) {
		t.Error("100 points should not ACCEPT")
	}
	if v.Reject(-1, 0, r) {
		t.Error("bestCorrect=-1 must skip rejection")
	}
}

func TestErrorValidator(t *testing.T) {
	v := ErrorValidator{
		Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1},
		Target: 0.05, B: 1,
	}
	r := rng.New(8)
	if v.Accept(50, r) {
		t.Error("50 samples cannot bound error to 0.05")
	}
	if !v.Accept(1000000, r) {
		t.Error("1M samples should bound error to 0.05")
	}
}

func TestErrorValidatorModeComparison(t *testing.T) {
	// DP costs samples: at a size where the sampling error alone just
	// fits the target, the NP validator accepts and the DP-corrected one,
	// which also has to fit its noise, does not.
	np := ErrorValidator{Config: Config{Mode: ModeNPSLA, Eta: 0.05}, Target: 0.02, B: 1}
	sage := ErrorValidator{Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 0.1}, Target: 0.02, B: 1}
	r := rng.New(10)
	const n = 6000
	if gotNP, gotSage := np.Accept(n, r), sage.Accept(n, r); !gotNP || gotSage {
		t.Errorf("at n = %d: NP accepts %v, Sage accepts %v; want true, false", n, gotNP, gotSage)
	}
}

func TestValidatorConfigValidation(t *testing.T) {
	r := rng.New(9)
	for i, fn := range []func(){
		func() {
			LossValidator{Config: Config{Mode: ModeSage, Eta: 0, Epsilon: 1}, Target: 1, B: 1}.Accept(mkLosses(10, 0), r)
		},
		func() {
			LossValidator{Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 0}, Target: 1, B: 1}.Accept(mkLosses(10, 0), r)
		},
		func() {
			LossValidator{Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1}, Target: 1, B: 0}.Accept(mkLosses(10, 0), r)
		},
		func() {
			ErrorValidator{Config: Config{Mode: ModeSage, Eta: 0.05, Epsilon: 1}, Target: 1, B: 0}.Accept(10, r)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestProposition31 empirically verifies the paper's Proposition 3.1:
// with probability ≥ 1−η, ACCEPT fires only when the true expected loss
// is ≤ τ. We draw Bernoulli losses with mean slightly above the target
// and count false accepts.
func TestProposition31(t *testing.T) {
	const (
		trueLoss = 0.35
		target   = 0.30
		eta      = 0.05
	)
	v := LossValidator{
		Config: Config{Mode: ModeSage, Eta: eta, Epsilon: 1},
		Target: target, B: 1,
	}
	r := rng.New(10)
	falseAccepts := 0
	const reps = 400
	for rep := 0; rep < reps; rep++ {
		losses := make([]float64, 5000)
		for i := range losses {
			if r.Bool(trueLoss) {
				losses[i] = 1
			}
		}
		if v.Accept(losses, r) {
			falseAccepts++
		}
	}
	if frac := float64(falseAccepts) / reps; frac > eta {
		t.Errorf("false-accept rate %v exceeds η=%v", frac, eta)
	}
}

// TestUncorrectedDPViolatesMoreOften reproduces the mechanism behind
// Table 2: without the DP correction, noise can fake a passing score on
// small test sets far more often than with Sage's correction.
func TestUncorrectedDPViolatesMoreOften(t *testing.T) {
	const (
		trueLoss = 0.32 // just above target
		target   = 0.30
		eta      = 0.05
		nTest    = 400
		epsilon  = 0.05 // noisy validation regime
	)
	count := func(mode Mode) int {
		v := LossValidator{
			Config: Config{Mode: mode, Eta: eta, Epsilon: epsilon},
			Target: target, B: 1,
		}
		r := rng.New(11)
		accepts := 0
		for rep := 0; rep < 2000; rep++ {
			losses := make([]float64, nTest)
			for i := range losses {
				if r.Bool(trueLoss) {
					losses[i] = 1
				}
			}
			if v.Accept(losses, r) {
				accepts++
			}
		}
		return accepts
	}
	uc, sage := count(ModeUncorrectedDP), count(ModeSage)
	if sage > uc {
		t.Errorf("Sage false-accepts (%d) should not exceed uncorrected (%d)", sage, uc)
	}
	if uc == 0 {
		t.Skip("uncorrected mode produced no false accepts at this configuration")
	}
}
