package validation

import (
	"repro/internal/privacy"
	"repro/internal/rng"
)

// Decision is the outcome of an SLAed validation (Fig. 2): ACCEPT pushes
// the model to serving, REJECT abandons it, RETRY asks privacy-adaptive
// training for more data or budget.
type Decision int

const (
	// Retry means the test could not decide; train with more resources.
	Retry Decision = iota
	// Accept means the model meets its quality target with high
	// probability.
	Accept
	// Reject means no model in the class can meet the target.
	Reject
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Accept:
		return "ACCEPT"
	case Reject:
		return "REJECT"
	default:
		return "RETRY"
	}
}

// Mode selects the validation discipline. The four modes are exactly the
// four columns of Table 2, which ablate Sage's two ingredients
// (statistical rigor, DP correction):
type Mode int

const (
	// ModeNoSLA is vanilla TFX validation: compare the (noisy) point
	// estimate against the target with no statistical confidence.
	ModeNoSLA Mode = iota
	// ModeNPSLA is a statistically rigorous but non-private test — the
	// best achievable with confidence but no privacy ("NP SLA").
	ModeNPSLA
	// ModeUncorrectedDP adds DP noise to the test statistics but does
	// not correct the confidence bounds for it ("UC DP SLA").
	ModeUncorrectedDP
	// ModeSage is the full Sage SLAed validator: DP noise plus
	// worst-case noise-impact correction (Listing 2).
	ModeSage
)

// String returns the mode name as used in the paper's tables.
func (m Mode) String() string {
	switch m {
	case ModeNoSLA:
		return "No SLA"
	case ModeNPSLA:
		return "NP SLA"
	case ModeUncorrectedDP:
		return "UC DP SLA"
	default:
		return "Sage SLA"
	}
}

// isDP reports whether the mode adds DP noise to test statistics.
func (m Mode) isDP() bool { return m == ModeNoSLA || m == ModeUncorrectedDP || m == ModeSage }

// corrects reports whether the mode corrects bounds for DP noise impact.
func (m Mode) corrects() bool { return m == ModeSage }

// Config is shared by all SLAed validators.
type Config struct {
	// Mode selects the validation discipline (default ModeSage).
	Mode Mode
	// Eta is the failure probability (1−confidence) the paper splits η/2
	// per ACCEPT/REJECT test and η/3 per event inside a test, as
	// LossValidator does (η/6 per event). AccuracyValidator spends η/3
	// per event (η per test, 2η over both), ErrorValidator η/2 (1.5η);
	// ROADMAP direction 17(b) brings those two to the split.
	Eta float64
	// Epsilon is the (ε, 0)-DP budget the validation may spend.
	Epsilon float64
}

// Cost returns the privacy cost of running one validation: ε for the DP
// modes, zero for the non-private mode.
func (c Config) Cost() privacy.Budget {
	if c.Mode.isDP() {
		return privacy.Budget{Epsilon: c.Epsilon}
	}
	return privacy.Zero
}

// release returns one test statistic x of sensitivity s as the test
// sees it: x itself in the non-private mode, else a Laplace release at
// ε/2, which ModeSage moves by its tail at failure probability share
// toward the test's worst case (dir −1 down, +1 up; Listing 2).
func (c Config) release(x, s, share, dir float64, r *rng.RNG) float64 {
	if !c.Mode.isDP() {
		return x
	}
	mech := privacy.LaplaceMechanism{Sensitivity: s, Epsilon: c.Epsilon / 2}
	x = mech.Release(x, r)
	if c.Mode.corrects() {
		x += dir * mech.TailBound(share)
	}
	return x
}

// validate panics on out-of-range parameters.
func (c Config) validate() {
	if c.Eta <= 0 || c.Eta >= 1 {
		panic("validation: Eta must be in (0,1)")
	}
	if c.Mode.isDP() && c.Epsilon <= 0 {
		panic("validation: DP validation requires Epsilon > 0")
	}
}
