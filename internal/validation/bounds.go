// Package validation implements Sage's SLAed validators (§3.3, Listing 2,
// Appendix B): statistically rigorous ACCEPT/REJECT/RETRY tests for loss
// metrics, accuracy, and absolute errors of sum-based statistics, with
// corrections for the worst-case impact of the DP noise the tests
// themselves add.
package validation

import (
	"math"
)

// BernsteinUpperBound returns a (1−η)-confidence upper bound on the
// expected loss given an empirical mean loss over n samples, for a loss
// bounded in [0, B] (Listing 2, lines 23-25; Shalev-Shwartz & Ben-David
// Appendix B):
//
//	loss + sqrt(2·B·loss·ln(1/η)/n) + 4·B·ln(1/η)/n
func BernsteinUpperBound(loss, n, eta, b float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	if loss < 0 {
		loss = 0
	}
	logTerm := math.Log(1 / eta)
	return loss + math.Sqrt(2*b*loss*logTerm/n) + 4*b*logTerm/n
}

// HoeffdingDeviation returns t such that the empirical mean of n samples
// of a [0, B]-bounded variable deviates from its expectation by more than
// t with probability at most η (one-sided): t = B·sqrt(ln(1/η)/(2n)).
func HoeffdingDeviation(n, eta, b float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return b * math.Sqrt(math.Log(1/eta)/(2*n))
}

// lnBeta returns ln B(a, b).
func lnBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// betacf evaluates the continued fraction for the regularized incomplete
// beta function (Numerical Recipes §6.4).
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b),
// the CDF of the Beta(a, b) distribution at x.
func RegIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	ln := a*math.Log(x) + b*math.Log(1-x) - lnBeta(a, b)
	front := math.Exp(ln)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// BetaInvCDF returns the p-quantile of the Beta(a, b) distribution via
// bisection on RegIncBeta.
func BetaInvCDF(p, a, b float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if RegIncBeta(a, b, mid) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// BinomialUpper returns the Clopper–Pearson upper confidence bound on the
// success probability p of a binomial with k observed successes out of n
// draws, at confidence 1−η: the paper's Bin(k, n, η) for the accuracy
// validator (Appendix B.2).
func BinomialUpper(k, n, eta float64) float64 {
	if n <= 0 {
		return 1
	}
	if k < 0 {
		k = 0
	}
	if k >= n {
		return 1
	}
	return BetaInvCDF(1-eta, k+1, n-k)
}

// BinomialLower returns the Clopper–Pearson lower confidence bound on p,
// the paper's Bin(k, n, η).
func BinomialLower(k, n, eta float64) float64 {
	if n <= 0 {
		return 0
	}
	if k <= 0 {
		return 0
	}
	if k > n {
		k = n
	}
	return BetaInvCDF(eta, k, n-k+1)
}
