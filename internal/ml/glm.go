package ml

import (
	"math"

	"repro/internal/linalg"
)

// GLM is a linear model z = w·x + b under one of the MLP's heads,
// trained with (DP-)SGD: Regression predicts z and takes the squared
// loss, BinaryClassification predicts σ(z) and takes the log loss
// (logistic regression, the paper's "LG" pipeline on Criteo, Table 1).
type GLM struct {
	kind   OutputKind
	dim    int
	params []float64 // weights then bias
}

// NewGLM returns a zero-initialized model of the given head and feature
// dimension.
func NewGLM(kind OutputKind, dim int) *GLM {
	return &GLM{kind: kind, dim: dim, params: make([]float64, dim+1)}
}

// NewSGDLinearRegression returns NewGLM(Regression, dim). It stays for
// the repo benchmark (bench/), which trains one.
func NewSGDLinearRegression(dim int) *GLM { return NewGLM(Regression, dim) }

// Kind returns the output head kind.
func (m *GLM) Kind() OutputKind { return m.kind }

// Dim returns the feature dimensionality.
func (m *GLM) Dim() int { return m.dim }

// Params implements GradModel.
func (m *GLM) Params() []float64 { return m.params }

// Predict implements Model.
func (m *GLM) Predict(x []float64) float64 {
	return m.kind.head(linalg.Dot(m.params[:m.dim], x) + m.params[m.dim])
}

// PredictBatch implements Model: weights and bias are sliced
// out of the parameter vector once per batch.
func (m *GLM) PredictBatch(rows [][]float64, out []float64) {
	w, b := m.params[:m.dim], m.params[m.dim]
	for i, x := range rows {
		out[i] = m.kind.head(linalg.Dot(w, x) + b)
	}
}

// addGrad implements GradModel. The per-example gradient is
// g = coef·[x; 1], with coef = 2(z − y) for the squared loss and
// σ(z) − y for the log loss. So ‖g‖ = |coef|·√(‖x‖² + 1), and clipping
// g to the bound is scaling coef by bound/‖g‖ — the same vector, the
// same bound, hence the same sensitivity — and the sum takes one axpy:
// two passes over x.
func (m *GLM) addGrad(sum, x []float64, y, clip float64) {
	dot, sqNorm := dotSqNorm(m.params[:m.dim], x)
	z := dot + m.params[m.dim]
	coef := 2 * (z - y)
	if m.kind == BinaryClassification {
		coef = Sigmoid(z) - y
	}
	if clip > 0 {
		if norm := math.Abs(coef) * math.Sqrt(sqNorm+1); norm > clip {
			coef *= clip / norm
		}
	}
	// AXPY panics on a row that is not the model's width.
	linalg.AXPY(coef, x, sum[:m.dim])
	sum[m.dim] += coef
}

// dotSqNorm returns w·x and ‖x‖² from one pass over x. The two sums are
// independent chains, so the second rides in the first's latency; w·x
// accumulates in linalg.Dot's order and is bit-identical to it, which
// keeps a linear model's gradient coefficient the one Predict gives.
func dotSqNorm(w, x []float64) (dot, sqNorm float64) {
	for i, xi := range x {
		dot += w[i] * xi
		sqNorm += xi * xi
	}
	return dot, sqNorm
}
