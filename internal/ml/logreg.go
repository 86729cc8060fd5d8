package ml

import (
	"math"

	"repro/internal/linalg"
)

// LogisticRegression is a binary classifier p(y=1|x) = σ(w·x + b),
// trained with (DP-)SGD on the log loss — the paper's "LG" pipeline on
// Criteo (Table 1).
type LogisticRegression struct {
	dim    int
	params []float64 // weights then bias
}

// NewLogisticRegression returns a zero-initialized model for the given
// feature dimension.
func NewLogisticRegression(dim int) *LogisticRegression {
	return &LogisticRegression{dim: dim, params: make([]float64, dim+1)}
}

// Predict implements Model, returning the positive-class probability.
func (m *LogisticRegression) Predict(x []float64) float64 {
	return Sigmoid(linalg.Dot(m.params[:m.dim], x) + m.params[m.dim])
}

// PredictBatch implements Model: weights and bias are sliced
// out of the parameter vector once per batch.
func (m *LogisticRegression) PredictBatch(rows [][]float64, out []float64) {
	w, b := m.params[:m.dim], m.params[m.dim]
	for i, x := range rows {
		out[i] = Sigmoid(linalg.Dot(w, x) + b)
	}
}

// Params implements GradModel.
func (m *LogisticRegression) Params() []float64 { return m.params }

// Dim returns the feature dimensionality.
func (m *LogisticRegression) Dim() int { return m.dim }

// addGrad implements GradModel: ∂logloss/∂w = (p − y)·x, ∂/∂b = (p − y),
// so the gradient is (p − y)·[x; 1].
func (m *LogisticRegression) addGrad(sum, x []float64, y, clip float64) {
	dot, sqNorm := dotSqNorm(m.params[:m.dim], x)
	addRankOne(sum, x, Sigmoid(dot+m.params[m.dim])-y, sqNorm, clip)
}

// SGDLinearRegression is a linear regressor trained by (DP-)SGD on the
// squared loss. The paper's Taxi NN comparisons also use SGD-trained
// linear baselines when closed-form training is not applicable.
type SGDLinearRegression struct {
	dim    int
	params []float64 // weights then bias
}

// NewSGDLinearRegression returns a zero-initialized model.
func NewSGDLinearRegression(dim int) *SGDLinearRegression {
	return &SGDLinearRegression{dim: dim, params: make([]float64, dim+1)}
}

// Predict implements Model.
func (m *SGDLinearRegression) Predict(x []float64) float64 {
	return linalg.Dot(m.params[:m.dim], x) + m.params[m.dim]
}

// PredictBatch implements Model.
func (m *SGDLinearRegression) PredictBatch(rows [][]float64, out []float64) {
	w, b := m.params[:m.dim], m.params[m.dim]
	for i, x := range rows {
		out[i] = linalg.Dot(w, x) + b
	}
}

// Params implements GradModel.
func (m *SGDLinearRegression) Params() []float64 { return m.params }

// Dim returns the feature dimensionality.
func (m *SGDLinearRegression) Dim() int { return m.dim }

// addGrad implements GradModel: ∂(pred−y)²/∂w = 2(pred−y)·x, so the
// gradient is 2(pred − y)·[x; 1].
func (m *SGDLinearRegression) addGrad(sum, x []float64, y, clip float64) {
	dot, sqNorm := dotSqNorm(m.params[:m.dim], x)
	addRankOne(sum, x, 2*(dot+m.params[m.dim]-y), sqNorm, clip)
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

// addRankOne is the linear models' addGrad once they have the
// coefficient: their per-example gradient is g = coef·[x; 1], so
// ‖g‖ = |coef|·√(‖x‖² + 1) and clipping g to the bound is scaling coef
// by bound/‖g‖ — the same vector, the same bound, hence the same
// sensitivity — and the sum takes one axpy: two passes over x.
func addRankOne(sum, x []float64, coef, sqNorm, clip float64) {
	if clip > 0 {
		if norm := math.Abs(coef) * math.Sqrt(sqNorm+1); norm > clip {
			coef *= clip / norm
		}
	}
	// AXPY panics on a row that is not the model's width.
	bias := len(sum) - 1
	linalg.AXPY(coef, x, sum[:bias])
	sum[bias] += coef
}
