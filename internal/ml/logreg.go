package ml

import (
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

// PredictBatch implements BatchPredictor: weights and bias are sliced
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

// Grad implements GradModel: ∂logloss/∂w = (p − y)·x, ∂/∂b = (p − y).
func (m *LogisticRegression) Grad(x []float64, y float64, out []float64) {
	p := m.Predict(x)
	diff := p - y
	for i := 0; i < m.dim; i++ {
		out[i] = diff * x[i]
	}
	out[m.dim] = diff
}

// gradCoef implements rankOne: the gradient above is (p − y)·[x; 1].
func (m *LogisticRegression) gradCoef(x []float64, y float64) (coef, sqNorm float64) {
	dot, sqNorm := dotSqNorm(m.params[:m.dim], x)
	return Sigmoid(dot+m.params[m.dim]) - y, sqNorm
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

// PredictBatch implements BatchPredictor.
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

// Grad implements GradModel: ∂(pred−y)²/∂w = 2(pred−y)·x.
func (m *SGDLinearRegression) Grad(x []float64, y float64, out []float64) {
	diff := 2 * (m.Predict(x) - y)
	for i := 0; i < m.dim; i++ {
		out[i] = diff * x[i]
	}
	out[m.dim] = diff
}

// gradCoef implements rankOne: the gradient above is 2(pred − y)·[x; 1].
func (m *SGDLinearRegression) gradCoef(x []float64, y float64) (coef, sqNorm float64) {
	dot, sqNorm := dotSqNorm(m.params[:m.dim], x)
	return 2 * (dot + m.params[m.dim] - y), sqNorm
}
