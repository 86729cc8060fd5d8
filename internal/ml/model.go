// Package ml implements the ML substrate Sage's pipelines train: linear
// regression (closed-form ridge and the AdaSSP DP mechanism of Wang 2018),
// logistic regression and multi-layer perceptrons trained with SGD or
// DP-SGD (per-example gradient clipping + Gaussian noise, Abadi et al.
// 2016), plus the naïve baselines the paper anchors its quality targets
// on (predict-the-mean for regression, majority class for classification).
package ml

import (
	"math"

	"repro/internal/data"
)

// Model produces a scalar prediction from a feature vector. For
// regression the prediction is the value; for binary classification it is
// the probability of the positive class. PredictBatch writes one
// prediction per row into out (len(out) == len(rows)), bit-identical to
// Predict on each row, with per-call set-up hoisted out of the row loop.
// Every Model is safe for concurrent Predict and PredictBatch calls, so
// one instance serves any number of goroutines.
type Model interface {
	Predict(features []float64) float64
	PredictBatch(rows [][]float64, out []float64)
}

// GradModel is a parametric model the SGD trainer can train. Params
// returns the flat, mutable parameter vector. addGrad is DP-SGD's
// per-example step: it adds the gradient of the loss on (x, y) to sum
// (len(sum) == len(Params())), scaled first to L2 norm clip when
// clip > 0 and the gradient's norm exceeds it. Each model forms its
// gradient its own way and writes nothing but sum, so no gradient
// buffer exists.
type GradModel interface {
	Model
	Params() []float64
	addGrad(sum, x []float64, y, clip float64)
}

// PredictBatch evaluates m on every row; out must have len(rows)
// entries.
func PredictBatch(m Model, rows [][]float64, out []float64) {
	if len(out) != len(rows) {
		panic("ml: PredictBatch output length mismatch")
	}
	m.PredictBatch(rows, out)
}

// MSE returns the mean squared error of the model on the dataset
// (the paper's Taxi regression metric). It returns 0 on empty data.
func MSE(m Model, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	sum := 0.0
	for _, ex := range ds.Examples {
		d := m.Predict(ex.Features) - ex.Label
		sum += d * d
	}
	return sum / float64(ds.Len())
}

// Accuracy returns the fraction of examples whose thresholded prediction
// (p >= 0.5) matches the binary label (the paper's Criteo metric).
func Accuracy(m Model, ds *data.Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	return float64(CountCorrect(m, ds)) / float64(ds.Len())
}

// CountCorrect returns the number of examples whose thresholded
// prediction (p >= 0.5) matches the binary label.
func CountCorrect(m Model, ds *data.Dataset) int {
	correct := 0
	for _, ex := range ds.Examples {
		pred := 0.0
		if m.Predict(ex.Features) >= 0.5 {
			pred = 1
		}
		if pred == ex.Label {
			correct++
		}
	}
	return correct
}

// ConstantModel predicts a fixed value regardless of features. The
// paper's naïve baselines are constant models: the Taxi baseline predicts
// the mean duration (MSE 0.0069), the Criteo baseline predicts the
// majority class (accuracy 74.3%).
type ConstantModel struct{ Value float64 }

// Predict implements Model.
func (c ConstantModel) Predict([]float64) float64 { return c.Value }

// PredictBatch implements Model.
func (c ConstantModel) PredictBatch(rows [][]float64, out []float64) {
	for i := range rows {
		out[i] = c.Value
	}
}

// NaiveMeanModel returns the constant model predicting the dataset's mean
// label.
func NaiveMeanModel(ds *data.Dataset) ConstantModel {
	return ConstantModel{Value: ds.MeanLabel()}
}

// NaiveMajorityModel returns the constant model predicting the majority
// binary class (as a probability of exactly 0 or 1).
func NaiveMajorityModel(ds *data.Dataset) ConstantModel {
	if ds.MeanLabel() >= 0.5 {
		return ConstantModel{Value: 1}
	}
	return ConstantModel{Value: 0}
}

// Sigmoid returns the logistic function 1/(1+e^{-z}).
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}
