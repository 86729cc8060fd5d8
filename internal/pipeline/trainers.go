package pipeline

import (
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
)

// AdaSSPTrainer trains DP linear regression (Table 1's Taxi LR pipeline:
// AdaSSP with ρ = 0.1).
type AdaSSPTrainer struct {
	Rho          float64 // regularization failure probability (paper: 0.1)
	FeatureBound float64 // L2 bound on feature vectors
	LabelBound   float64 // bound on |label|
}

// Train implements Trainer.
func (t AdaSSPTrainer) Train(ds *data.Dataset, b privacy.Budget, r *rng.RNG) ml.Model {
	cfg := ml.AdaSSPConfig{
		Budget:       b,
		Rho:          t.Rho,
		FeatureBound: t.FeatureBound,
		LabelBound:   t.LabelBound,
	}
	return ml.TrainAdaSSP(ds, cfg, r)
}

// IsDP implements Trainer.
func (AdaSSPTrainer) IsDP() bool { return true }

// RidgeTrainer is the non-private linear regression baseline (Fig. 5's
// "LR NP"). The budget is ignored.
type RidgeTrainer struct {
	Lambda float64
}

// Train implements Trainer.
func (t RidgeTrainer) Train(ds *data.Dataset, _ privacy.Budget, _ *rng.RNG) ml.Model {
	return ml.TrainRidge(ds, ml.RidgeConfig{Lambda: t.Lambda})
}

// IsDP implements Trainer.
func (RidgeTrainer) IsDP() bool { return false }

// ModelKind selects the architecture an SGDTrainer builds.
type ModelKind int

const (
	// KindLogistic is logistic regression (Criteo LG).
	KindLogistic ModelKind = iota
	// KindLinear is an SGD-trained linear regressor.
	KindLinear
	// KindMLPRegression is an MLP with a regression head (Taxi NN).
	KindMLPRegression
	// KindMLPClassification is an MLP with a sigmoid head (Criteo NN).
	KindMLPClassification
)

// SGDTrainer trains SGD-based models, with or without DP (Table 1's
// DP SGD pipelines: Taxi NN, Criteo LG, Criteo NN).
type SGDTrainer struct {
	Kind   ModelKind
	Dim    int   // feature dimensionality
	Hidden []int // hidden layer widths for MLP kinds

	LearningRate float64
	Momentum     float64
	Epochs       int
	BatchSize    int

	DP       bool
	ClipNorm float64
	// InitSeed seeds model initialization so runs are reproducible.
	InitSeed uint64
}

// build constructs the zero/He-initialized model.
func (t SGDTrainer) build() ml.GradModel {
	switch t.Kind {
	case KindLogistic:
		return ml.NewLogisticRegression(t.Dim)
	case KindLinear:
		return ml.NewSGDLinearRegression(t.Dim)
	case KindMLPRegression:
		return ml.NewMLP(ml.Regression, t.Dim, t.Hidden, rng.New(t.InitSeed))
	default:
		return ml.NewMLP(ml.BinaryClassification, t.Dim, t.Hidden, rng.New(t.InitSeed))
	}
}

// Train implements Trainer.
func (t SGDTrainer) Train(ds *data.Dataset, b privacy.Budget, r *rng.RNG) ml.Model {
	cfg := ml.SGDConfig{
		LearningRate: t.LearningRate,
		Momentum:     t.Momentum,
		Epochs:       t.Epochs,
		BatchSize:    t.BatchSize,
	}
	if t.DP {
		cfg.DP = true
		cfg.ClipNorm = t.ClipNorm
		cfg.Budget = b
	}
	model := t.build()
	if ds.Len() == 0 {
		return model
	}
	return ml.TrainSGD(model, ds, cfg, r)
}

// IsDP implements Trainer.
func (t SGDTrainer) IsDP() bool { return t.DP }
