// Package pipeline implements Sage's (ε, δ)-DP training pipelines
// (Fig. 2, §3.1): the TFX-like Preprocess → Train → Validate structure
// where the pipeline's privacy parameters, assigned by Sage at runtime,
// are split across the stages (ε/3 each when all three stages consume
// budget), and validation is one of the SLAed validators of §3.3.
//
// A run walks its data as few times as its decision needs: the split
// partitions the run's dataset in place and hands both halves over in
// storage order (data.Dataset.Split), and the validators fit the
// empirical risk minimizer — a second pass over the training half —
// only once ACCEPT has failed, because the REJECT test is all the ERM
// is for.
package pipeline

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/validation"
)

// Trainer trains a model under a DP budget. Implementations wrap the ML
// substrate's DP algorithms (AdaSSP, DP-SGD) or their non-private
// counterparts (budget ignored). A model keeps parameters, never ds's
// Examples slice: the daemon reads every attempt into one reused window
// (adaptive.StreamTrainer), which the next attempt overwrites.
type Trainer interface {
	// Train returns a model trained on ds within budget b.
	Train(ds *data.Dataset, b privacy.Budget, r *rng.RNG) ml.Model
	// IsDP reports whether training consumes privacy budget.
	IsDP() bool
}

// Validator wraps an SLAed validator for a concrete quality metric. It
// receives the test set, and optionally the training set for REJECT
// tests that need the empirical risk minimizer. Like a Trainer's, the
// models it fits keep no Examples slice of either set, which are views
// of a reused window.
type Validator interface {
	// Validate returns the decision and the DP estimate of the quality
	// metric (for reporting).
	Validate(m ml.Model, test, train *data.Dataset, cfg validation.Config, r *rng.RNG) (validation.Decision, float64)
}

// Pipeline is one (ε, δ)-DP training pipeline.
type Pipeline struct {
	// Name identifies the pipeline ("taxi-lr", "criteo-nn", ...).
	Name string
	// Trainer is the (DP) training stage.
	Trainer Trainer
	// Validator is the SLAed validation stage.
	Validator Validator
	// Mode selects the validation discipline (Table 2 columns);
	// defaults to ModeSage.
	Mode validation.Mode
	// Eta is the validator's total failure probability (default 0.05).
	Eta float64
	// TrainFrac is the train::test split (default 0.9, the paper's).
	TrainFrac float64
	// Preprocess optionally transforms the dataset with a DP budget
	// (e.g. Listing 1's dp_group_by_mean). Nil means no preprocessing
	// stage, in which case ε splits between training and validation
	// only.
	Preprocess func(ds *data.Dataset, epsilon float64, r *rng.RNG) *data.Dataset
}

// Result is the outcome of one pipeline run.
type Result struct {
	Model    ml.Model
	Decision validation.Decision
	// Quality is the DP estimate of the metric computed during
	// validation (an MSE or an accuracy; direction depends on the
	// validator).
	Quality float64
	// Spent is the privacy budget actually consumed.
	Spent privacy.Budget
	// TrainSize and TestSize record the split sizes.
	TrainSize, TestSize int
}

// Run executes the pipeline on ds within budget. The ε split follows
// Fig. 2: with a preprocessing stage each of the three stages gets ε/3;
// without one, training and validation each get ε/2. δ goes entirely to
// training (the validators are (ε, 0)-DP). Non-DP trainers leave the
// training share unspent.
//
// Run reorders the dataset it is handed — or the one Preprocess returns
// — because its split partitions in place (data.Dataset.Split): a caller
// that shares ds with anyone hands Run its own copy (Dataset.Clone).
func (p *Pipeline) Run(ds *data.Dataset, budget privacy.Budget, r *rng.RNG) (Result, error) {
	if p.Trainer == nil || p.Validator == nil {
		return Result{}, fmt.Errorf("pipeline %q: missing trainer or validator", p.Name)
	}
	if err := budget.Validate(); err != nil {
		return Result{}, err
	}
	eta := p.Eta
	if eta == 0 {
		eta = 0.05
	}
	trainFrac := p.TrainFrac
	if trainFrac == 0 {
		trainFrac = 0.9
	}

	stages := 2.0
	if p.Preprocess != nil {
		stages = 3.0
	}
	epsShare := budget.Epsilon / stages

	spent := privacy.Zero
	work := ds
	if p.Preprocess != nil {
		work = p.Preprocess(ds, epsShare, r)
		spent = spent.Add(privacy.Budget{Epsilon: epsShare})
	}

	train, test := work.Split(trainFrac, r)

	trainBudget := privacy.Budget{Epsilon: epsShare, Delta: budget.Delta}
	model := p.Trainer.Train(train, trainBudget, r)
	if p.Trainer.IsDP() {
		spent = spent.Add(trainBudget)
	}

	cfg := validation.Config{Mode: p.Mode, Eta: eta, Epsilon: epsShare}
	decision, quality := p.Validator.Validate(model, test, train, cfg, r)
	spent = spent.Add(cfg.Cost())

	return Result{
		Model:     model,
		Decision:  decision,
		Quality:   quality,
		Spent:     spent,
		TrainSize: train.Len(),
		TestSize:  test.Len(),
	}, nil
}
