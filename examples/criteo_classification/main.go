// Criteo classification: DP-SGD logistic regression on the synthetic
// ad-click stream with Clopper–Pearson SLAed accuracy validation — the
// paper's Criteo LG pipeline (Table 1).
package main

import (
	"errors"
	"fmt"

	"repro/internal/adaptive"
	"repro/internal/criteo"
	"repro/internal/ml"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/validation"
)

func main() {
	const (
		streamSize = 1200000
		accTarget  = 0.75
	)

	// Synthetic Criteo-like impressions: 13 numeric + 26 categorical
	// features, CTR ≈ 25.7% so the majority baseline scores ≈ 74.3%.
	stream := criteo.Pipeline(streamSize, 0, 24*14, 3)
	naive := ml.Accuracy(ml.NaiveMajorityModel(stream), stream)
	fmt.Printf("stream: %d impressions, CTR %.3f, naive accuracy %.4f\n",
		stream.Len(), stream.MeanLabel(), naive)

	// The DP pipeline: DP-SGD logistic regression (per-example clipping
	// + Gaussian noise calibrated by the RDP accountant), validated
	// against the accuracy target with binomial confidence bounds.
	pipe := &pipeline.Pipeline{
		Name: "criteo-lg",
		Trainer: pipeline.SGDTrainer{
			Kind: pipeline.KindLogistic, Dim: criteo.FeatureDim,
			LearningRate: 0.1, Epochs: 3, BatchSize: 512,
			DP: true, ClipNorm: 1, InitSeed: 4,
		},
		Validator: pipeline.AccuracyValidator{Target: accTarget},
		Mode:      validation.ModeSage,
	}

	// Privacy-adaptive training: doubling budget then data until the
	// SLAed validator ACCEPTs.
	search := adaptive.Search{
		Pipe:       pipe,
		Epsilon0:   0.125,
		EpsilonCap: 1.0,
		Delta:      1e-6,
		MinSamples: 100000,
	}
	res, err := search.Run(stream, rng.New(5))
	if err != nil && !errors.Is(err, adaptive.ErrInsufficientBudget) {
		panic(err)
	}
	fmt.Printf("\ndecision: %v after %d iterations\n", res.Decision, res.Iterations)
	if err != nil {
		fmt.Printf("  %v\n", err)
	}
	fmt.Printf("  samples: %d, final budget %v, total spent %v\n",
		res.Samples, res.FinalBudget, res.TotalSpent)
	fmt.Printf("  DP-estimated accuracy: %.4f (target %.2f)\n", res.Quality, accTarget)
	if res.Decision == validation.Accept {
		holdout := criteo.Pipeline(100000, 0, 24, 99)
		fmt.Printf("  held-out accuracy: %.4f — the SLA held\n", ml.Accuracy(res.Model, holdout))
	}
}
