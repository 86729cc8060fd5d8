// Quickstart: enforce a global DP guarantee over a data stream, release
// a DP statistic and a DP-trained model, and watch the per-block privacy
// accounting — Sage's core loop in ~80 lines.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/stats"
)

func main() {
	r := rng.New(42)

	// A growing database of daily blocks (event-level privacy), guarded
	// by an access-control layer enforcing (εg, δg) = (1.0, 1e-6) per
	// block — and hence, by block composition, over the whole stream.
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1.0, 1e-6)})

	// Stream one week of synthetic observations: y = 2·x + noise.
	for hour := int64(0); hour < 7*24; hour++ {
		for i := 0; i < 500; i++ {
			x := r.Float64()
			ex := data.Example{
				Features: []float64{x},
				Label:    2*x + r.Normal(0, 0.05),
				Time:     hour,
			}
			for _, id := range db.Insert(ex) {
				ac.RegisterBlock(id) // new block ⇒ fresh budget
			}
		}
	}
	fmt.Printf("stream: %d examples in %d daily blocks\n", db.Size(), db.NumBlocks())

	// Release a DP statistic over the last 3 days (ε = 0.1).
	window := db.LatestBlocks(3)
	statBudget := privacy.MustBudget(0.1, 0)
	if err := ac.Request(window, statBudget); err != nil {
		panic(err)
	}
	ds := db.Read(nil, window)
	mean := stats.DPMean(ds.Labels(), 0, 2.1, statBudget.Epsilon, r)
	fmt.Printf("DP mean label over last 3 days: %.4f (ε=%.2f)\n", mean.Mean, statBudget.Epsilon)

	// Train a DP linear regression over the whole week (ε = 0.5).
	all := db.Blocks()
	trainBudget := privacy.MustBudget(0.5, 1e-6)
	if err := ac.Request(all, trainBudget); err != nil {
		panic(err)
	}
	model := ml.TrainAdaSSP(db.Read(nil, all), ml.AdaSSPConfig{
		Budget: trainBudget, Rho: 0.1, FeatureBound: 1.5, LabelBound: 2.1,
	}, r)
	fmt.Printf("DP model: y ≈ %.3f·x + %.3f (ε=%.2f, δ=%.0e)\n",
		model.Weights[0], model.Bias, trainBudget.Epsilon, trainBudget.Delta)

	// Inspect the accounting: recent blocks carry both spends, older
	// ones only the training spend; the stream-wide loss is the MAX
	// over blocks (Theorem 4.2), not the sum of queries.
	fmt.Println("\nper-block privacy loss:")
	for _, rep := range ac.Report(all) {
		fmt.Printf("  block %d: spent %v over %d queries (remaining %v)\n",
			rep.ID, rep.Loss, rep.Queries, rep.Remain)
	}
	fmt.Printf("stream-wide privacy loss: %v (ceiling %v)\n",
		ac.StreamLoss(), ac.Policy().Global)
}
