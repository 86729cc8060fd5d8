// Streaming workload: many pipelines sharing one sensitive stream under
// a global DP guarantee — block retirement, budget contention, the §5.4
// strategy comparison, and the durable platform core surviving a crash.
package main

import (
	"fmt"
	"os"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/taxi"
	"repro/internal/validation"
	"repro/internal/workload"
)

func main() {
	r := rng.New(11)

	// ---- Part 1: several pipelines against one access-controlled stream.
	stream := taxi.Pipeline(400000, 0, 24*60, 0, 0, 8)
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1.0, 1e-6)})
	retired := 0
	ac.SetRetireCallback(func(id data.BlockID) { retired++ })
	for _, id := range db.Insert(stream.Examples...) {
		ac.RegisterBlock(id)
	}
	fmt.Printf("stream: %d samples, %d daily blocks, policy %v\n",
		db.Size(), db.NumBlocks(), ac.Policy().Global)

	// Three teams push models with different targets; each runs
	// privacy-adaptive training through the shared access control.
	for i, target := range []float64{0.0095, 0.0085, 0.0080} {
		pipe := &pipeline.Pipeline{
			Name:    fmt.Sprintf("taxi-lr-%d", i),
			Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
			Validator: pipeline.MSEValidator{
				Target: target, B: 1,
				ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
			},
			Mode: validation.ModeSage,
		}
		st := &adaptive.StreamTrainer{
			AC: ac, DB: db, Pipe: pipe,
			Epsilon0: 0.125, EpsilonCap: 0.5, Delta: 1e-8, MinWindow: 30,
		}
		res, err := st.Run(r)
		if err != nil {
			// Budget contention is expected: a blocked pipeline waits
			// for fresh blocks rather than violating the guarantee.
			fmt.Printf("pipeline %d (target %.4f): blocked — %v\n", i, target, err)
			continue
		}
		fmt.Printf("pipeline %d (target %.4f): %v — %d samples, budget %v\n",
			i, target, res.Decision, res.Samples, res.FinalBudget)
	}
	fmt.Printf("stream loss after 3 pipelines: %v; retired blocks: %d\n\n",
		ac.StreamLoss(), retired)

	// ---- Part 2: the §5.4 strategy comparison (Fig. 8 in miniature).
	fmt.Println("strategy comparison at 0.5 pipelines/hour (16K-point hourly blocks):")
	for _, strat := range []workload.Strategy{
		workload.StreamingComposition,
		workload.QueryComposition,
		workload.BlockAggressive,
		workload.BlockConserve,
	} {
		st := workload.Run(workload.Config{
			Strategy: strat, EpsG: 1.0, BlockSize: 16000,
			ArrivalRate: 0.5, Hours: 800, Seed: 21,
		})
		fmt.Printf("  %-24s release=%6.1fh released=%d/%d ε/model=%.3f\n",
			strat, st.AvgReleaseTime, st.Released, st.Arrived, st.AvgBudgetSpent)
	}

	// ---- Part 3: the durable platform core. The same accounting, but
	// write-ahead-logged: journal every grant, "crash" (abandon the
	// process state without any shutdown), recover from the log, and
	// watch the ledger come back exactly — spend is journaled before it
	// is acknowledged, so a crash can never lose privacy spend.
	fmt.Println("\ndurable ledger across a crash:")
	walDir, err := os.MkdirTemp("", "sage-wal-demo")
	if err != nil {
		fmt.Println("  skipped:", err)
		return
	}
	defer os.RemoveAll(walDir)
	policy := core.Policy{Global: privacy.MustBudget(1.0, 1e-6)}
	plat, _, err := durable.Open(walDir, policy, durable.Options{})
	if err != nil {
		fmt.Println("  skipped:", err)
		return
	}
	for id := data.BlockID(0); id < 4; id++ {
		plat.AC.RegisterBlock(id)
	}
	_ = plat.AC.Request([]data.BlockID{0, 1, 2, 3}, privacy.MustBudget(0.25, 1e-8))
	_ = plat.AC.Refund([]data.BlockID{3}, privacy.MustBudget(0.1, 0))
	fmt.Printf("  before crash: stream loss %v over %d blocks\n",
		plat.AC.StreamLoss(), plat.AC.NumBlocks())
	// Crash: no Close, no compaction — the WAL is all that survives.

	recovered, stats, err := durable.Open(walDir, policy, durable.Options{})
	if err != nil {
		fmt.Println("  recovery failed:", err)
		return
	}
	defer recovered.Close()
	fmt.Printf("  recovered:    stream loss %v over %d blocks (%d journal records replayed)\n",
		recovered.AC.StreamLoss(), recovered.AC.NumBlocks(), stats.Ledger.Records)
	fmt.Printf("  ledger identical: %v — no spend lost, guarantee intact\n",
		recovered.AC.StreamLoss() == plat.AC.StreamLoss())
}
