package sage_test

// The CI-gated figure bench (Fig. 7, BENCH_optimized.json), ablation
// benches for the paper's design choices (block composition's
// arithmetic, §5.4's budget strategy, …) and micro-benchmarks for the
// hot substrate paths. The paper's other
// tables and figures are timed, with output-hash checks, by bench/'s
// exp-sweep workload; cmd/sage-experiments runs them at full scale.

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/criteo"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/ml"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/taxi"
	"repro/internal/validation"
	"repro/internal/workload"
)

// --- Fig. 7: block vs query composition --------------------------------

func BenchmarkFig7BlockVsQuery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := experiments.Fig7Options{
			Sizes:        []int{20000, 80000},
			LRBlockSizes: []int{10000},
			Targets:      []float64{0.007},
			MaxStream:    160000,
			Holdout:      20000,
			SkipNN:       true,
			Seed:         uint64(400 + i),
		}
		experiments.PrintFig7(io.Discard, experiments.Fig7Quality(o), experiments.Fig7Accept(o))
	}
}

// --- Ablations ----------------------------------------------------------

// BenchmarkAblationComposition compares how many ε=0.02 queries one
// block under (1, 1e-6) affords with basic composition — what the ledger
// enforces (Theorem 4.3) — and with the strong bounds of Appendix A
// (Theorems A.1 and A.2). As a block would, each strong variant charges
// the tighter of its bound and basic composition's Σ, and admits a
// query while the ceiling Covers the loss with it.
func BenchmarkAblationComposition(b *testing.B) {
	compose := map[string]func([]privacy.Budget) privacy.Budget{
		"basic": nil,
		"strong": func(spends []privacy.Budget) privacy.Budget {
			return privacy.StrongCompose(spends, 5e-7)
		},
		"adaptive-strong": func(spends []privacy.Budget) privacy.Budget {
			return privacy.AdaptiveStrongCompose(spends, 1, 5e-7)
		},
	}
	ceiling := privacy.MustBudget(1, 1e-6)
	small := privacy.MustBudget(0.02, 1e-9)
	for name, strong := range compose {
		b.Run(name, func(b *testing.B) {
			queries := 0
			for i := 0; i < b.N; i++ {
				var spends []privacy.Budget
				basic := privacy.Zero
				for len(spends) < 5000 {
					next := append(spends, small)
					sum := basic.Add(small)
					loss := sum
					if strong != nil {
						if s := strong(next); s.Epsilon < sum.Epsilon {
							loss = s
						}
					}
					if !ceiling.Covers(loss) {
						break
					}
					spends, basic = next, sum
				}
				queries = len(spends)
			}
			b.ReportMetric(float64(queries), "queries/block")
		})
	}
}

// BenchmarkAblationBudgetStrategy isolates the §5.4 conserve-vs-
// aggressive choice at high load.
func BenchmarkAblationBudgetStrategy(b *testing.B) {
	for _, strat := range []workload.Strategy{workload.BlockConserve, workload.BlockAggressive} {
		b.Run(strat.String(), func(b *testing.B) {
			var rel float64
			for i := 0; i < b.N; i++ {
				st := workload.Run(workload.Config{
					Strategy: strat, EpsG: 1, BlockSize: 16000,
					ArrivalRate: 0.7, Hours: 500, Seed: uint64(600 + i),
				})
				rel = st.AvgReleaseTime
			}
			b.ReportMetric(rel, "hours/release")
		})
	}
}

// BenchmarkAblationUserBlocks compares time-keyed (event-level) against
// user-keyed (user-level, §4.4) block partitioning on insert+read.
func BenchmarkAblationUserBlocks(b *testing.B) {
	stream := taxi.Pipeline(20000, 0, 24*14, 0, 0, 9)
	parts := map[string]data.Partitioner{
		"time/24": data.TimePartitioner{Window: 24},
		"user":    data.UserPartitioner{},
	}
	for name, part := range parts {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db := data.NewGrowingDatabase(part)
				db.Insert(stream.Examples...)
				_ = db.Read(nil, db.Blocks())
			}
		})
	}
}

// --- Micro-benchmarks on the substrate hot paths -----------------------

func BenchmarkLaplaceMechanism(b *testing.B) {
	r := rng.New(1)
	m := privacy.LaplaceMechanism{Sensitivity: 1, Epsilon: 0.5}
	for i := 0; i < b.N; i++ {
		_ = m.Release(float64(i), r)
	}
}

func BenchmarkRDPAccountantEpsilon(b *testing.B) {
	acct := privacy.NewRDPAccountant()
	acct.AddSampledGaussianSteps(0.01, 1.1, 1000)
	for i := 0; i < b.N; i++ {
		_ = acct.Epsilon(1e-6)
	}
}

func BenchmarkBlockAccountingRequest(b *testing.B) {
	ac := core.NewAccessControl(core.Policy{Global: privacy.MustBudget(1e9, 1)})
	ids := make([]data.BlockID, 30)
	for i := range ids {
		ids[i] = data.BlockID(i)
		ac.RegisterBlock(ids[i])
	}
	req := privacy.MustBudget(0.001, 1e-12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ac.Request(ids, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdaSSPTrain(b *testing.B) {
	ds := taxi.Pipeline(20000, 0, 24*7, 0, 0, 10)
	cfg := ml.AdaSSPConfig{
		Budget: privacy.MustBudget(1, 1e-6),
		Rho:    0.1, FeatureBound: 2.5, LabelBound: 1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ml.TrainAdaSSP(ds, cfg, rng.New(uint64(i)))
	}
}

func BenchmarkDPSGDEpoch(b *testing.B) {
	ds := taxi.Pipeline(5000, 0, 24*7, 0, 0, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ml.NewGLM(ml.Regression, taxi.FeatureDim)
		ml.TrainSGD(m, ds, ml.SGDConfig{
			LearningRate: 0.05, Epochs: 1, BatchSize: 256,
			DP: true, ClipNorm: 1, Budget: privacy.MustBudget(1, 1e-6),
		}, rng.New(uint64(i)))
	}
}

// BenchmarkDPSGDEpochLogistic is one DP-SGD epoch at Criteo's width, the
// Tab. 2 straggler's inner loop: 169-wide rows make the per-example
// gradient work dominate, where BenchmarkDPSGDEpoch's 48-wide epoch is
// mostly noise draws.
func BenchmarkDPSGDEpochLogistic(b *testing.B) {
	ds := criteo.Pipeline(20000, 0, 24*14, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ml.NewGLM(ml.BinaryClassification, criteo.FeatureDim)
		ml.TrainSGD(m, ds, ml.SGDConfig{
			LearningRate: 0.1, Epochs: 1, BatchSize: 512,
			DP: true, ClipNorm: 1, Budget: privacy.MustBudget(1, 1e-6),
		}, rng.New(uint64(i)))
	}
}

// BenchmarkDPSGDEpochMLP is one DP-SGD epoch of the paper's NN
// pipelines' model (Table 1: ReLU, hidden layers of 64 and 32) over
// 5000 rows at each dataset's width, Fig. 6's critical path: per example,
// a forward pass, backprop and the clipped outer products over the
// row's non-zero inputs.
func BenchmarkDPSGDEpochMLP(b *testing.B) {
	for _, c := range []struct {
		name string
		kind ml.OutputKind
		ds   *data.Dataset
	}{
		{"taxi", ml.Regression, taxi.Pipeline(5000, 0, 24*7, 0, 0, 11)},
		{"criteo", ml.BinaryClassification, criteo.Pipeline(5000, 0, 24*14, 11)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := ml.NewMLP(c.kind, c.ds.FeatureDim(), []int{64, 32}, rng.New(13))
				ml.TrainSGD(m, c.ds, ml.SGDConfig{
					LearningRate: 0.01, Momentum: 0.9, Epochs: 1, BatchSize: 256,
					DP: true, ClipNorm: 1, Budget: privacy.MustBudget(1, 1e-6),
				}, rng.New(uint64(i)))
			}
		})
	}
}

// BenchmarkFeaturize times what stands between a generated stream of
// rides and a trainable dataset — the Appendix C filter, the hour_speed
// table and the featurizer — on rides generated once, through the
// wrappers the examples and the harness call. The serial prefix of every
// experiment cell is BenchmarkIngest.
func BenchmarkFeaturize(b *testing.B) {
	b.Run("taxi", func(b *testing.B) {
		rides := taxi.NewGenerator(taxi.Config{OutlierFraction: 0.02}, 14).Generate(40000, 0, 24*14)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clean, _ := taxi.Clean(rides)
			_ = taxi.Featurize(clean, taxi.SpeedByHour(clean, 0, nil))
		}
	})
}

// BenchmarkIngest times the serial prefix of every experiment cell and
// the daemon's per-tick ingest: 40000 rows generated, filtered (taxi)
// and featurized in one pass, one row at a time. The taxi examples go
// into one buffer reused across iterations, as the daemon ingests block
// after block into one of its own.
func BenchmarkIngest(b *testing.B) {
	b.Run("taxi", func(b *testing.B) {
		b.ReportAllocs()
		var buf []data.Example
		for i := 0; i < b.N; i++ {
			ds, _ := taxi.Ingest(buf, taxi.NewGenerator(taxi.Config{OutlierFraction: 0.02}, 14), 40000, 0, 24*14, 0, nil)
			buf = ds.Examples
		}
	})
	b.Run("criteo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = criteo.Pipeline(40000, 0, 24*14, 15)
		}
	})
}

func BenchmarkLossValidatorAccept(b *testing.B) {
	losses := make([]float64, 100000)
	for i := range losses {
		losses[i] = 0.003
	}
	v := validation.LossValidator{
		Config: validation.Config{Mode: validation.ModeSage, Eta: 0.05, Epsilon: 0.5},
		Target: 0.005, B: 1,
	}
	r := rng.New(12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Accept(losses, r)
	}
}

func BenchmarkTaxiGenerate(b *testing.B) {
	gen := taxi.NewGenerator(taxi.Config{}, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Generate(10000, 0, 24)
	}
	// Each op generates 10000 examples (not bytes — SetBytes would
	// render a bogus MB/s column); report the rate explicitly.
	b.ReportMetric(10000, "examples/op")
	b.ReportMetric(10000*float64(b.N)/b.Elapsed().Seconds(), "examples/s")
}
