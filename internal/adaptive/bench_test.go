package adaptive

import (
	"testing"

	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/taxi"
)

// BenchmarkStreamIteration is one iteration of the privacy-adaptive
// search as the daemon's train phase runs it: Read the newest six blocks
// out of a long-lived GrowingDatabase into a buffer reused across
// iterations, as a StreamTrainer's own window is, then one pipeline run
// (split, AdaSSP, SLAed MSE validation with its ridge ERM). The database is
// filled block by block the way daemon.ingestBlock fills it — 48 blocks
// of 6000 taxi rows, one generate → clean → featurize → Insert per block
// — because the cost being gated is that of walking rows which sit where
// a running daemon's heap left them: BenchmarkAdaSSPTrain and the
// repository benchmark's kernel probe train on freshly generated rows in
// allocation order and see none of it. ε is the search's first rung and
// the target one it cannot certify there, so an iteration takes the
// whole path: ACCEPT fails, the ERM is fitted, REJECT fails, RETRY.
func BenchmarkStreamIteration(b *testing.B) {
	const blocks, rowsPerBlock, window = 48, 6000, 6
	db := data.NewGrowingDatabase(data.TimePartitioner{Window: 24})
	for id := 0; id < blocks; id++ {
		db.Insert(taxi.Pipeline(rowsPerBlock, int64(id)*24, 24, 0, 0.05, rng.MixSeed(3, uint64(id))).Examples...)
	}
	pipe := lrPipeline(0.01)
	budget := privacy.Budget{Epsilon: 0.125, Delta: 1e-8}
	newest := db.LatestBlocks(window)
	var buf []data.Example
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds := db.Read(buf, newest)
		buf = ds.Examples
		if _, err := pipe.Run(ds, budget, rng.New(rng.MixSeed(3, uint64(i), 0xDA))); err != nil {
			b.Fatal(err)
		}
	}
}
