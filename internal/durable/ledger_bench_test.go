package durable

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/privacy"
)

// BenchmarkLedgerParallelCharge measures the durable write path under
// contention: 8 goroutines charging budget against distinct blocks,
// every charge journaled and fsynced before acknowledgement. Both
// variants group-commit concurrent appends into one write+flush per
// batch: "shards=1" is one ledger stripe on one WAL segment, "shards=8"
// stripes the ledger across 8 segments whose flushes share a SyncGroup.
// Gated in CI via BENCH_ledger.json.
func BenchmarkLedgerParallelCharge(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			dir := b.TempDir()
			policy := core.Policy{Global: privacy.MustBudget(1e9, 1e-3)}
			p, _, err := Open(dir, policy, Options{LedgerShards: shards})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			// A pool of pre-registered blocks large enough that the 8
			// workers rarely collide on a block (block-level contention
			// is not what we are measuring; lock/fsync contention is).
			const nblocks = 1024
			for id := data.BlockID(0); id < nblocks; id++ {
				p.AC.RegisterBlock(id)
			}
			charge := privacy.Budget{Epsilon: 1e-7}
			var next atomic.Uint64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					id := data.BlockID(next.Add(1) % nblocks)
					if err := p.AC.Request([]data.BlockID{id}, charge); err != nil {
						b.Error(fmt.Errorf("charge block %d: %w", id, err))
						return
					}
				}
			})
		})
	}
}
