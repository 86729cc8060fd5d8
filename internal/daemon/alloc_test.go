package daemon

import (
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/privacy"
	"repro/internal/safety"
	"repro/internal/taxi"
)

// rowsPerChunk is how many taxi rows data.Rows carves from one of its
// 24 KiB chunks.
const rowsPerChunk = (24 << 10) / (8 * taxi.FeatureDim)

// TestWarmTickAllocatesTheBlockItKeeps: a warm tick allocates the block
// the database keeps — its row chunks and the one copy of its headers
// Insert makes — and a few kilobytes besides (the ledger and WAL
// records, the speed table, the models a search fits and its solves'
// vectors), and no more at 130 ticks of age than at 20. The ingest
// buffer, the pipelines' training windows and the linear fits' d×d
// matrices are all reused, so neither a 288 kB header slice per ingest
// nor a 1.7 MB window nor 146 kB of matrices per search fits in the
// slack. ε0 is a quarter of the cap, so most ticks run a search.
func TestWarmTickAllocatesTheBlockItKeeps(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation figures are not stable under the race detector")
	}
	cfg := fastConfig(t.TempDir())
	cfg.Epsilon0 = 0.125
	cfg.Retention = 8
	cfg.CompactEvery = 1000
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	step := func() {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	const (
		chunks  = (6000 + rowsPerChunk - 1) / rowsPerChunk
		headers = 6000 * 48
		slack   = 16 << 10
		budget  = chunks*(24<<10) + headers + slack
	)
	for _, age := range []int{20, 130} {
		for d.Status().Ticks < age {
			step()
		}
		least := safety.LeastBytes(4, step)
		if least > budget {
			t.Errorf("at %d ticks of age a warm tick allocated %d bytes, budget %d (%d row chunks, %d B of headers, %d B of slack)",
				age, least, budget, chunks, headers, slack)
		}
		t.Logf("at %d ticks of age: %d bytes, %d over the row chunks and headers", age, least, int(least)-(budget-slack))
	}
	if st := d.Status(); st.TrainIterations == 0 {
		t.Fatal("no tick trained")
	}
}

// TestRetentionIgnoresRetiredBlocks: a tick's retention walks the live
// blocks, not the ledger's history, so a daemon whose ledger holds
// thousands of retired blocks retains at no more cost than a fresh one.
func TestRetentionIgnoresRetiredBlocks(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation figures are not stable under the race detector")
	}
	retention := func(retired int) uint64 {
		cfg := fastConfig(t.TempDir())
		cfg.RowsPerBlock = 200
		cfg.Retention = 4
		d, _, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for id := range data.BlockID(retired) {
			if _, err := d.plat.AC.AdmitBlock(id, privacy.Budget{Epsilon: cfg.FeatureEps}); err != nil {
				t.Fatal(err)
			}
			if err := d.plat.AC.Retire(id); err != nil {
				t.Fatal(err)
			}
		}
		d.nextBlock = data.BlockID(retired)
		for range 2 * cfg.Retention {
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.db.NumBlocks(); got != cfg.Retention {
			t.Fatalf("%d live blocks, want the retention window's %d", got, cfg.Retention)
		}
		last := tick{n: d.ticks - 1, block: d.nextBlock - 1}
		return safety.LeastBytes(3, func() {
			if err := d.retain(last); err != nil {
				t.Fatal(err)
			}
		})
	}
	fresh, old := retention(0), retention(3000)
	if old > fresh {
		t.Errorf("retention allocated %d bytes with 3000 retired blocks in the ledger, %d with none", old, fresh)
	}
}

// TestDaemonScratchPinsNoRows: what a daemon keeps between ticks — the
// buffer it ingests into and each pipeline's training window — holds no
// row of a block once the block is retired and its data deleted. The
// first row of each of the blocks' row chunks gets a finalizer, and one
// collection, with the collector otherwise off, must free them all, as
// in the adaptive package's TestPooledScratchPinsNoRows.
func TestDaemonScratchPinsNoRows(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := fastConfig(t.TempDir())
	cfg.RowsPerBlock = 640
	cfg.Epsilon0 = 0.125
	d, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for range 2 * cfg.MinWindow {
		if err := d.step(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Status().TrainIterations == 0 {
		t.Fatal("no tick trained: the training windows were never filled")
	}
	var freed atomic.Int64
	watched := int64(0)
	for _, id := range d.db.Blocks() {
		for i, ex := range d.db.Read(nil, []data.BlockID{id}).Examples {
			if i%rowsPerChunk == 0 {
				runtime.SetFinalizer(&ex.Features[0], func(*float64) { freed.Add(1) })
				watched++
			}
		}
	}
	for _, id := range d.db.Blocks() {
		if err := d.plat.AC.Retire(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.db.NumBlocks(); n != 0 {
		t.Fatalf("%d blocks left after retiring them all", n)
	}
	runtime.GC()
	// Finalizers run on their own goroutine after the cycle that found
	// their objects dead.
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < watched && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if got := freed.Load(); got != watched {
		t.Errorf("%d of %d row chunks freed: the daemon keeps the rest reachable", got, watched)
	}
	runtime.KeepAlive(d)
}
