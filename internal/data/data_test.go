package data

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
	"repro/internal/safety"
)

func mkExample(t, u int64, label float64) Example {
	return Example{Features: []float64{1, 2}, Label: label, Time: t, UserID: u}
}

func TestDatasetBasics(t *testing.T) {
	d := &Dataset{}
	if d.Len() != 0 || d.FeatureDim() != 0 || d.MeanLabel() != 0 {
		t.Error("empty dataset invariants broken")
	}
	d.Append(mkExample(0, 0, 1), mkExample(1, 1, 3))
	if d.Len() != 2 || d.FeatureDim() != 2 {
		t.Errorf("Len=%d FeatureDim=%d", d.Len(), d.FeatureDim())
	}
	if d.MeanLabel() != 2 {
		t.Errorf("MeanLabel = %v, want 2", d.MeanLabel())
	}
	labels := d.Labels()
	if len(labels) != 2 || labels[0] != 1 || labels[1] != 3 {
		t.Errorf("Labels = %v", labels)
	}
}

func TestDatasetSplit(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 1000; i++ {
		d.Append(mkExample(int64(i), 0, float64(i)))
	}
	train, test := d.Split(0.9, rng.New(1))
	if train.Len() != 900 || test.Len() != 100 {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// No overlap, full coverage.
	seen := make(map[float64]bool)
	for _, ex := range train.Examples {
		seen[ex.Label] = true
	}
	for _, ex := range test.Examples {
		if seen[ex.Label] {
			t.Fatalf("label %v in both train and test", ex.Label)
		}
		seen[ex.Label] = true
	}
	if len(seen) != 1000 {
		t.Fatalf("coverage %d, want 1000", len(seen))
	}
}

func TestDatasetHead(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 100; i++ {
		d.Append(mkExample(int64(i), 0, float64(i)))
	}
	if d.Head(5).Len() != 5 || d.Head(500).Len() != 100 {
		t.Error("Head sizes wrong")
	}
}

func TestTimePartitioner(t *testing.T) {
	p := TimePartitioner{Window: 24}
	if p.Key(mkExample(0, 0, 0)) != 0 || p.Key(mkExample(23, 0, 0)) != 0 {
		t.Error("first day should map to block 0")
	}
	if p.Key(mkExample(24, 0, 0)) != 1 || p.Key(mkExample(49, 0, 0)) != 2 {
		t.Error("later days map wrongly")
	}
	if p.Key(mkExample(-5, 0, 0)) != 0 {
		t.Error("negative time should clamp to block 0")
	}
	if p.Name() != "time/24" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestUserPartitioner(t *testing.T) {
	p := UserPartitioner{}
	if p.Key(mkExample(0, 42, 0)) != 42 {
		t.Error("user partitioner should key by user ID")
	}
	if p.Name() != "user" {
		t.Errorf("Name = %q", p.Name())
	}
}

func TestGrowingDatabaseInsertRead(t *testing.T) {
	g := NewGrowingDatabase(TimePartitioner{Window: 10})
	created := g.Insert(mkExample(5, 0, 1), mkExample(15, 0, 2), mkExample(7, 0, 3))
	if len(created) != 2 {
		t.Fatalf("created %v, want 2 blocks", created)
	}
	if g.NumBlocks() != 2 || g.Size() != 3 {
		t.Fatalf("NumBlocks=%d Size=%d", g.NumBlocks(), g.Size())
	}
	if g.Read(nil, []BlockID{0}).Len() != 2 || g.Read(nil, []BlockID{1}).Len() != 1 || g.Read(nil, []BlockID{99}).Len() != 0 {
		t.Error("block sizes wrong")
	}
	ds := g.Read(nil, []BlockID{0, 1, 99})
	if ds.Len() != 3 {
		t.Errorf("Read len = %d", ds.Len())
	}
	if only := g.Read(nil, []BlockID{1}); only.Len() != 1 || only.Examples[0].Label != 2 {
		t.Errorf("Read block 1 = %+v", only.Examples)
	}
	// A destination with room is written from its start, whatever its
	// length; one without room is replaced by a copy of the blocks' size.
	roomy := make([]Example, 2, 3)
	if got := g.Read(roomy, []BlockID{0, 1}); got.Len() != 3 || &got.Examples[0] != &roomy[0] || got.Examples[2].Label != 2 {
		t.Errorf("Read into a buffer with room: %+v, not the buffer's storage", got.Examples)
	}
	tight := make([]Example, 1)
	if got := g.Read(tight, []BlockID{0, 1}); got.Len() != 3 || &got.Examples[0] == &tight[0] || tight[0].Label != 0 {
		t.Errorf("Read into a buffer without room: %+v, buffer %+v", got.Examples, tight)
	}
}

func TestGrowingDatabaseOrdering(t *testing.T) {
	g := NewGrowingDatabase(TimePartitioner{Window: 1})
	// Insert out of order.
	g.Insert(mkExample(5, 0, 0), mkExample(1, 0, 0), mkExample(3, 0, 0), mkExample(2, 0, 0))
	got := g.Blocks()
	want := []BlockID{1, 2, 3, 5}
	if len(got) != len(want) {
		t.Fatalf("Blocks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Blocks = %v, want %v", got, want)
		}
	}
	latest := g.LatestBlocks(2)
	if len(latest) != 2 || latest[0] != 3 || latest[1] != 5 {
		t.Errorf("LatestBlocks = %v", latest)
	}
	if len(g.LatestBlocks(100)) != 4 {
		t.Error("oversized LatestBlocks should return all")
	}
}

func TestGrowingDatabaseDelete(t *testing.T) {
	g := NewGrowingDatabase(TimePartitioner{Window: 1})
	g.Insert(mkExample(0, 0, 0), mkExample(1, 0, 0))
	if !g.Delete(0) {
		t.Fatal("Delete(0) failed")
	}
	if g.Delete(0) {
		t.Fatal("double delete should return false")
	}
	if g.NumBlocks() != 1 || g.Blocks()[0] != 1 {
		t.Errorf("after delete: %v", g.Blocks())
	}
}

func TestGrowingDatabaseUserBlocks(t *testing.T) {
	g := NewGrowingDatabase(UserPartitioner{})
	g.Insert(mkExample(0, 7, 1), mkExample(100, 7, 2), mkExample(5, 3, 3))
	if g.NumBlocks() != 2 {
		t.Fatalf("NumBlocks = %d, want 2 (one per user)", g.NumBlocks())
	}
	if g.Read(nil, []BlockID{7}).Len() != 2 || g.Read(nil, []BlockID{3}).Len() != 1 {
		t.Error("user block sizes wrong")
	}
}

func TestGrowingDatabaseConcurrency(t *testing.T) {
	g := NewGrowingDatabase(TimePartitioner{Window: 5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Insert(mkExample(int64(i%50), int64(w), 1))
				_ = g.Blocks()
				_ = g.Read(nil, g.LatestBlocks(3))
			}
		}(w)
	}
	wg.Wait()
	if g.Size() != 8*500 {
		t.Errorf("Size = %d, want 4000", g.Size())
	}
}

// Property: blocks are disjoint and jointly exhaustive — every inserted
// example is in exactly one block, and Read over all blocks returns all.
func TestBlockPartitionProperty(t *testing.T) {
	f := func(times []int16, window uint8) bool {
		w := int64(window)%20 + 1
		g := NewGrowingDatabase(TimePartitioner{Window: w})
		for i, tm := range times {
			tt := int64(tm)
			if tt < 0 {
				tt = -tt
			}
			g.Insert(mkExample(tt, 0, float64(i)))
		}
		if g.Size() != len(times) {
			return false
		}
		all := g.Read(nil, g.Blocks())
		if all.Len() != len(times) {
			return false
		}
		seen := make(map[float64]int)
		for _, ex := range all.Examples {
			seen[ex.Label]++
		}
		for i := range times {
			if seen[float64(i)] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Split preserves all examples for any fraction.
func TestSplitPreservesProperty(t *testing.T) {
	f := func(n uint8, fracRaw uint8) bool {
		d := &Dataset{}
		for i := 0; i < int(n); i++ {
			d.Append(mkExample(int64(i), 0, float64(i)))
		}
		frac := float64(fracRaw) / 255
		train, test := d.Split(frac, rng.New(uint64(n)))
		return train.Len()+test.Len() == int(n) &&
			math.Abs(float64(train.Len())-frac*float64(n)) <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSplitContract pins what the rest of the platform relies on from
// Split: membership is the permutation's (train = its first nTrain
// entries, test = the rest), emission is storage order, and the RNG
// advances by exactly one Perm — so every later noise draw comes from
// the stream it always came from. The halves are views of the split
// dataset, which is left holding train then test, and train's capacity
// ends where test begins.
func TestSplitContract(t *testing.T) {
	cases := []struct {
		n    int
		frac float64
		seed uint64
	}{
		{0, 0.9, 1}, {1, 0.9, 2}, {63, 0.9, 3}, {64, 0.5, 4}, {65, 0.9, 5},
		{1000, 0.9, 6}, {1000, 0, 7}, {1000, 1, 8}, {4097, 0.37, 9},
	}
	for _, c := range cases {
		d := &Dataset{}
		for i := 0; i < c.n; i++ {
			d.Append(Example{Label: float64(i)}) // the label is the source index
		}
		r := rng.New(c.seed)
		train, test := d.Split(c.frac, r)

		ref := rng.New(c.seed)
		perm := ref.Perm(c.n)
		nTrain := int(float64(c.n) * c.frac)
		if train.Len() != nTrain || test.Len() != c.n-nTrain {
			t.Fatalf("n=%d frac=%v: sizes %d/%d, want %d/%d", c.n, c.frac, train.Len(), test.Len(), nTrain, c.n-nTrain)
		}
		if got, want := r.Uint64(), ref.Uint64(); got != want {
			t.Errorf("n=%d frac=%v: RNG did not advance by exactly one Perm", c.n, c.frac)
		}
		for _, half := range []struct {
			name string
			got  *Dataset
			want []int
		}{{"train", train, perm[:nTrain]}, {"test", test, perm[nTrain:]}} {
			want := append([]int(nil), half.want...)
			sort.Ints(want)
			for i, ex := range half.got.Examples {
				if int(ex.Label) != want[i] {
					t.Fatalf("n=%d frac=%v: %s[%d] is source row %v, want %d (the permutation's members, ascending)",
						c.n, c.frac, half.name, i, ex.Label, want[i])
				}
			}
		}
		if cap(train.Examples) != nTrain {
			t.Errorf("n=%d frac=%v: train capacity %d, want %d", c.n, c.frac, cap(train.Examples), nTrain)
		}
		if c.n > 0 && (nTrain > 0 && &train.Examples[0] != &d.Examples[0] ||
			nTrain < c.n && &test.Examples[0] != &d.Examples[nTrain]) {
			t.Errorf("n=%d frac=%v: the halves are not views of the split dataset", c.n, c.frac)
		}
	}
}

// TestReadSplitAllocs pins the training loop's three data-movement steps
// to a constant number of allocations whatever the row count. Read into
// a buffer with room makes only the dataset, and a warm Split only its
// two views: its permutation, membership bitmap and held test rows are
// pooled scratch. The Insert of one block's run makes the block, its
// examples and the list of created IDs. Read and Split are held to bytes
// too, under 1 KiB at n = 3000 and 48 000: a window, a permutation or a
// test half allocated per call (Split's scratch is ≈ 9.5 bytes a row)
// fails at either size.
func TestReadSplitAllocs(t *testing.T) {
	for _, rows := range []int{500, 8000} {
		db := NewGrowingDatabase(TimePartitioner{Window: 24})
		for b := 0; b < 6; b++ {
			for i := 0; i < rows; i++ {
				db.Insert(mkExample(int64(b*24), 0, float64(i)))
			}
		}
		ids := db.Blocks()
		buf := make([]Example, 6*rows)
		var ds *Dataset
		safety.MaxAllocs(t, 10, 1, func() { ds = db.Read(buf, ids) })
		if ds.Len() != 6*rows {
			t.Fatalf("Read returned %d rows, want %d", ds.Len(), 6*rows)
		}
		n := ds.Len()
		if got := safety.LeastBytes(3, func() { db.Read(buf, ids) }); got >= 1024 {
			t.Errorf("Read of %d rows into a buffer with room allocated %d bytes, budget 1 KiB", n, got)
		}
		r := rng.New(1)
		ds.Split(0.9, r) // warms the scratch
		safety.MaxAllocs(t, 10, 2, func() { ds.Split(0.9, r) })
		if got := safety.LeastBytes(3, func() { ds.Split(0.9, r) }); got >= 1024 {
			t.Errorf("warm Split of %d rows allocated %d bytes, budget 1 KiB", n, got)
		}
	}

	db := NewGrowingDatabase(TimePartitioner{Window: 24})
	block := make([]Example, 6000)
	for i := range block {
		block[i] = mkExample(int64(i%24), 0, float64(i))
	}
	safety.MaxAllocs(t, 10, 3, func() {
		db.Insert(block...)
		db.Delete(0)
	})
}

// TestInsertGrowsBlocksByTheirRuns: a call spanning many blocks leaves
// each with room for its own rows, not for the call's, whether the block
// is new or already holds rows, and keeps every block's arrival order.
func TestInsertGrowsBlocksByTheirRuns(t *testing.T) {
	const blocks, run = 16, 1000
	db := NewGrowingDatabase(TimePartitioner{Window: 24})
	for call := 0; call < 3; call++ {
		var stream []Example
		for b := 0; b < blocks; b++ {
			for i := 0; i < run; i++ {
				stream = append(stream, mkExample(int64(b*24), 0, float64(call*run+i)))
			}
		}
		if created := db.Insert(stream...); (call == 0) != (len(created) == blocks) {
			t.Fatalf("call %d created %d blocks", call, len(created))
		}
		for id, b := range db.blocks {
			if len(b.Examples) != (call+1)*run || cap(b.Examples) > 2*len(b.Examples) {
				t.Fatalf("call %d, block %d: len %d cap %d, want len %d and cap at most twice that",
					call, id, len(b.Examples), cap(b.Examples), (call+1)*run)
			}
			for i, ex := range b.Examples {
				if ex.Label != float64(i) {
					t.Fatalf("block %d row %d carries label %v: arrival order lost", id, i, ex.Label)
				}
			}
		}
	}
}

// TestNewDatasetRows pins the row allocator's first rule and its
// bookkeeping: n zeroed rows of the asked width, cap == len on each, and
// rows/chunk + 2 allocations (the chunks, the dataset, its examples).
func TestNewDatasetRows(t *testing.T) {
	for _, c := range []struct{ n, dim int }{{0, 48}, {1, 48}, {64, 48}, {65, 48}, {6000, 48}, {6000, 169}, {10, 5000}, {7, 0}} {
		ds := NewDataset(c.n, c.dim)
		if ds.Len() != c.n {
			t.Fatalf("NewDataset(%d, %d) has %d examples", c.n, c.dim, ds.Len())
		}
		for i, ex := range ds.Examples {
			if len(ex.Features) != c.dim || cap(ex.Features) != c.dim {
				t.Fatalf("NewDataset(%d, %d) row %d: len %d cap %d", c.n, c.dim, i, len(ex.Features), cap(ex.Features))
			}
			for _, v := range ex.Features {
				if v != 0 {
					t.Fatalf("NewDataset(%d, %d) row %d is not zeroed", c.n, c.dim, i)
				}
			}
		}
		// A row written end to end, and appended to, leaves every other
		// row zero.
		for i := range ds.Examples {
			row := ds.Examples[i].Features
			for j := range row {
				row[j] = 1
			}
			_ = append(row, 2)
			for k, other := range ds.Examples {
				for _, v := range other.Features {
					if k != i && v != 0 {
						t.Fatalf("NewDataset(%d, %d): writing row %d changed row %d", c.n, c.dim, i, k)
					}
				}
			}
			clear(row)
			if c.n > 100 && i > 130 {
				break // two chunk edges are crossed by then
			}
		}
		if c.dim > 0 {
			perChunk := max(rowChunkBytes/(8*c.dim), 1)
			chunks := float64((c.n + perChunk - 1) / perChunk)
			safety.MaxAllocs(t, 5, chunks+2, func() { NewDataset(c.n, c.dim) })
		}
	}
}

// TestNewDatasetChunksDieWithTheirDataset pins the second rule, the one
// DP-informed retention rests on: a chunk belongs to one carver, so
// dropping its examples frees every one of its chunks even while a
// dataset allocated right after it — which a shared or pooled chunk
// would have served too — stays live. It holds for rows carved all up
// front (NewDataset) and for rows carved chunk by chunk as a streaming
// featurizer writes them, two carvers taking turns row by row, so their
// chunks alternate in allocation order.
func TestNewDatasetChunksDieWithTheirDataset(t *testing.T) {
	const n, dim = 1000, 48
	interleaved := func() (*Dataset, *Dataset) {
		a, b := &Dataset{}, &Dataset{}
		ra, rb := NewRows(n, dim), NewRows(n, dim)
		for range n {
			a.Append(Example{Features: ra.Next()})
			b.Append(Example{Features: rb.Next()})
		}
		return a, b
	}
	upFront := func() (*Dataset, *Dataset) { return NewDataset(n, dim), NewDataset(n, dim) }
	for _, c := range []struct {
		name  string
		carve func() (*Dataset, *Dataset)
	}{{"up front", upFront}, {"chunk by chunk", interleaved}} {
		name, carve := c.name, c.carve
		perChunk := rowChunkBytes / (8 * dim)
		var freed, chunks atomic.Int64
		retired, kept := carve()
		for i := 0; i < n; i += perChunk {
			// A chunk's first row starts its allocation, which is where a
			// finalizer may be set.
			runtime.SetFinalizer(&retired.Examples[i].Features[0], func(*float64) { freed.Add(1) })
			chunks.Add(1)
		}
		retired = nil
		// Finalizers run on their own goroutine some time after the cycle
		// that found the object dead.
		for i := 0; i < 200 && freed.Load() < chunks.Load(); i++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		if freed.Load() != chunks.Load() {
			t.Errorf("%s: %d of %d chunks of a dropped dataset were freed", name, freed.Load(), chunks.Load())
		}
		runtime.KeepAlive(kept)
	}
}

// TestRowsCarveOnDemand: a carver takes a chunk from the runtime only
// when the row before has used up the last one, so a streaming
// featurizer holds at most one chunk it has not written yet.
func TestRowsCarveOnDemand(t *testing.T) {
	if safety.RaceEnabled {
		t.Skip("allocation figures are not stable under the race detector")
	}
	const n, dim = 6000, 48
	perChunk := rowChunkBytes / (8 * dim)
	for _, k := range []int{1, perChunk, perChunk + 1, 3*perChunk + 7} {
		want := uint64((k+perChunk-1)/perChunk) * rowChunkBytes
		got := safety.LeastBytes(5, func() {
			rows := NewRows(n, dim)
			for range k {
				carved = rows.Next()
			}
		})
		if got > want {
			t.Errorf("%d rows of %d carved with %d bytes, want at most %d", k, n, got, want)
		}
	}
}

// carved keeps TestRowsCarveOnDemand's rows observable.
var carved []float64
