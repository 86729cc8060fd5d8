// Package data implements Sage's data substrate: examples, datasets, and
// the growing database that accumulates a sensitive stream and splits it
// into disjoint blocks (Fig. 1 and §3.2 of the paper).
//
// Blocks are the unit of privacy accounting in Sage. The partitioning
// attribute must be insensitive (its possible values publicly known); the
// two attributes the paper highlights are time (event-level privacy) and
// user ID (user-level privacy, §4.4).
package data

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/rng"
)

// Example is one observation from a sensitive stream: a feature vector,
// a label, and the insensitive attributes blocks can be keyed by.
type Example struct {
	Features []float64
	Label    float64
	Time     int64 // event time, in stream ticks (e.g. hours)
	UserID   int64
}

// Dataset is an ordered collection of examples.
type Dataset struct {
	Examples []Example
}

// rowChunkBytes is how much feature storage Rows takes from the
// runtime at a time. It is a measured constant, not a parameter: one
// slab per dataset was the fastest and put the experiment sweep's peak
// RSS 45-50 % above one make per row (180 → 262-275 MB), 1 MiB chunks
// 30 % above it; 24 KiB stays inside the runtime's small-object size
// classes (a freed chunk's span is reused, not returned and re-mapped)
// and reads the same RSS as one make per row at 1/64 of the objects.
const rowChunkBytes = 24 << 10

// NewDataset returns n zero examples whose Features are zeroed rows of
// width dim, all carved up front, for a featurizer to fill in.
func NewDataset(n, dim int) *Dataset {
	ds := &Dataset{Examples: make([]Example, n)}
	rows := NewRows(n, dim)
	for i := range ds.Examples {
		ds.Examples[i].Features = rows.Next()
	}
	return ds
}

// Rows is the row allocator of the tree: it carves zeroed rows of one
// width from chunks of rowChunkBytes, not one make each, and takes a chunk
// only when the last is used up, so a streaming featurizer's rows are
// allocated as it writes them. Two rules keep a carved row
// indistinguishable from a made one.
//
//   - cap == len on every row, so an append to one row reallocates
//     instead of writing into its neighbour.
//   - A chunk serves one Rows and nothing is pooled or carried over, so a
//     dropped block's chunks (DP-informed retention,
//     GrowingDatabase.Delete) go with its examples, as made rows would; a
//     caller that keeps one row of a deleted block keeps its chunk.
type Rows struct {
	dim, left int
	chunk     []float64
}

// NewRows carves at most n rows of width dim; n sizes the last chunk.
func NewRows(n, dim int) Rows { return Rows{dim: dim, left: n} }

// Next returns the next zeroed row.
func (r *Rows) Next() []float64 {
	if len(r.chunk) < r.dim {
		perChunk := max(rowChunkBytes/(8*r.dim), 1)
		r.chunk = make([]float64, min(perChunk, r.left)*r.dim)
	}
	row := r.chunk[:r.dim:r.dim]
	r.chunk = r.chunk[r.dim:]
	r.left--
	return row
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Examples) }

// FeatureDim returns the dimensionality of the feature vectors, or 0 for
// an empty dataset.
func (d *Dataset) FeatureDim() int {
	if len(d.Examples) == 0 {
		return 0
	}
	return len(d.Examples[0].Features)
}

// Append adds examples to the dataset.
func (d *Dataset) Append(ex ...Example) { d.Examples = append(d.Examples, ex...) }

// Split partitions the dataset in place into train and test sets with
// the given train fraction (e.g. 0.9 for the paper's 90::10 split) and
// returns them as two views of d's storage: train is Examples[:nTrain]
// with its capacity cut there, so an append to it reallocates rather
// than overwrite test, and test is Examples[nTrain:]. d is left holding
// train then test. The split is deterministic given the RNG, which
// advances by exactly one Perm(Len).
//
// Membership comes from the permutation — test is its tail — but both
// halves stay in storage order, not permutation order: a split is walked
// end to end several times per pipeline run (sufficient statistics, ERM,
// per-example losses), and a walk in permutation order chases one
// pointer per row at random through the whole heap. The order hides
// nothing (the trainer runs inside the trusted platform) and no consumer
// needs it: moment sums are order-insensitive and the SGD trainers draw
// their own batches. Train rows are compacted to the front and test rows
// held aside, then copied to the tail.
//
// The permutation, the membership bitmap and the held test rows are
// scratch from splitPool, so a warm split allocates only its two views;
// the held headers are cleared before the scratch goes back, so the pool
// keeps no row of a dataset reachable after its last user drops it.
func (d *Dataset) Split(trainFrac float64, r *rng.RNG) (train, test *Dataset) {
	if trainFrac < 0 || trainFrac > 1 {
		panic(fmt.Sprintf("data: train fraction %v out of [0,1]", trainFrac))
	}
	n := len(d.Examples)
	nTrain := int(float64(n) * trainFrac)
	s := splitPool.Get().(*splitScratch)
	idx := slices.Grow(s.idx[:0], n)[:n]
	for i := range idx {
		idx[i] = int32(i)
	}
	r.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	inTest := slices.Grow(s.inTest[:0], (n+63)/64)[:(n+63)/64]
	clear(inTest)
	for _, j := range idx[nTrain:] {
		inTest[j>>6] |= 1 << (uint(j) & 63)
	}
	held := slices.Grow(s.held[:0], n-nTrain)
	w := 0
	for j, ex := range d.Examples {
		if inTest[j>>6]&(1<<(uint(j)&63)) != 0 {
			held = append(held, ex)
		} else {
			d.Examples[w] = ex
			w++
		}
	}
	copy(d.Examples[nTrain:], held)
	clear(held)
	s.idx, s.inTest, s.held = idx, inTest, held[:0]
	splitPool.Put(s)
	return &Dataset{Examples: d.Examples[:nTrain:nTrain]}, &Dataset{Examples: d.Examples[nTrain:]}
}

// splitScratch is one Split's working set: the permutation, the test
// membership bitmap and the test rows held while train is compacted.
type splitScratch struct {
	idx    []int32
	inTest []uint64
	held   []Example
}

var splitPool = sync.Pool{New: func() any { return new(splitScratch) }}

// Clone returns a dataset of its own over the same examples, for a
// caller that must hand Split a dataset whose order it does not share.
// The feature rows are shared, not copied.
func (d *Dataset) Clone() *Dataset { return &Dataset{Examples: slices.Clone(d.Examples)} }

// Head returns the first n examples (all if n >= Len), sharing storage.
func (d *Dataset) Head(n int) *Dataset {
	if n > len(d.Examples) {
		n = len(d.Examples)
	}
	return &Dataset{Examples: d.Examples[:n]}
}

// Labels returns a copy of all labels.
func (d *Dataset) Labels() []float64 {
	out := make([]float64, len(d.Examples))
	for i, ex := range d.Examples {
		out[i] = ex.Label
	}
	return out
}

// MeanLabel returns the arithmetic mean of the labels (0 for empty).
// The paper's naïve baselines predict this value.
func (d *Dataset) MeanLabel() float64 {
	if len(d.Examples) == 0 {
		return 0
	}
	sum := 0.0
	for _, ex := range d.Examples {
		sum += ex.Label
	}
	return sum / float64(len(d.Examples))
}

// BlockID identifies one block of the growing database. For time-keyed
// blocks it is the time window index; for user-keyed blocks the user ID.
type BlockID int64

// Partitioner assigns examples to blocks by an insensitive attribute.
type Partitioner interface {
	// Key returns the block the example belongs to.
	Key(Example) BlockID
	// Name identifies the partitioning scheme ("time/24", "user").
	Name() string
}

// TimePartitioner keys blocks by time window: block = Time / Window.
// This yields the event-level privacy semantic (§3.2).
type TimePartitioner struct {
	Window int64 // ticks per block, e.g. 24 for daily blocks of hourly ticks
}

// Key implements Partitioner.
func (p TimePartitioner) Key(ex Example) BlockID {
	if p.Window <= 0 {
		panic("data: TimePartitioner requires Window > 0")
	}
	t := ex.Time
	if t < 0 {
		t = 0
	}
	return BlockID(t / p.Window)
}

// Name implements Partitioner.
func (p TimePartitioner) Name() string { return fmt.Sprintf("time/%d", p.Window) }

// UserPartitioner keys blocks by user ID, yielding the user-level privacy
// semantic (§4.4): all of one user's data lands in one block, so retiring
// the block bounds the user's total exposure.
type UserPartitioner struct{}

// Key implements Partitioner.
func (UserPartitioner) Key(ex Example) BlockID { return BlockID(ex.UserID) }

// Name implements Partitioner.
func (UserPartitioner) Name() string { return "user" }

// Block is one disjoint unit of the growing database.
type Block struct {
	ID       BlockID
	Examples []Example
}

// GrowingDatabase accumulates a data stream and partitions it into blocks.
// It is safe for concurrent use.
type GrowingDatabase struct {
	mu     sync.RWMutex
	part   Partitioner
	blocks map[BlockID]*Block
	order  []BlockID // sorted ascending
}

// NewGrowingDatabase returns an empty database with the given partitioner.
func NewGrowingDatabase(p Partitioner) *GrowingDatabase {
	if p == nil {
		panic("data: nil partitioner")
	}
	return &GrowingDatabase{part: p, blocks: make(map[BlockID]*Block)}
}

// Partitioner returns the partitioning scheme.
func (g *GrowingDatabase) Partitioner() Partitioner { return g.part }

// Insert adds examples to the database, creating blocks as needed.
// It returns the IDs of any newly created blocks, in first-seen order.
//
// A stream arrives as runs of examples with one key (the daemon inserts a
// block at a time), so the block is looked up once per run and grows
// once, by the run's length — never by the rest of the call's, which
// would leave each block of a many-block insert holding room for all of
// them.
func (g *GrowingDatabase) Insert(examples ...Example) []BlockID {
	g.mu.Lock()
	defer g.mu.Unlock()
	var created []BlockID
	for lo, hi := 0, 0; lo < len(examples); lo = hi {
		id := g.part.Key(examples[lo])
		hi = lo + 1
		for hi < len(examples) && g.part.Key(examples[hi]) == id {
			hi++
		}
		b, ok := g.blocks[id]
		if !ok {
			b = &Block{ID: id}
			g.blocks[id] = b
			g.insertOrdered(id)
			created = append(created, id)
		}
		b.Examples = append(b.Examples, examples[lo:hi]...)
	}
	return created
}

// insertOrdered inserts id into the sorted order slice. Caller holds mu.
func (g *GrowingDatabase) insertOrdered(id BlockID) {
	i := sort.Search(len(g.order), func(i int) bool { return g.order[i] >= id })
	g.order = append(g.order, 0)
	copy(g.order[i+1:], g.order[i:])
	g.order[i] = id
}

// Blocks returns all block IDs in ascending order.
func (g *GrowingDatabase) Blocks() []BlockID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return append([]BlockID{}, g.order...)
}

// NumBlocks returns the number of blocks.
func (g *GrowingDatabase) NumBlocks() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.order)
}

// Size returns the total number of examples.
func (g *GrowingDatabase) Size() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, b := range g.blocks {
		n += len(b.Examples)
	}
	return n
}

// Read assembles a dataset from the given blocks (missing IDs are
// skipped) into into[:0]: the caller's own copy, which Split reorders.
// It grows into once, to the blocks' total, when into lacks the room; a
// nil into is a fresh copy. The result's examples share into's storage
// whenever it had the room, so a caller reusing one buffer across reads
// owns every header it leaves there.
func (g *GrowingDatabase) Read(into []Example, ids []BlockID) *Dataset {
	g.mu.RLock()
	defer g.mu.RUnlock()
	n := 0
	for _, id := range ids {
		if b, ok := g.blocks[id]; ok {
			n += len(b.Examples)
		}
	}
	out := &Dataset{Examples: slices.Grow(into[:0], n)}
	for _, id := range ids {
		if b, ok := g.blocks[id]; ok {
			out.Examples = append(out.Examples, b.Examples...)
		}
	}
	return out
}

// LatestBlocks returns the most recent n block IDs (fewer if the database
// is smaller), ascending. For time-keyed blocks this is the relevance
// window the paper's pipelines train on.
func (g *GrowingDatabase) LatestBlocks(n int) []BlockID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if n > len(g.order) {
		n = len(g.order)
	}
	return append([]BlockID{}, g.order[len(g.order)-n:]...)
}

// Delete removes a block's data entirely. Sage's DP-informed retention
// policy calls this when a block's privacy budget is exhausted and the
// company wants the raw data gone.
func (g *GrowingDatabase) Delete(id BlockID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.blocks[id]; !ok {
		return false
	}
	delete(g.blocks, id)
	i := sort.Search(len(g.order), func(i int) bool { return g.order[i] >= id })
	if i < len(g.order) && g.order[i] == id {
		g.order = append(g.order[:i], g.order[i+1:]...)
	}
	return true
}
