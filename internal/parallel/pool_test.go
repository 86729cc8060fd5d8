package parallel

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestPoolForEachRunsEachOnce(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var calls [300]atomic.Int32
	p.ForEachWeighted(len(calls), 1, func(i int) { calls[i].Add(1) })
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
}

func TestPoolConcurrentBatches(t *testing.T) {
	// Many goroutines submit batches into one pool at once; every batch
	// must complete exactly, with no cross-batch interference.
	p := NewPool(3)
	defer p.Close()
	const batches, cells = 8, 50
	var sums [batches]atomic.Int64
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			p.ForEachWeighted(cells, 1, func(i int) { sums[b].Add(int64(i)) })
		}(b)
	}
	wg.Wait()
	want := int64(cells * (cells - 1) / 2)
	for b := range sums {
		if got := sums[b].Load(); got != want {
			t.Errorf("batch %d sum = %d, want %d", b, got, want)
		}
	}
}

func TestPoolNestedSubmissionDoesNotDeadlock(t *testing.T) {
	// A cell that itself submits a batch must complete even when the
	// pool has a single worker: caller-runs guarantees progress.
	p := NewPool(1)
	defer p.Close()
	var inner atomic.Int32
	p.ForEachWeighted(2, 1, func(i int) {
		p.ForEachWeighted(3, 1, func(j int) { inner.Add(1) })
	})
	if got := inner.Load(); got != 6 {
		t.Errorf("inner cells ran %d times, want 6", got)
	}
}

func TestPoolEmptyBatch(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.ForEachWeighted(0, 1, func(i int) { t.Error("cell ran on empty batch") })
	p.ForEachWeighted(-5, 1, func(i int) { t.Error("cell ran on negative batch") })
}

func TestGlobalPoolRoutesForEach(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	SetGlobal(p)
	defer SetGlobal(nil)
	got := Map(1, 50, func(i int) int { return i * 3 })
	for i, v := range got {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
	if Global() != p {
		t.Error("Global() lost the installed pool")
	}
}

func TestPickLockedHeaviestFirstFIFOAmongEquals(t *testing.T) {
	// The drain policy itself: workers take from the queued batch with
	// the largest per-cell weight; equal weights keep submission order.
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	a := &poolBatch{weight: 1, n: 1}
	b := &poolBatch{weight: 4, n: 1}
	c := &poolBatch{weight: 4, n: 1}
	d := &poolBatch{weight: 2, n: 1}
	p.queue = []*poolBatch{a, b, c, d}
	p.mu.Lock()
	defer p.mu.Unlock()
	for step, want := range []*poolBatch{b, c, d, a} {
		got := p.pickLocked()
		if got != want {
			t.Fatalf("step %d: picked batch with weight %v, want weight %v", step, got.weight, want.weight)
		}
		p.takeLocked(got) // hands out the only cell, dequeueing the batch
	}
	if len(p.queue) != 0 {
		t.Fatalf("queue not drained: %d left", len(p.queue))
	}
}

func TestForEachWeightedRunsEachOnce(t *testing.T) {
	// Weighted submission must be plain ForEach semantics both without a
	// shared pool (weight ignored) and through one.
	var calls [100]atomic.Int32
	ForEachWeighted(4, len(calls), 50, func(i int) { calls[i].Add(1) })
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times without pool", i, n)
		}
	}
	p := NewPool(3)
	defer p.Close()
	SetGlobal(p)
	defer SetGlobal(nil)
	got := MapWeighted(0, 64, 250, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestClosedPoolPanics(t *testing.T) {
	p := NewPool(1)
	p.Close()
	defer func() {
		if recover() == nil {
			t.Error("ForEach on closed pool should panic")
		}
	}()
	p.ForEachWeighted(1, 1, func(int) {})
}
