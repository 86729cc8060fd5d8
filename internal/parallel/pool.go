package parallel

import (
	"sync"
	"sync/atomic"
)

// Pool is a process-wide bounded scheduler that many sweeps submit task
// batches into concurrently. Its workers drain the queued batch whose
// cells are expected to run longest (FIFO among equals), crossing batch
// boundaries as soon as one batch's cells are all handed out — so when
// several experiments run at once (cmd/sage-experiments -pipeline), the
// tail of one experiment's grid overlaps the head of the next instead
// of idling behind a per-experiment barrier, and the long cells start
// early enough that they are not the last thing running.
//
// Scheduling policy is caller-runs: the goroutine that submits a batch
// helps execute that batch's cells while it waits. This guarantees
// progress (and rules out deadlock) even if every pool worker is blocked
// inside a nested submission, at the cost of the effective concurrency
// being workers + live submitters rather than exactly workers.
//
// Determinism: the pool carries the same contract as Map/ForEach — each
// cell must derive its randomness from its own coordinates — so which
// goroutine runs a cell, and which batches interleave, can never change
// a result.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*poolBatch // batches with cells not yet handed out, FIFO
	closed bool
}

// poolBatch is one ForEach submission: an indexed grid of n cells.
type poolBatch struct {
	fn func(int)
	n  int
	// weight is the submitter's estimate of one cell's cost, in any
	// consistent relative units. Workers drain the heaviest queued batch
	// first (longest-expected-cell-first), which is what keeps a late-
	// submitted grid of expensive cells from becoming the straggler tail
	// after every cheap batch has drained.
	weight float64
	next   int          // next cell index to hand out; guarded by Pool.mu
	left   atomic.Int64 // cells not yet completed
	done   chan struct{}
}

// NewPool starts a pool with the given number of worker goroutines
// (<= 0 means GOMAXPROCS). The workers live until Close.
func NewPool(workers int) *Pool {
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < Workers(workers); w++ {
		go p.worker()
	}
	return p
}

// Close stops the pool's workers once the queued batches drain. Cells
// already handed out finish; submitting to a closed pool panics.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}

// worker drains cells from the heaviest queued batch until the pool
// closes.
func (p *Pool) worker() {
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		b := p.pickLocked()
		i := p.takeLocked(b)
		p.mu.Unlock()
		if i >= 0 {
			b.run(i)
		}
	}
}

// pickLocked chooses the queued batch workers should drain next:
// the largest per-cell weight, oldest first among equals (so equal-
// weight batches keep the original FIFO pipelining). Caller holds mu
// and guarantees the queue is non-empty.
func (p *Pool) pickLocked() *poolBatch {
	best := p.queue[0]
	for _, b := range p.queue[1:] {
		if b.weight > best.weight {
			best = b
		}
	}
	return best
}

// takeLocked hands out b's next cell index (-1 if none remain) and
// removes b from the queue once fully handed out. Caller holds mu.
func (p *Pool) takeLocked(b *poolBatch) int {
	if b.next >= b.n {
		return -1
	}
	i := b.next
	b.next++
	if b.next >= b.n {
		for qi, qb := range p.queue {
			if qb == b {
				p.queue = append(p.queue[:qi], p.queue[qi+1:]...)
				break
			}
		}
	}
	return i
}

// run executes one cell and signals completion of the whole batch.
func (b *poolBatch) run(i int) {
	b.fn(i)
	if b.left.Add(-1) == 0 {
		close(b.done)
	}
}

// ForEachWeighted evaluates fn(0) … fn(n-1) on the pool and waits for
// all of them. The submitting goroutine helps drain its own batch
// (caller-runs), then blocks until cells picked up by pool workers
// finish. weight is the expected per-cell cost, in any units as long as
// they are consistent across the batches sharing the pool (this repo
// uses rough expected cell milliseconds); values <= 0 mean the default
// weight 1. Pool workers always drain the heaviest queued batch, FIFO
// among equals, so submitting an expensive grid with a large weight
// pulls its cells forward and keeps them off the critical tail.
// Scheduling never affects results — the determinism contract (each cell
// seeds from its own coordinates) makes drain order invisible.
func (p *Pool) ForEachWeighted(n int, weight float64, fn func(i int)) {
	if n <= 0 {
		return
	}
	if weight <= 0 {
		weight = 1
	}
	b := &poolBatch{fn: fn, n: n, weight: weight, done: make(chan struct{})}
	b.left.Store(int64(n))
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("parallel: submit on closed Pool")
	}
	p.queue = append(p.queue, b)
	p.mu.Unlock()
	p.cond.Broadcast()
	for {
		p.mu.Lock()
		i := p.takeLocked(b)
		p.mu.Unlock()
		if i < 0 {
			break
		}
		b.run(i)
	}
	<-b.done
}

// global is the shared scheduler installed by SetGlobal. When present,
// package-level ForEach/Map route every grid through it, which is how
// cmd/sage-experiments pipelines independent experiments across one
// worker budget.
var global atomic.Pointer[Pool]

// SetGlobal installs (or, with nil, removes) the process-wide shared
// pool. While installed, ForEach/Map ignore their per-call worker bound
// and submit to the pool instead; the pool's own worker count is the
// process-wide concurrency budget.
func SetGlobal(p *Pool) {
	global.Store(p)
}

// Global returns the installed shared pool, or nil.
func Global() *Pool {
	return global.Load()
}
