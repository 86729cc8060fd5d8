// Package parallel provides the deterministic fan-out engine the
// experiment sweeps run on: a bounded set of workers that evaluates an
// indexed task grid and collects results in index order. Each call
// brings its own workers; when several sweeps run at once (as
// cmd/sage-experiments runs its experiments), the Go runtime's
// scheduler is what they share.
//
// Determinism is a contract, not an accident. Every task must derive all
// of its randomness from its own coordinates (via rng.MixSeed and a
// fresh rng.New per task) and must not mutate shared state. Under that
// contract the result slice is bit-identical for any worker count and
// any goroutine schedule, so parallelizing a sweep can never change a
// reproduced figure — a property the determinism regression tests in
// internal/experiments pin down.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count option: values <= 0 select
// runtime.GOMAXPROCS(0), the engine-wide default.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Map evaluates fn(0) … fn(n-1) on up to workers goroutines and returns
// the results in index order. workers <= 0 means GOMAXPROCS. fn must be
// safe to call concurrently and must not depend on evaluation order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// ForEach evaluates fn(0) … fn(n-1) on up to workers goroutines and
// waits for all of them. Tasks are handed out through a shared atomic
// counter, so long tasks never serialize behind a fixed pre-partition.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
