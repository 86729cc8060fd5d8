package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got := Map(workers, 100, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: len %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if got := Map(4, 0, func(i int) int { return i }); got != nil {
		t.Errorf("Map over empty grid = %v, want nil", got)
	}
	ForEach(4, -1, func(i int) { t.Error("ForEach called fn on empty grid") })
}

func TestForEachRunsEachOnce(t *testing.T) {
	var calls [500]atomic.Int32
	ForEach(8, len(calls), func(i int) { calls[i].Add(1) })
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
}

func TestForEachActuallyParallel(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-core machine")
	}
	// Two tasks that only finish if they overlap in time.
	var inFlight atomic.Int32
	overlapped := atomic.Bool{}
	ForEach(2, 2, func(i int) {
		inFlight.Add(1)
		defer inFlight.Add(-1)
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if inFlight.Load() == 2 {
				overlapped.Store(true)
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
	if !overlapped.Load() {
		t.Error("tasks never overlapped with workers=2")
	}
}

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d", got)
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

func TestPoolForEachRunsEachOnce(t *testing.T) {
	// Each cell of one call runs exactly once, and no more than workers
	// of them are in flight at once, while other calls run beside it.
	const workers = 3
	stop := make(chan struct{})
	var others sync.WaitGroup
	for g := 0; g < 4; g++ {
		others.Add(1)
		go func() {
			defer others.Done()
			for {
				select {
				case <-stop:
					return
				default:
					ForEach(4, 16, func(int) { runtime.Gosched() })
				}
			}
		}()
	}
	var calls [300]atomic.Int32
	var inFlight, peak atomic.Int32
	ForEach(workers, len(calls), func(i int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		calls[i].Add(1)
		runtime.Gosched()
		inFlight.Add(-1)
	})
	close(stop)
	others.Wait()
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("cell %d ran %d times", i, n)
		}
	}
	if p := peak.Load(); p > workers {
		t.Errorf("%d cells in flight at once, want at most %d", p, workers)
	}
}

func TestPoolConcurrentBatches(t *testing.T) {
	// Many goroutines call ForEach at once; every call must complete
	// exactly, with no cross-call interference.
	const batches, cells = 8, 50
	var sums [batches]atomic.Int64
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			ForEach(3, cells, func(i int) { sums[b].Add(int64(i)) })
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
	// A cell that itself calls ForEach must complete, with one worker and
	// with two.
	for _, workers := range []int{1, 2} {
		var inner atomic.Int32
		ForEach(workers, 2, func(i int) {
			ForEach(workers, 3, func(j int) { inner.Add(1) })
		})
		if got := inner.Load(); got != 6 {
			t.Errorf("workers=%d: inner cells ran %d times, want 6", workers, got)
		}
	}
}
