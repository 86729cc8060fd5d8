package gateway

import (
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/store"
)

// numClasses counts store.Class, numbered densely from ClassRead.
const numClasses = store.ClassBatch + 1

// Limits bounds in-flight requests per class. Zero fields get defaults
// sized so reads vastly outnumber batch work, mirroring their cost gap.
type Limits struct {
	Read    int // default 256
	Predict int // default 128
	Batch   int // default 16
}

func (l *Limits) applyDefaults() {
	if l.Read <= 0 {
		l.Read = 256
	}
	if l.Predict <= 0 {
		l.Predict = 128
	}
	if l.Batch <= 0 {
		l.Batch = 16
	}
}

// admission is the gateway's load-shedding front door: a bounded
// in-flight semaphore per route class, plus a soft threshold on the
// total in flight that sheds batch work early. Admission never queues — a
// request either gets a slot now or is refused now (fast 503 +
// Retry-After), so offered load beyond capacity cannot build an
// unbounded queue whose latency collapses every class at once.
type admission struct {
	sems [numClasses]chan struct{}
	// global counts all admitted in-flight requests; batchSoft is the
	// fraction of the class limits' sum above which batch requests are
	// shed even if their own class has room. The sum itself needs no
	// check: global reaches it only when every class is full.
	global    atomic.Int64
	batchSoft int64
	// shed counters live in the gateway's metric registry — the status
	// report reads the same series /metrics exposes, so the two can
	// never drift. Handles are pre-resolved per class; admit never does
	// a registry lookup.
	shed [numClasses]*metrics.Counter
}

func newAdmission(l Limits, reg *metrics.Registry) *admission {
	l.applyDefaults()
	a := &admission{}
	a.sems[store.ClassRead] = make(chan struct{}, l.Read)
	a.sems[store.ClassPredict] = make(chan struct{}, l.Predict)
	a.sems[store.ClassBatch] = make(chan struct{}, l.Batch)
	for c := store.Class(0); c < numClasses; c++ {
		a.shed[c] = reg.Counter("sage_gateway_shed_total",
			"Requests refused by admission control, by route class.",
			metrics.Label{Name: "class", Value: c.String()})
	}
	reg.GaugeFunc("sage_gateway_inflight_requests",
		"Admitted requests currently in flight (all classes).",
		func() float64 { return float64(a.global.Load()) })
	globalLimit := int64(l.Read + l.Predict + l.Batch)
	// Shed-before-collapse ordering: once the gateway as a whole is ¾
	// full, new batch work is refused so the remaining capacity keeps
	// serving cheap reads and single predictions.
	a.batchSoft = globalLimit * 3 / 4
	return a
}

// admit tries to take an in-flight slot for class without blocking. On
// success the caller owns the slot and gives it back with exactly one
// release(class); on refusal admit returns false and counts the shed.
func (a *admission) admit(class store.Class) bool {
	if class == store.ClassBatch && a.global.Load() >= a.batchSoft {
		a.shed[class].Inc()
		return false
	}
	select {
	case a.sems[class] <- struct{}{}:
		a.global.Add(1)
		return true
	default:
		a.shed[class].Inc()
		return false
	}
}

// release gives back a slot admit granted for class.
func (a *admission) release(class store.Class) {
	<-a.sems[class]
	a.global.Add(-1)
}

// shedCounts snapshots the per-class shed counters (a view over the
// registry series).
func (a *admission) shedCounts() map[string]int64 {
	out := make(map[string]int64, int(numClasses))
	for c := store.Class(0); c < numClasses; c++ {
		out[c.String()] = int64(a.shed[c].Value())
	}
	return out
}
