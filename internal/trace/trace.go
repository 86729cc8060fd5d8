// trace.go implements the tracer core: ids, spans, the fixed-size
// ring-buffer recorder, and tail-sampling capture. The HTTP surface
// (traceparent propagation, middleware, /debug/trace) is in http.go;
// the structured-log funnel is in logf.go.
package trace

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request tree (128 bits).
type TraceID [16]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace (64 bits).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// maxAttrs and maxEvents bound one span's inline attribute and event
// storage. Fixed arrays keep the record a flat struct (copied by value
// into ring slots, never allocated per span); extras past the bound
// are dropped, which is the right failure mode for a debugging aid.
const (
	maxAttrs  = 6
	maxEvents = 6
)

type attr struct{ key, value string }

type spanEvent struct {
	name string
	at   time.Duration // offset from span start
}

// record is one completed (or in-flight) span, stored inline.
type record struct {
	traceID TraceID
	spanID  SpanID
	parent  SpanID
	name    string
	start   time.Time
	dur     time.Duration
	status  int    // HTTP-ish status code, 0 when not applicable
	outcome string // "", or a terminal classification: "error", "shed", "failover", ...
	attrs   [maxAttrs]attr
	nattrs  int
	events  [maxEvents]spanEvent
	nevents int
}

// ring is a fixed-size overwriting buffer of span records. Writes copy
// the record by value into a pre-allocated slot; memory never grows.
type ring struct {
	mu    sync.Mutex
	slots []record
	next  uint64 // total writes; slot index is next % len(slots)
}

func (r *ring) put(rec *record) {
	r.mu.Lock()
	r.slots[r.next%uint64(len(r.slots))] = *rec
	r.next++
	r.mu.Unlock()
}

// appendSnapshot appends the ring's live records, oldest first, to dst.
func (r *ring) appendSnapshot(dst []record) []record {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	span := uint64(len(r.slots))
	start := uint64(0)
	if n > span {
		start = n - span
	}
	for i := start; i < n; i++ {
		dst = append(dst, r.slots[i%span])
	}
	return dst
}

// Config sizes a Tracer. The zero value gets usable defaults.
type Config struct {
	// Service names the tier ("gateway", "replica", "store", "daemon",
	// "wal"); it is stamped on every span this tracer records.
	Service string
	// RingSize is the recent-span ring capacity (default 2048).
	RingSize int
	// CaptureSize is the captured-span ring capacity (default 512).
	CaptureSize int
	// SlowThreshold is the tail-sampling latency bound: a local root
	// span at least this slow captures its whole trace (default 250ms).
	SlowThreshold time.Duration
}

// Tracer records spans for one process tier. A nil *Tracer is a valid
// disabled tracer: every method no-ops (or returns a nil *Span, whose
// methods also no-op), so call sites need exactly one nil check — the
// one the method itself performs.
type Tracer struct {
	service  string
	slow     time.Duration
	recent   ring
	captured ring
	pool     sync.Pool // *Span
	// idState seeds span/trace id generation: a splitmix64 walk from a
	// crypto/rand origin. Lock-free and allocation-free.
	idState atomic.Uint64
	// spans and captures are cumulative telemetry for the debug surface.
	spans    atomic.Uint64
	captures atomic.Uint64
}

// New returns an enabled tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 2048
	}
	if cfg.CaptureSize <= 0 {
		cfg.CaptureSize = 512
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = 250 * time.Millisecond
	}
	t := &Tracer{service: cfg.Service, slow: cfg.SlowThreshold}
	t.recent.slots = make([]record, cfg.RingSize)
	t.captured.slots = make([]record, cfg.CaptureSize)
	var seed [8]byte
	_, _ = cryptorand.Read(seed[:])
	t.idState.Store(binary.LittleEndian.Uint64(seed[:]))
	t.pool.New = func() any { return new(Span) }
	return t
}

// nextID draws one nonzero 64-bit id (splitmix64 over the seeded
// counter — no locks, no allocation).
func (t *Tracer) nextID() uint64 {
	x := t.idState.Add(0x9E3779B97F4A7C15)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	if x == 0 {
		x = 1
	}
	return x
}

func (t *Tracer) newTraceID() TraceID {
	var id TraceID
	binary.BigEndian.PutUint64(id[:8], t.nextID())
	binary.BigEndian.PutUint64(id[8:], t.nextID())
	return id
}

func (t *Tracer) newSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], t.nextID())
	return id
}

// Span is one operation within a trace. The zero value and nil are
// inert: every method on a nil *Span is a no-op, which is what lets a
// disabled tracer hand out nil spans through untouched call sites. A
// span must not be used after End (finished spans are pooled).
type Span struct {
	t   *Tracer
	rec record
	// localRoot marks the process-entry span — the one whose End makes
	// this process's tail-sampling decision for the trace. True for
	// StartRoot and StartRemote spans, false for StartChild spans.
	localRoot bool
}

// start initializes a pooled span.
func (t *Tracer) start(name string, traceID TraceID, parent SpanID, localRoot bool) *Span {
	s := t.pool.Get().(*Span)
	s.t = t
	s.rec = record{
		traceID: traceID,
		spanID:  t.newSpanID(),
		parent:  parent,
		name:    name,
		start:   time.Now(),
	}
	s.localRoot = localRoot
	return s
}

// StartRoot begins a new trace with one root span. Returns nil on a
// nil tracer.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, t.newTraceID(), SpanID{}, true)
}

// StartRemote continues an incoming trace: a local root span under a
// parent that lives in another process (the traceparent the caller
// sent). Returns nil on a nil tracer.
func (t *Tracer) StartRemote(name string, traceID TraceID, parent SpanID) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, traceID, parent, true)
}

// StartChild begins a child span of s. Returns nil on a nil span, so
// disabled tracing threads through call sites unchanged.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.t.start(name, s.rec.traceID, s.rec.spanID, false)
}

// TraceID returns the span's trace id (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.rec.traceID
}

// SpanID returns the span's own id (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.rec.spanID
}

// TraceIDString returns the hex trace id, or "" on a nil span — the
// form metrics.Histogram.ObserveExemplar accepts directly.
func (s *Span) TraceIDString() string {
	if s == nil {
		return ""
	}
	return s.rec.traceID.String()
}

// SetAttr attaches one key=value attribute. Attributes beyond the
// fixed inline capacity are dropped.
func (s *Span) SetAttr(key, value string) {
	if s == nil || s.rec.nattrs >= maxAttrs {
		return
	}
	s.rec.attrs[s.rec.nattrs] = attr{key: key, value: value}
	s.rec.nattrs++
}

// SetStatus records the span's terminal HTTP-ish status code.
func (s *Span) SetStatus(code int) {
	if s == nil {
		return
	}
	s.rec.status = code
}

// SetOutcome classifies a non-2xx ending ("error", "shed", "failover",
// "unroutable"). A non-empty outcome on a local root span forces the
// trace into the captured tier regardless of latency or status.
func (s *Span) SetOutcome(outcome string) {
	if s == nil {
		return
	}
	s.rec.outcome = outcome
}

// AddEvent records a point-in-time event on the span (the trace-side
// half of an `event=` log line). Events beyond the fixed inline
// capacity are dropped.
func (s *Span) AddEvent(name string) {
	if s == nil || s.rec.nevents >= maxEvents {
		return
	}
	s.rec.events[s.rec.nevents] = spanEvent{name: name, at: time.Since(s.rec.start)}
	s.rec.nevents++
}

// End completes the span: the record is copied into the recent ring
// and, when this local root's trace qualifies (slow, 5xx, or non-empty
// outcome), the whole trace is copied into the captured ring. End is
// allocation-free; the *Span is recycled and must not be used again.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	s.rec.dur = time.Since(s.rec.start)
	t.recent.put(&s.rec)
	t.spans.Add(1)
	if s.localRoot && (s.rec.dur >= t.slow || s.rec.status >= 500 || s.rec.outcome != "") {
		t.capture(s.rec.traceID)
	}
	*s = Span{}
	t.pool.Put(s)
}

// capture copies every recent-ring record of the trace into the
// captured ring, oldest first. Both rings are fixed-size, so capture
// moves structs between pre-allocated slots — no allocation.
func (t *Tracer) capture(id TraceID) {
	t.captures.Add(1)
	t.recent.mu.Lock()
	defer t.recent.mu.Unlock()
	n := t.recent.next
	span := uint64(len(t.recent.slots))
	start := uint64(0)
	if n > span {
		start = n - span
	}
	for i := start; i < n; i++ {
		rec := &t.recent.slots[i%span]
		if rec.traceID == id {
			t.captured.put(rec)
		}
	}
}

// Attr is one span attribute in the JSON export.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Event is one span event in the JSON export.
type Event struct {
	Name string `json:"name"`
	// OffsetUS is the event time as microseconds after span start.
	OffsetUS int64 `json:"offset_us"`
}

// SpanJSON is one exported span record (GET /debug/trace).
type SpanJSON struct {
	TraceID    string    `json:"trace_id"`
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Service    string    `json:"service"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Status     int       `json:"status,omitempty"`
	Outcome    string    `json:"outcome,omitempty"`
	Attrs      []Attr    `json:"attrs,omitempty"`
	Events     []Event   `json:"events,omitempty"`
}

// Snapshot is the full debug export: recent and captured spans plus
// cumulative telemetry. Exemplars, when present, is the serving-tier
// histogram→exemplar table the caller merged in (see DebugHandler).
type Snapshot struct {
	Service       string     `json:"service"`
	SpansRecorded uint64     `json:"spans_recorded"`
	Captures      uint64     `json:"captures"`
	Recent        []SpanJSON `json:"recent"`
	Captured      []SpanJSON `json:"captured"`
	Exemplars     any        `json:"exemplars,omitempty"`
}

func (t *Tracer) export(rec *record) SpanJSON {
	out := SpanJSON{
		TraceID:    rec.traceID.String(),
		SpanID:     rec.spanID.String(),
		Name:       rec.name,
		Service:    t.service,
		Start:      rec.start,
		DurationUS: rec.dur.Microseconds(),
		Status:     rec.status,
		Outcome:    rec.outcome,
	}
	if !rec.parent.IsZero() {
		out.ParentID = rec.parent.String()
	}
	for i := 0; i < rec.nattrs; i++ {
		out.Attrs = append(out.Attrs, Attr{Key: rec.attrs[i].key, Value: rec.attrs[i].value})
	}
	for i := 0; i < rec.nevents; i++ {
		out.Events = append(out.Events, Event{Name: rec.events[i].name, OffsetUS: rec.events[i].at.Microseconds()})
	}
	return out
}

// Snapshot exports both rings, oldest spans first. Safe on a nil
// tracer (empty snapshot).
func (t *Tracer) Snapshot() Snapshot {
	if t == nil {
		return Snapshot{}
	}
	snap := Snapshot{
		Service:       t.service,
		SpansRecorded: t.spans.Load(),
		Captures:      t.captures.Load(),
	}
	for _, rec := range t.recent.appendSnapshot(nil) {
		snap.Recent = append(snap.Recent, t.export(&rec))
	}
	for _, rec := range t.captured.appendSnapshot(nil) {
		snap.Captured = append(snap.Captured, t.export(&rec))
	}
	return snap
}
