// Package trace is Sage's fleet-wide request tracer: the "which
// request paid it" half of the observability story whose "how much"
// half is internal/metrics. One trace follows a request across tiers —
// a /predict/batch call from the gateway's root span through a failover
// retry into a replica's store handlers, or one daemon tick through its
// ingest/train/retention/compaction phases into the WAL flush — as a
// tree of spans sharing a 128-bit trace id.
//
// # Header contract
//
// Cross-process propagation uses the W3C trace-context header,
//
//	traceparent: 00-<32 hex trace id>-<16 hex span id>-01
//
// (version 00, sampled flag always 01 — a tier that traces at all
// records every span; retention, not sampling-at-source, bounds cost).
// Every tier's server span is Middleware's, applied in one place —
// httpkit.Mux wraps each of the tier's own routes in it (not /metrics or
// /debug/*: a scrape is not a request) — and it opens a root or
// continues a caller-supplied traceparent. The gateway adds its route
// class and outcomes to that span and stamps each routing *attempt*
// with its own child span id before forwarding, so a failed-over
// request arrives at the second replica under the same trace id but a
// different parent span — two attempt spans under one trace. Parse
// rejects malformed headers (wrong shape, non-hex, all-zero ids) and
// the receiver then starts a fresh trace rather than propagating
// garbage ids.
//
// # Recording and tail sampling
//
// Every tier's Tracer owns two fixed-size ring buffers of completed
// span records (Config.RingSize recent spans, Config.CaptureSize
// captured spans — defaults 2048/512). Span records are plain structs
// copied by value into pre-allocated slots, and finished *Span values
// are pooled, so a tracer's memory is fixed at construction: sustained
// load overwrites old spans, it never grows the process. Sizing: one
// record is a few hundred bytes, so the defaults cost under a megabyte
// per process; size RingSize to cover a few seconds of peak span rate
// (the window a debugger has between an incident and a scrape).
//
// Retention is tail-based: when a local root span ends, the whole
// trace (every span sharing its trace id still present in the recent
// ring) is copied into the captured ring iff the root was slow
// (duration ≥ Config.SlowThreshold, default 250ms) or ended badly —
// HTTP status ≥ 500 or a non-empty outcome ("shed", "failover",
// "error", "unroutable"). A request that survives failover is
// therefore always captured even though its status is 200: the
// gateway marks the root's outcome "failover". Fast, healthy traces
// only live in the recent ring until overwritten.
//
// # Logs and metrics correlation
//
// Structured `event=` log lines funnel through Eventf/SpanEventf;
// SpanEventf appends " trace_id=<id> span_id=<id>" when the context
// carries a live span and records the event name on the span, so a log
// line and the trace it belongs to cross-reference both ways. Latency
// histograms accept exemplars (metrics.Histogram.ObserveExemplar): the
// serving tiers attach the current trace id to their sage_*_seconds
// observations, and GET /debug/trace exposes the exemplar table next
// to the spans.
//
// # Debug surface
//
// Every sagectl server run with -debug serves GET /debug/trace
// (DebugHandler: recent + captured spans plus histogram exemplars as
// JSON; ?trace=<hex id> filters to one trace) and the net/http/pprof
// endpoints. One-line profile capture against a live node:
//
//	go tool pprof "http://localhost:8080/debug/pprof/profile?seconds=10"
//
// (heap: /debug/pprof/heap, goroutines: /debug/pprof/goroutine, block:
// /debug/pprof/block). `sagectl trace -from http://host:port` fetches
// /debug/trace and pretty-prints each trace as an indented span tree.
//
// # Cost discipline
//
// The package obeys the same hot-path rules as internal/metrics: a nil
// *Tracer is a valid disabled tracer — every method on it (and on the
// nil *Span it hands out) is a nil-check no-op, and Middleware on a
// nil tracer returns the wrapped handler unchanged, so a server built
// without -debug pays nothing and the pinned serving allocation
// budgets hold with tracing compiled in. On the enabled path Span.End
// is allocation-free (a struct copy into a ring slot plus a pool put);
// internal/trace/alloc_test.go pins it.
package trace
