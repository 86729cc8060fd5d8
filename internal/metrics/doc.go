// Package metrics is a stdlib-only instrumentation library: counters,
// gauges, and fixed-bucket histograms collected in a Registry and
// exposed in the Prometheus text format via TextExpose. A strict
// parser of that same format (Parse) lives alongside it so tests and
// CI can round-trip the exposition instead of grepping logs.
//
// # Design
//
// Hot paths are lock-free: a Counter is a single atomic,
// Histogram.Observe is a bounds scan plus two atomic updates. A gauge
// is a GaugeFunc, read at exposition time from state its owner already
// keeps, so there is no second copy of it to keep in step. Metric
// handles are resolved once at construction (Registry.Counter etc.
// panic on misuse, which is a programming error, not runtime input)
// and then incremented directly — there are no map lookups or label
// hashing on the increment path, so instrumentation fits inside the
// repo's pinned allocation budgets (zero allocs per Inc/Observe).
//
// Every metric method is nil-receiver safe: an uninstrumented
// component (nil *Counter, nil *Histogram) pays a single branch, so
// packages can expose optional instrumentation without threading
// conditionals through their hot paths.
//
// Registries are per-instance, not global: tests and multi-server
// processes create one Registry per server, so nothing collides and
// nothing leaks between cases.
//
// # Naming convention
//
// Metric names follow sage_<tier>_<name>_<unit>:
//
//   - tier is the subsystem that owns the series: gateway, replica,
//     store, daemon, or wal.
//   - name describes the measured thing in snake_case.
//   - unit is the base unit: seconds for durations, bytes for sizes,
//     and a _total suffix for unitless cumulative counters
//     (e.g. sage_gateway_requests_total). Gauges of unitless values
//     omit the unit (e.g. sage_daemon_ledger_eps_spent).
//
// Examples: sage_wal_append_seconds, sage_replica_pushes_total,
// sage_daemon_ledger_eps_remaining, sage_gateway_request_seconds.
//
// Labels identify sub-streams of one logical metric (route class,
// backend URL, shard index, WAL segment) and are fixed at
// construction; free-form values (error strings, block IDs) belong in
// structured logs, not labels.
package metrics
