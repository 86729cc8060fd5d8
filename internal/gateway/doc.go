// Package gateway is Sage's fault-tolerant routing tier: one HTTP front
// door over N serving replicas that turns "some replicas exist" into "a
// fleet that keeps answering". The design is resilience against an
// explicit fault model — the same one internal/faulty injects and the
// chaos tests verify — rather than assumed good behavior.
//
// # Fault model
//
//   - crash: a replica's connections are refused or reset. The failed
//     request fails over to another replica (one retry, different
//     backend), the replica's circuit breaker opens after a run of
//     consecutive failures, and active health probes keep it out of
//     rotation until it answers again.
//   - stall: a replica accepts connections and never answers. Every
//     proxied attempt carries a deadline (and propagates the client's
//     context cancellation), so a stall costs one bounded attempt, not
//     a pinned goroutine; the timeout counts as a breaker failure.
//   - error: a replica answers 5xx. Failover and breaker accounting
//     treat it like a transport failure; the second backend's reply is
//     served either way.
//   - partial response: a replica delivers fewer bytes than it
//     advertised. The gateway buffers each upstream response and
//     verifies it is complete *before* forwarding a single byte, so a
//     truncated upstream read fails over instead of truncating the
//     client — the canonical-bytes invariant (every replica's reads are
//     byte-identical to the primary) survives failover.
//   - lag: a live replica that missed pushes would serve *stale* bytes,
//     which is a silent canonical-bytes violation. Health probes read
//     each replica's applied-version watermarks (GET /replica/status)
//     and a backend trailing the fleet's newest watermark is drained —
//     kept out of routing but probed until it catches up, then returned
//     to rotation. Drained ≠ dead: no breaker opens, no state is lost.
//
// # Circuit breaker state machine
//
// Each backend carries its own Breaker (breaker.go):
//
//	closed ──(FailThreshold consecutive failures)──▶ open
//	open ──(Cooldown elapses)──▶ half-open, admitting ONE probe request
//	half-open ──(probe succeeds)──▶ closed
//	half-open ──(probe fails)──▶ open, for a fresh cooldown
//
// A success in the closed state resets the consecutive-failure count,
// so a breaker trips on a *run* of failures, not an accumulated total.
// Breakers are fed by request truth (transport errors, per-attempt
// deadline timeouts, 5xx replies); health probes are a second,
// independent detector. If a stale probe view marks every backend
// unroutable, routing falls back to breaker-only judgment — a fleet is
// never 503'd into silence by its own health checker.
//
// # Routing
//
// Routing is least-loaded (gateway-side in-flight count per backend,
// round-robin among ties), which also implements slow-start avoidance:
// a stalling-but-not-yet-tripped backend accumulates in-flight requests
// and naturally stops attracting new ones. A failed attempt is retried
// exactly once, on a different backend.
//
// # Shed-before-collapse admission
//
// Overload gets the same design-for-failure treatment (admission.go):
// a bounded in-flight semaphore per route class (read / predict /
// batch, declared on each row of store.API) refuses excess load with
// an immediate 503 + Retry-After
// instead of queueing toward collapse. Above a global soft threshold
// (¾ of total capacity) new batch work — the most expensive thing the
// serving tier does — is shed even when its own class has room, so the
// remaining capacity keeps serving cheap immutable reads and single
// predictions. An overloaded gateway degrades into a read-mostly
// cache; it does not fall over.
//
// # Memory
//
// A proxied request's body, its buffered upstream response and each
// attempt's outgoing URL, header and context live in one hopBuffers set
// from a sync.Pool (hopbuf.go), not in buffers allocated per request.
// The set has one slot per attempt, so a failover never rewrites what
// the first attempt's transport may still be reading. Each backend's
// base URL is parsed once, by New, and an attempt's URL is built from
// it by value, so the outgoing request is the one allocation
// WithContext makes. An attempt's context is its slot's attemptContext:
// the slot's one timer bounds the attempt by AttemptTimeout, one
// context.AfterFunc carries the client's cancellation, and the context
// net/http derives per request registers through its AfterFunc method.
//
// The set's users are the handler, until its w.Write returns, and each
// attempt's request body, until the transport closes it: the
// http.RoundTripper contract lets a transport read a request — its body,
// URL and header — after RoundTrip has returned, with a response or an
// error, so the set carries a reference count and the last user to
// finish clears the slots and returns it. A request with no body holds
// no reference of its own: the contract lets a caller reuse it once the
// response body is closed, which forward does before it returns; if its
// RoundTrip fails, nothing tells when the transport is done with it, so
// the set is spent and goes to the collector. A slot's context serves a
// later attempt only once its set comes back from the pool; a callback
// the earlier attempt left under way — its timer's, its client's, or
// the stop net/http's read loop calls after the response — cancels only
// past the later attempt's own deadline or with its own client gone,
// and a stop unregisters only its own registration. Nobody waits — the
// handler drops its reference and leaves, so a slow upstream write
// never holds an admission slot. A set whose buffers grew past
// maxPooledHopBytes (4 MiB) is left to the collector instead, and a
// slot's header map past maxPooledHeaders keys is dropped from the set. Pooling changes no
// bound: each admitted request still buffers at most its row's budget,
// so worst-case in-flight request bytes at default Limits stay 128 ×
// 1 MiB + 16 × 32 MiB = 640 MiB. A body past 32 KiB goes upstream
// chunked, one chunk from the set's buffer, not through the fresh
// 32 KiB copy buffer net/http makes to send a declared length; a
// smaller one keeps its length, as there that buffer is body-sized and
// a chunk costs more writes.
//
// # What the gateway refuses
//
// POST /push is refused outright: replica membership and bundle
// fan-out belong to the publisher (which pushes to each replica
// directly and heals gaps); load-balancing a mutation across the fleet
// would apply it to one replica and desynchronize the tier. A body past
// its row's budget (a GET's is 0) is 413 and a path the serving API
// does not declare is the mux's 404; neither reaches a replica.
//
// GET /gateway/status reports per-backend health, breaker state,
// watermarks, and shed/retry counters for operators and tests.
package gateway
