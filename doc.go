// Package sage is a from-scratch Go reproduction of "Privacy Accounting
// and Quality Control in the Sage Differentially Private ML Platform"
// (Lécuyer, Spahn, Vodrahalli, Geambasu, Hsu — SOSP 2019).
//
// Sage enforces one global (εg, δg) differential-privacy guarantee over
// every model and statistic released from a sensitive data stream. The
// two contributions reproduced here are:
//
//   - Block composition (internal/core): privacy-loss accounting at the
//     granularity of stream blocks, so pipelines train on overlapping,
//     adaptively chosen windows while the stream-wide loss stays at the
//     maximum per-block loss — new blocks arrive with fresh budget and
//     the platform never runs out.
//   - Privacy-adaptive training (internal/adaptive) with SLAed
//     validation (internal/validation): one retry loop that doubles the
//     budget up to its cap, then the data, until a statistically
//     rigorous, DP-corrected ACCEPT (or REJECT) test passes, or reports
//     ErrInsufficientBudget once both run out — over a stream's prefixes
//     (adaptive.Search) or a block ledger's newest blocks
//     (adaptive.StreamTrainer).
//
// Substrates — DP mechanisms with an RDP accountant (internal/privacy),
// AdaSSP and DP-SGD trainers (internal/ml), DP statistics
// (internal/stats), a TFX-like pipeline framework (internal/pipeline),
// synthetic Taxi/Criteo streams (internal/taxi, internal/criteo), and a
// workload simulator (internal/workload) — are all implemented on the
// Go standard library alone.
//
// # Performance architecture
//
// Every evaluation sweep (internal/experiments Fig. 5–8, Table 2, and
// workload.Sweep) runs on the deterministic parallel experiment engine
// of internal/parallel: the sweep's nested loops are flattened into an
// indexed grid of independent cells, handed to a bounded set of workers
// through an atomic counter, and collected in grid order. Determinism
// is preserved by construction — each cell derives its RNG with
// rng.MixSeed from the cell's own coordinates (pipeline, target, mode,
// size, run), never from scheduling — so any worker count, including 1,
// produces bit-identical figures. A Workers option on every
// experiment's Options struct (and -workers on cmd/sage-experiments)
// bounds a grid's concurrency; the default is runtime.GOMAXPROCS(0).
// The determinism regression tests in internal/experiments pin this
// contract down.
//
// cmd/sage-experiments runs its selected experiments concurrently, one
// goroutine each, so the tail of one grid overlaps the others instead
// of idling at a per-experiment barrier; the Go runtime is the one
// scheduler they share, and buffered per-experiment output keeps stdout
// byte-identical for any -workers value. Because scheduling never feeds
// randomness, interleaving whole experiments is as invisible as
// interleaving cells — pinned by the interleaved-experiments
// determinism test.
//
// DP-SGD noise calibration (privacy.CalibrateSGDNoise) is memoized
// process-wide by (N, BatchSize, Epochs, ε, δ): the sweeps re-run
// identical plans thousands of times, and a cache hit replaces a
// ~4 ms RDP bracketing search with a lock-free lookup. Each probe of
// that search asks only whether σ meets (ε, δ): ε is a minimum over
// RDP orders, so the first order that proves it answers yes, and an
// order is dropped as soon as its partial sum — which no later term
// lowers — rules it out. The probes and their answers are those of the
// accountant's full sum (SGDEpsilon, the tests' oracle), so σ is the
// same to the bit.
// privacy.SGDCalibrationStats exposes the hit/miss counters, which
// cmd/sage-experiments reports after every run.
//
// # Serving layer
//
// internal/store is the wide-access Model & Feature Store plus the
// Serving Infrastructure of Fig. 1. Published bundles are deep-copied
// (releases are immutable under the §2.2 threat model) and served over
// HTTP: GET /models lists releases, GET /models/{name}/provenance
// exposes the audit view (blocks read, budget spent, validator
// decision), POST /predict answers one row, POST /predict/batch runs N
// rows through the release's model in one call with per-row errors — a
// wrong width, or a prediction JSON cannot carry (features that overflow
// the model; a 400 on /predict) — reported positionally, so a client's
// bad row fails neither the batch nor, at the gateway, a replica's
// breaker; and GET /features serves the bundle's released aggregate
// tables (Listing 1's per-hour speed join; &index= for single-value
// serving-time joins). A release's model is built once, as the release
// enters the store (Publish, or Apply for WAL replay and replica
// pushes), and a release whose model does not build never enters it:
// every stored release carries the model it serves, whichever version a
// request pins. Every ml.Model is safe for concurrent Predict and
// PredictBatch (the MLP takes its activation buffers per call from a
// pool of its own), so every connection predicts on that one model in
// parallel, and the server keeps no model state. `sagectl serve` runs the
// whole loop — stream → DP aggregate → pipelines → publish → serve —
// as a demo preset over the daemon below, not a loop of its own;
// BENCH_serving.json records HTTP-level throughput (batched at 256
// rows, ~1.4M rows/s on one-hot taxi rows and ~213K on random 17-digit
// ones, vs ~17K rows/s singleton; two shared vCPUs).
//
// Underneath every handler sits a connection-level fast path. The
// immutable read endpoints (model list, provenance, whole feature
// tables) are served from pre-encoded JSON keyed on the store's
// generation counter: the store only changes on publish, so responses
// replay byte-for-byte until a publish flushes the cache. The batch
// predict path pools its whole working set (the request body, decoded
// row buffers, the valid/position split, prediction outputs, and the
// response encode buffer) in a sync.Pool, reads a body httpkit has
// capped at its route's budget, and scans and writes its JSON by hand
// (internal/store/batchjson.go: one pass over the rows, no reflection,
// a bare digit between commas — what one-hot rows are made of — taken
// in one compare, byte-for-byte encoding/json's output, both pinned by
// differential fuzzing) — a warm 256-row request runs in 26 allocations
// where encoding/json took ~300 pooled and ~2200 unpooled, a body past
// the row limit is abandoned there, and a scratch one maximal request
// has grown is dropped instead of pooled. With a tracer, the handler's
// decode, predict and encode are child spans (store.decode,
// store.predict, store.encode) of the request's server span.
//
// # Replicated serving tier
//
// internal/replica completes Fig. 1's last arrow — accepted models
// "bundled with feature transformation operators and pushed into
// serving" — as a replicated tier. A trainer-side Publisher owns the
// authoritative store and pushes each release's canonical bytes to N
// replica Servers over HTTP; each replica applies them into a local
// store and serves the identical read API through the *same*
// store.Server handlers (shared code, so primary and replicas cannot
// drift — the e2e test asserts byte-identical responses across all of
// them).
//
// A release has exactly one serialization: store.Bundle.CanonicalBytes
// (internal/core's audit encoding — fixed field order, sorted feature
// keys, IEEE-754 bit patterns). The push body is byte for byte the
// store's WAL record and the digest's preimage, and
// store.DecodeCanonicalBundle, the one decoder (fuzzed), accepts
// nothing that would re-encode differently.
//
// The push protocol is versioned and idempotent. Versions are assigned
// once by the publisher's store and travel inside the bundle; a replica
// accepts version watermark+1 (atomically, under its store's write
// lock, so a racing /predict sees old or new but never half), acks
// duplicates after verifying the release's digest, and answers
// out-of-order pushes with a 409 carrying its applied-version
// watermark. Every delivery is a reconcile (below), and so is every
// retry: a gap reply, a transport error and a 5xx are all followed,
// after an exponential backoff, by the same catch-up; late joiners are
// just the degenerate case: watermark 0, deliver everything. A refused
// token, a malformed or oversized bundle and a divergent release (same
// version, different digest) are permanent errors and never retried — a
// release can be repeated, never replaced.
// `sagectl replica` runs a replica; `sagectl serve -push <urls>` (or
// `sagectl daemon -push`) publishes through the tier.
// BENCH_replica.json records push latency and per-replica throughput.
//
// The push path is hardened for deployment across trust boundaries:
// POST /push can be gated behind a shared-secret bearer token (checked
// in constant time; the read API stays open), a push body is the
// release's canonical bytes, never re-encoded (the replica answers a
// body with any Content-Encoding but identity 415 without reading it,
// and one past the 64 MiB budget 413), and a publisher has one way to
// deliver: a reconcile asks a replica which versions it holds and
// delivers what is missing (Publisher.Converge; Sync runs one per
// replica at once). The daemon runs it from one converger goroutine
// per replica, which each release wakes and no tick waits on, so a hung
// or refusing replica holds up neither the privacy loop nor the other
// replicas, and no replica has two requests in flight. A publisher
// restart or a replica that lost its disk converges with no operator
// action.
//
// # Durable platform core
//
// Sage's guarantee is only as strong as the ledger's memory: an
// in-memory AccessControl that dies between granting a Request and the
// release being published loses privacy spend, and a restarted process
// would re-grant budget that was already consumed. internal/wal and
// internal/durable close that hole. wal.Log is a checksummed,
// length-prefixed append-only log: appends are one write(2) plus
// fdatasync, recovery truncates torn or corrupt tails back to the last
// intact record boundary, and atomic snapshot+truncate compaction
// (write temp, sync, rename) keeps recovery time bounded. durable.Open
// threads one log under each stateful layer: core.AccessControl
// journals one register/request/refund/retire record per mutation per
// shard (a register record carries the block's admission charge) and
// replays them through its own Apply; store.Store journals every
// release's canonical bytes — the same bytes the replica push digest
// covers, so the WAL certifies exactly what replicas verified.
//
// The crash-consistency rule is journal-before-acknowledge: a request's
// spend record reaches the log after admission checks pass but before
// any budget is deducted or the caller unblocked. A crash can therefore
// leave the recovered ledger with spends that were never acknowledged —
// conservative, wasted budget — but never the reverse; refunds only
// ever follow their request in log order, so recovered per-block loss
// is always at least the budget genuinely consumed. Fault-injection
// tests in internal/durable cut the logs at every record boundary (and
// corrupt every record's checksum in turn) and pin both exact-state
// recovery and the never-under-count invariant. A block's ledger state
// is its running (ε, δ) loss and its charge count, and a compaction
// snapshot stores exactly that (layout 2), so a reopened ledger reads
// every loss bit for bit as the live one did, whether or not a
// compaction ran before the crash; layout-1 snapshots, which listed
// each block's charges, still open (testdata/v1-snapshot-*).
//
// The write path scales with cores because the paper's block
// composition theorem makes per-block state independent: only the
// global (εg, δg) ceiling is shared. core.AccessControl stripes its
// block map into N shards keyed by core.ShardOf (a Fibonacci hash of
// the block id — a stable on-disk contract, since it decides which WAL
// segment a block's records live in). Each shard has its own mutex and
// journal, and the ceiling is enforced per block under that lock: an
// operation holds every involved shard across check, journal and
// deduct, so no interleaving of concurrent charges can race past εg
// (the shared atomic watermarks are raised after a spend and read only
// by tests; nothing is reserved against them). Multi-shard operations
// lock shards in index order and journal one sub-record per touched
// shard; awaiting all segment flushes concurrently means a cross-shard
// op pays the slowest flush, not the sum.
//
// Durability amortizes two ways. Per segment, wal.Log group-commits —
// it has no other commit path, synced or not: appenders stage frames
// into a batch chain (a lone append is a batch of one), exactly one
// waiter is elected driver (it rides out the predecessor batch, lingers
// while runnable appenders pile on when a per-file fdatasync follows,
// then seals), and the whole cohort
// is acknowledged by one write(2) + one flush. Across segments,
// wal.SyncGroup replaces per-file fdatasync — which serializes on the
// filesystem journal — with one filesystem-wide syncfs covering every
// cohort member's writes (a member joins only after its write(2)
// returns; the cohort seals before the flush, so coverage is exact).
// Journal-before-acknowledge is preserved bit-for-bit: no appender is
// unblocked before the flush that covers its frame returns, and a
// failed flush poisons the log (and group) rather than acking
// non-durable writes. On platforms without syncfs, durable.Open falls
// back to per-file sync.
//
// Recovery replays segments shard-by-shard in segment-index order;
// no cross-segment ordering is needed because shards share no per-block
// state and the ceiling is recomputed from the merged blocks. The
// segment count is fixed when the directory is created (the on-disk
// layout always wins over the configured shard count — ShardOf(id, N)
// must keep meaning the same file), and a mixed or ambiguous layout
// fails open loudly. A crash may leave segments flushed unevenly; the
// fault-injection tests cut one segment at every boundary while others
// stay whole and require untouched shards to recover byte-exact and the
// cut shard to never under-count acknowledged spend. The contended
// write path is gated by BenchmarkLedgerParallelCharge
// (BENCH_ledger.json): with 8 writers on a 2-vCPU VM, one
// group-committed segment measures ≈ 5-10 µs per charge and 8
// segments + SyncGroup ≈ 11-15 µs.
//
// # Continuous operation: sagectl daemon
//
// internal/daemon runs the full Fig. 1 loop forever on top of the
// durable core — the platform as the paper operates it, over an
// indefinitely growing database. Each tick runs four phases from one
// table: ingest the next time-window block (synthetic taxi rides
// generated per-block from a mixed seed, so restarts regenerate
// identical data) and admit it to the ledger charged with its share of
// the DP hour_speed release, as one journal record; run one
// privacy-adaptive training attempt (round-robin across pipelines;
// blocked pipelines wait for fresh blocks, per §3.2's "Sage never runs
// out of budget as long as the database grows"), publishing and
// pushing an accepted bundle to the replica tier; retire blocks that
// fall out of the retention window (raw data deleted via the retention
// hook); and periodically compact the WALs. SIGTERM drains gracefully;
// SIGKILL is the tested path, and recovery repairs nothing: an
// in-process matrix abandons the daemon at every phase boundary, the
// kill/relaunch e2e in cmd/sagectl kills the real binary mid-loop, and
// both require the restarted daemon to report exactly what the logs
// hold — ledger remaining-budget, store versions, and replica
// watermarks, with replicas converging through the restarted
// publisher's reconcile alone. GET /daemon/status exposes the ledger,
// store, and replica watermarks, one mux with the serving API's rows.
// BENCH_wal.json records the journaling overhead (about a microsecond
// per append before the flush).
//
// The substrate's hot kernels are tuned for the sweeps' and the
// daemon's scale: a train/test split keeps the permutation's membership
// but hands both halves over in storage order, so the passes over them
// stream memory instead of chasing a shuffled pointer per row; AdaSSP
// and the ridge ERM share one moment pass (ml.moments over
// linalg.Moments) that reads each row once, where it is stored, into the
// pairs of its non-zeros, scales and clips those and touches only the
// cells they reach, in the upper triangle, mirrored once — one serial
// walk, so a tick takes what it takes whatever the other core is doing;
// the validators fit the ERM only when the REJECT test needs it;
// Cholesky factorization (in place) and solves run on contiguous row
// slices, a linear fit's d×d matrices — the moments, SolveSPD's factor,
// MinEigen's shifted matrix — come from one workspace pooled in ml, power
// iteration reuses its work buffers, DP-SGD realizes
// Poisson sampling with geometric skips (O(q·n) draws per step instead
// of n), pools its gradient scratch and, for a linear model, clips the
// per-example gradient's coefficient and adds it with one axpy instead
// of materializing it (ml.TrainSGD), and the SLAed validators stream
// over losses without copying. What runs before an experiment's first
// cell can start is kept short: ingest streams (taxi.Ingest,
// criteo.Pipeline) — each ride or impression is drawn, filtered and
// featurized before the next is drawn, the hour_speed sums accumulate
// as they pass (stats.GroupSums), and rows
// are carved from 24 KiB chunks as they are written (data.Rows), so no
// stream-sized buffer is allocated — the Zipf sampler starts its search
// from a guide table, and an attempt in the workload simulator costs one
// counter read and one closed form per grid budget (internal/workload).
// BENCH_optimized.json gates the Fig. 7 pass, one iteration of the
// daemon's adaptive search, one AdaSSP fit, the DP-SGD calibration cache
// and those kernels; the before/after tables are in CHANGES.md.
//
// This package comment is the tour and the system inventory; ROADMAP.md
// holds the open items and CHANGES.md each change's before/after
// numbers. bench/'s exp-sweep workload and cmd/sage-experiments
// regenerate the paper's tables and figures at reduced and at full
// scale; bench_test.go keeps the gated Fig. 7 bench, the ablations and
// the kernel micro-benchmarks.
package sage
