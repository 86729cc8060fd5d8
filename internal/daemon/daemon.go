// Package daemon runs Sage as the paper actually describes it: a
// *platform*, not a batch job. Fig. 1's loop — blocks arriving from a
// stream, pipelines retraining as budget accrues, accepted bundles
// published and pushed into serving, exhausted blocks retired by the
// DP-retention policy — runs here continuously, on top of the durable
// platform core (internal/durable), so the process can be killed at any
// instant and resume exactly where its write-ahead logs say it was.
//
// # The loop
//
// Every tick the daemon:
//
//  1. ingests the next time-window block from the stream (synthetic
//     taxi rides, generated per-block from a seed mixed with the block
//     ID, so a restarted daemon regenerates identical data) and admits
//     it to the ledger already charged for its share of the DP
//     hour_speed aggregate release (Listing 1) — one ledger mutation,
//     one journal record (core.AccessControl.AdmitBlock);
//  2. attempts one privacy-adaptive training run (round-robin over the
//     configured pipelines) through adaptive.StreamTrainer — the §3.3
//     retry loop under block composition. A pipeline blocked on budget
//     simply waits for fresh blocks, exactly the paper's "Sage never
//     runs out of budget as long as the database grows". Training
//     randomness — the splits and the DP noise — derives from (Seed,
//     block, pipeline): a restarted daemon's tick count starts over, its
//     block numbers do not, so every release draws fresh noise;
//  3. publishes an accepted model+features bundle into the durable
//     store and wakes the replica tier's convergers, one goroutine per
//     replica, which reconcile it (versioned idempotent push of each
//     missing release's canonical bytes, with optional bearer-token
//     auth) while the loop moves on: no tick waits on a replica;
//  4. retires blocks that fall out of the retention window (forced
//     retirement journaled, raw data deleted via the retention hook);
//  5. periodically compacts both write-ahead logs (snapshot+truncate)
//     so recovery time stays bounded.
//
// Steps 2 and 3 are one phase (train): step loops over the phase table
// in phases.go, which also owns the names spans and metrics carry;
// status.go holds the introspection surface.
//
// # Crash recovery
//
// All durable state lives in the WAL directory. On start the daemon
// replays it, re-derives the stream position from the ledger (next
// block = highest registered block + 1), regenerates the raw data of
// every non-retired block (retired blocks' data stays deleted — that is
// the retention policy's whole point), and builds the replica publisher
// over the recovered store and syncs it: every replica is asked which
// versions it holds and sent what it is missing, so a push that died
// mid-flight converges without operator action. Recovery repairs nothing:
// every ledger mutation the loop makes is one journal record, so New
// reports exactly what a bare durable.Open of the directory holds,
// wherever the process died. The kill-point matrix in this package pins
// that at every phase boundary, and the kill/relaunch e2e test in
// cmd/sagectl on the real binary: ledger remaining-budget, store
// versions, and replica watermarks are identical across a SIGKILL.
//
// Ordering makes the two logs' independent failure modes safe: budget
// is journaled before the release that consumed it is journaled, and
// the release is journaled before it is pushed — so a crash can leave
// spend without its release (conservative: wasted budget) but never a
// served bundle the ledger does not account for.
package daemon

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/trace"
)

// blockHours is the width of one stream block in stream hours: daily
// blocks, event-level privacy.
const blockHours = 24

// Config configures a daemon.
type Config struct {
	// Dir is the WAL directory (created if absent). All durable state
	// lives here; point a restarted daemon at the same directory and it
	// resumes.
	Dir string
	// Global is the (εg, δg) per-block ceiling.
	Global privacy.Budget
	// Tick is the loop period (default 1s). The first iteration runs
	// one tick after Run starts, so a freshly restarted daemon can be
	// inspected in its exact recovered state before it moves.
	Tick time.Duration
	// RowsPerBlock is the synthetic stream rate (default 4000 rides per
	// block).
	RowsPerBlock int
	// Pipelines is how many model pipelines share the stream (default 3).
	Pipelines int
	// SLATargets are the per-pipeline validator MSE targets, cycled;
	// default serveTargets-like values that the taxi stream can meet.
	SLATargets []float64
	// FeatureEps is the ε charged per block for the hour_speed
	// aggregate release (default 0.05; 0 disables the DP aggregate).
	FeatureEps float64
	// Epsilon0 is the adaptive search's starting budget (default
	// εg/8 — the paper's conserving schedule).
	Epsilon0 float64
	// EpsilonCap bounds one attempt's budget (default εg/2: a
	// continuously-operating platform should never let a single
	// adaptive search drain a block to zero, and blocks already carry
	// the FeatureEps charge, so the full εg is unreachable anyway).
	EpsilonCap float64
	// MinWindow is the smallest training window in blocks (default 6;
	// capped at the number of available blocks).
	MinWindow int
	// Retention keeps only the newest N blocks: older ones are retired
	// (journaled) and their raw data deleted. 0 disables age-based
	// retirement; budget-exhaustion retirement still applies.
	Retention int
	// Seed derives all stream and training randomness (default 17).
	Seed uint64
	// PushEndpoints are replica base URLs to push releases to.
	PushEndpoints []string
	// PushToken is the shared-secret bearer token for /push.
	PushToken string
	// MaxTicks stops the loop after N iterations (0 = run until the
	// context is cancelled). Tests and demos use it.
	MaxTicks int
	// CompactEvery compacts the WALs every N ticks (default 64).
	CompactEvery int
	// CompactBytes additionally compacts any individual WAL (a ledger
	// segment or the store log) whose on-disk size exceeds this many
	// bytes, checked every tick. It bounds recovery time by log size
	// rather than by tick cadence — a write-heavy shard is compacted as
	// soon as it is oversized instead of waiting out the CompactEvery
	// countdown. 0 disables the size trigger.
	CompactBytes int64
	// LedgerShards stripes the privacy ledger (and its WAL, one segment
	// per shard) N ways for concurrent charge throughput. Only consulted
	// when the directory is created: an existing directory's on-disk
	// layout wins. Default 1.
	LedgerShards int
	// NoSync disables per-append fsync (tests only).
	NoSync bool
	// DrainTimeout bounds every replica sync the daemon waits on: the
	// startup sync in New and the final one in Close (default 30s;
	// there is no unbounded sync). A start or a graceful shutdown
	// should bring the tier current — push every straggler its missing
	// releases — but an unreachable or hung replica must not park the
	// daemon: past the deadline the sync is cut short, and the replica
	// converges once its converger, retrying every retryAfter, gets
	// through to it (its gateway keeps it drained until it catches up).
	// Shutdown ordering stays sync-then-close so replicas are as current
	// as possible the moment the WAL seals.
	DrainTimeout time.Duration
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
	// Tracer records loop traces: every tick is a root span with one
	// child span per phase (ingest/train/retention/compaction), the WAL
	// hangs its cohort spans under the same tracer, and the HTTP surface
	// continues incoming traceparents and serves GET /debug/trace and
	// /debug/pprof/. Nil disables tracing.
	Tracer *trace.Tracer
}

func (c *Config) applyDefaults() {
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.RowsPerBlock <= 0 {
		c.RowsPerBlock = 4000
	}
	if c.Pipelines <= 0 {
		c.Pipelines = 3
	}
	if len(c.SLATargets) == 0 {
		c.SLATargets = []float64{0.013, 0.015, 0.014, 0.016, 0.0135}
	}
	if c.FeatureEps < 0 {
		c.FeatureEps = 0
	}
	if c.Epsilon0 <= 0 {
		c.Epsilon0 = c.Global.Epsilon / 8
	}
	if c.EpsilonCap <= 0 {
		c.EpsilonCap = c.Global.Epsilon / 2
	}
	if c.EpsilonCap < c.Epsilon0 {
		c.EpsilonCap = c.Epsilon0
	}
	if c.MinWindow <= 0 {
		c.MinWindow = 6
	}
	if c.Seed == 0 {
		c.Seed = 17
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Daemon is one continuously-operating Sage platform instance.
type Daemon struct {
	cfg  Config
	plat *durable.Platform
	db   *data.GrowingDatabase
	srv  *store.Server
	pub  *replica.Publisher

	// reg is the daemon's metric registry, served at GET /metrics. The
	// WAL and store-server families register into it too, so one scrape
	// sees the whole node. Ledger ε and loop-counter series are gauge
	// funcs over the authoritative state — no parallel bookkeeping.
	reg      *metrics.Registry
	phaseSec []*metrics.Histogram // indexed like phases

	mu          sync.Mutex
	ticks       int
	nextBlock   data.BlockID
	accepted    int // ACCEPTed runs; each publishes, so also the published count
	blocked     int
	rejected    int
	retried     int
	compactions int
	// trainIterations counts pipeline runs: a search is one training run
	// of one or more iterations.
	trainIterations int
	// lastSpeeds is the hour_speed table of the newest ingested block —
	// the serving-time join table accepted bundles ship (only the loop
	// goroutine touches it).
	lastSpeeds []float64
	// nextPipe is the fair round-robin turn pointer (loop goroutine
	// only; advances when a pipeline actually trains, see train).
	nextPipe int
	// pipes are the model pipelines, built once in New. trainer runs
	// their privacy-adaptive searches, one at a time on the loop
	// goroutine, so they share the window it owns and a warm tick grows
	// none (loop goroutine only).
	pipes   []*pipeline.Pipeline
	trainer *adaptive.StreamTrainer
	// ingestBuf is the buffer every block is ingested into: Insert copies
	// the headers into the block, and ingestBlock clears them, so it
	// holds no row a retirement deletes.
	ingestBuf []data.Example

	// wakes[i] wakes the converger of PushEndpoints[i] (see converge);
	// stopConverging cancels them all, and converging waits for them.
	wakes          []chan wake
	stopConverging context.CancelFunc
	converging     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// New opens (or recovers) the durable platform in cfg.Dir and prepares
// the loop: replay both WALs, regenerate raw data for live blocks,
// resume the stream at the recovered block watermark, and sync the
// replica tier. The daemon does not start looping until Run.
func New(cfg Config) (*Daemon, durable.Stats, error) {
	cfg.applyDefaults()
	if err := cfg.Global.Validate(); err != nil {
		return nil, durable.Stats{}, err
	}
	if cfg.Global.Epsilon <= 0 {
		return nil, durable.Stats{}, fmt.Errorf("daemon: global ε must be > 0")
	}
	if !cfg.Global.Covers(privacy.Budget{Epsilon: cfg.FeatureEps}) {
		return nil, durable.Stats{}, fmt.Errorf("daemon: feature ε %v exceeds the global ceiling %v: no block could be admitted", cfg.FeatureEps, cfg.Global)
	}
	if err := replica.CheckEndpoints(cfg.PushEndpoints); err != nil {
		return nil, durable.Stats{}, fmt.Errorf("daemon: push endpoints: %w", err)
	}

	d := &Daemon{cfg: cfg, reg: metrics.New()}
	d.db = data.NewGrowingDatabase(data.TimePartitioner{Window: blockHours})
	plat, stats, err := durable.Open(cfg.Dir, core.Policy{Global: cfg.Global}, durable.Options{
		NoSync:       cfg.NoSync,
		LedgerShards: cfg.LedgerShards,
		Metrics:      d.reg,
		Logf:         cfg.Logf,
		Tracer:       cfg.Tracer,
		// DP-informed retention (§3.2): a retired block's raw data is
		// deleted. Registered before replay so recovery reproduces
		// retirement stickiness; during replay the database is still
		// empty and the delete is a no-op.
		OnRetire: func(id data.BlockID) { d.db.Delete(id) },
	})
	if err != nil {
		return nil, stats, err
	}
	d.plat = plat
	d.srv = store.NewServer(plat.Store)
	d.srv.Instrument(d.reg)
	d.instrument()
	d.pipes = make([]*pipeline.Pipeline, cfg.Pipelines)
	for idx := range d.pipes {
		d.pipes[idx] = newPipeline(idx, cfg.SLATargets[idx%len(cfg.SLATargets)])
	}
	d.trainer = &adaptive.StreamTrainer{
		AC: plat.AC, DB: d.db,
		Epsilon0:   cfg.Epsilon0,
		EpsilonCap: cfg.EpsilonCap,
		Delta:      cfg.Global.Delta / 100,
	}

	// Resume the stream where the ledger says it stopped. Retired
	// blocks stay deleted; every live block's raw data is regenerated
	// bit-identically from the per-block seed.
	recovered := plat.AC.Blocks()
	for _, id := range recovered {
		d.nextBlock = id + 1
		if !plat.AC.Retired(id) {
			d.lastSpeeds = d.ingestBlock(id)
		}
	}
	if len(recovered) > 0 {
		cfg.Logf("daemon: recovered %d blocks (next %d), %d releases, ledger loss %v",
			len(recovered), d.nextBlock, countVersions(plat.Store), plat.AC.StreamLoss())
	}

	// No endpoints is a publisher that pushes nowhere.
	d.pub = replica.NewPublisher(plat.Store, cfg.PushEndpoints, replica.WithAuth(cfg.PushToken))
	// Push lag per replica: how many authoritative versions the replica
	// had not applied when the publisher last heard from it (the same
	// watermark cache GET /daemon/status reports).
	for _, ep := range cfg.PushEndpoints {
		d.reg.GaugeFunc("sage_daemon_replica_lag_versions",
			"Authoritative store versions not yet applied by this replica.",
			func() float64 {
				lag := countVersions(d.plat.Store)
				for name := range d.plat.Store.Watermarks() {
					lag -= d.pub.Watermark(ep, name)
				}
				return float64(max(lag, 0))
			}, metrics.Label{Name: "endpoint", Value: ep})
	}
	// Replicas that missed releases while no publisher was up converge
	// now, not at the next publish; if one could not be reached, every
	// converger starts with a round of its own.
	syncErr := d.syncReplicas()
	if syncErr != nil {
		cfg.Logf("daemon: startup replica sync (its converger retries): %v", syncErr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.stopConverging = cancel
	for _, ep := range cfg.PushEndpoints {
		wakes := make(chan wake, 1)
		if syncErr != nil {
			wakes <- wake{}
		}
		d.wakes = append(d.wakes, wakes)
		d.converging.Add(1)
		go d.converge(ctx, ep, wakes)
	}
	return d, stats, nil
}

// syncReplicas converges every replica within DrainTimeout.
func (d *Daemon) syncReplicas() error {
	ctx, cancel := context.WithTimeout(context.Background(), d.cfg.DrainTimeout)
	defer cancel()
	return d.pub.Sync(ctx)
}

// retryAfter is how long a converger waits after a failed round before
// it starts another of its own accord — a delivery's only retry — so
// that a replica that answers again converges with no further release.
const retryAfter = time.Second

// wake is what a converger is woken with: the trace and span id of the
// daemon.train span that published, by value, because spans are pooled
// and that one has ended by the time the push runs. New's wake after a
// failed startup sync is the zero wake: no tick published.
type wake struct {
	traceID trace.TraceID
	spanID  trace.SpanID
}

// wakeConvergers hands every converger w in place of a wake it has not
// taken yet (a round delivers all its replica lacks). The loop goroutine
// is the only sender, so the emptied slot takes w and no tick waits.
func (d *Daemon) wakeConvergers(w wake) {
	for _, wakes := range d.wakes {
		select {
		case <-wakes:
		default:
		}
		wakes <- w
	}
}

// converge is one replica's converger, from New until Close: each wake
// is a round — a Publisher.Converge under a daemon.push span that
// continues the publishing tick's trace (a trace of its own for the
// zero wake) — and a round that failed but not permanently wakes it
// again after retryAfter. It is the only sender to its replica while it
// runs, so the replica has at most one request in flight.
func (d *Daemon) converge(ctx context.Context, endpoint string, wakes <-chan wake) {
	defer d.converging.Done()
	var w wake
	var retry <-chan time.Time
	for {
		select {
		case <-ctx.Done():
			return
		case w = <-wakes:
		case <-retry:
		}
		var span *trace.Span
		if w == (wake{}) {
			span = d.cfg.Tracer.StartRoot("daemon.push")
		} else {
			span = d.cfg.Tracer.StartRemote("daemon.push", w.traceID, w.spanID)
		}
		span.SetAttr("endpoint", endpoint)
		retry = nil
		if err := d.pub.Converge(trace.ContextWith(ctx, span), endpoint); err != nil && ctx.Err() == nil {
			span.SetOutcome("error")
			if replica.IsPermanent(err) {
				d.cfg.Logf("daemon: push to %s (not retried): %v", endpoint, err)
			} else {
				d.cfg.Logf("daemon: push to %s (retrying in %v): %v", endpoint, retryAfter, err)
				retry = time.After(retryAfter)
			}
		}
		span.End()
	}
}

// Run executes the loop until the context is cancelled (graceful drain:
// the in-flight iteration completes, the convergers stop, the replica
// tier gets a final sync, the WALs are compacted and closed) or MaxTicks
// is reached. The first iteration
// runs one Tick after Run starts.
func (d *Daemon) Run(ctx context.Context) error {
	ticker := time.NewTicker(d.cfg.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			d.cfg.Logf("daemon: draining (signal received)")
			return d.Close()
		case <-ticker.C:
			if err := d.step(); err != nil {
				d.Close()
				return err
			}
			d.mu.Lock()
			ticks := d.ticks
			d.mu.Unlock()
			if d.cfg.MaxTicks > 0 && ticks >= d.cfg.MaxTicks {
				d.cfg.Logf("daemon: reached %d ticks, draining", ticks)
				return d.Close()
			}
		}
	}
}

// Close stops the convergers, flushes the replica tier, compacts, and
// closes the WALs. Safe to call more than once; after Close mutations
// fail their journal writes, so the loop must not keep running.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		d.stopConverging()
		d.converging.Wait()
		if err := d.syncReplicas(); err != nil {
			d.cfg.Logf("daemon: final replica sync: %v", err)
		}
		if err := d.plat.Compact(); err != nil {
			d.cfg.Logf("daemon: final compaction: %v", err)
		}
		d.closeErr = d.plat.Close()
	})
	return d.closeErr
}

// step is one loop iteration: the phases of phases.go, in order. One
// tick is one trace — a root span with a child span per phase — and one
// observation per phase duration series. Only journal failures (the
// platform can no longer make mutations durable) abort the daemon;
// everything else — blocked pipelines, unreachable replicas — is
// continuous-operation business as usual — a tick never waits on a
// replica. A failed phase marks its span and the root, so the deferred
// root.End tail-captures the trace.
func (d *Daemon) step() error {
	d.mu.Lock()
	t := tick{n: d.ticks, block: d.nextBlock}
	d.ticks++
	d.nextBlock++
	d.mu.Unlock()

	root := d.cfg.Tracer.StartRoot("daemon.tick")
	root.SetAttr("tick", strconv.Itoa(t.n))
	// The exemplar trace id is resolved up front because the deferred
	// End scrubs and pools the span before the last phase observes.
	rootID := root.TraceIDString()
	defer root.End()
	for i, ph := range phases {
		start := time.Now()
		t.span = root.StartChild("daemon." + ph.name)
		err := ph.run(d, t)
		if err != nil {
			t.span.SetOutcome("error")
			root.SetOutcome("error")
		}
		t.span.End()
		if err != nil {
			return err
		}
		d.phaseSec[i].ObserveSinceExemplar(start, rootID)
	}
	return nil
}
