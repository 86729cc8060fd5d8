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
//     ID, so a restarted daemon regenerates identical data), registers
//     it with the ledger, and charges the block for its share of the
//     DP hour_speed aggregate release (Listing 1);
//  2. attempts one privacy-adaptive training run (round-robin over the
//     configured pipelines) through adaptive.StreamTrainer — the §3.3
//     retry loop under block composition. A pipeline blocked on budget
//     simply waits for fresh blocks, exactly the paper's "Sage never
//     runs out of budget as long as the database grows";
//  3. publishes an accepted model+features bundle into the durable
//     store and pushes it to the replica tier (versioned idempotent
//     push with gzip bodies and optional bearer-token auth);
//  4. retires blocks that fall out of the retention window (forced
//     retirement journaled, raw data deleted via the retention hook);
//  5. periodically compacts both write-ahead logs (snapshot+truncate)
//     so recovery time stays bounded.
//
// # Crash recovery
//
// All durable state lives in the WAL directory. On start the daemon
// replays it, re-derives the stream position from the ledger (next
// block = highest registered block + 1), regenerates the raw data of
// every non-retired block (retired blocks' data stays deleted — that is
// the retention policy's whole point), and reconstructs the replica
// publisher, which self-heals: each replica's reported watermarks are
// fetched and missing releases backfilled, so a push that died mid-
// flight converges without operator action. The kill/relaunch e2e test
// in cmd/sagectl pins all of this: ledger remaining-budget, store
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
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/store"
	"repro/internal/taxi"
	"repro/internal/trace"
	"repro/internal/validation"
)

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
	// Window is the block width in stream hours (default 24 — daily
	// blocks, event-level privacy).
	Window int64
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
	// DrainTimeout bounds the final replica sync during Close (0 = no
	// bound). A graceful shutdown should drain the tier — push every
	// straggler its missing releases — but an unreachable replica must
	// not park the daemon inside the publisher's full retry schedule:
	// past the deadline the sync is cut short and the replica converges
	// via self-healing on the next daemon start (or its gateway keeps it
	// drained until it catches up). Shutdown ordering stays
	// sync-then-close so replicas are as current as possible the moment
	// the WAL seals.
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
	if c.Window <= 0 {
		c.Window = 24
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
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// tickPhase indexes the loop's instrumented phases; the order matches
// the numbered sections of step.
type tickPhase int

const (
	phaseIngest tickPhase = iota
	phaseTrain
	phaseRetention
	phaseCompaction
	numPhases
)

func (p tickPhase) String() string {
	switch p {
	case phaseIngest:
		return "ingest"
	case phaseTrain:
		return "train"
	case phaseRetention:
		return "retention"
	case phaseCompaction:
		return "compaction"
	default:
		return "unknown"
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
	phaseSec [numPhases]*metrics.Histogram

	mu          sync.Mutex
	ticks       int
	nextBlock   data.BlockID
	published   int
	accepted    int
	blocked     int
	rejected    int
	retired     int
	compactions int
	// lastSpeeds is the hour_speed table of the newest ingested block —
	// the serving-time join table accepted bundles ship (only the loop
	// goroutine touches it).
	lastSpeeds []float64
	// nextPipe is the fair round-robin turn pointer (loop goroutine
	// only; advances when a pipeline actually trains, see step).
	nextPipe int

	closeOnce sync.Once
	closeErr  error
}

// New opens (or recovers) the durable platform in cfg.Dir and prepares
// the loop: replay both WALs, regenerate raw data for live blocks,
// resume the stream at the recovered block watermark, and self-heal the
// replica tier. The daemon does not start looping until Run.
func New(cfg Config) (*Daemon, durable.Stats, error) {
	cfg.applyDefaults()
	if err := cfg.Global.Validate(); err != nil {
		return nil, durable.Stats{}, err
	}
	if cfg.Global.Epsilon <= 0 {
		return nil, durable.Stats{}, fmt.Errorf("daemon: global ε must be > 0")
	}

	d := &Daemon{cfg: cfg, reg: metrics.New()}
	d.db = data.NewGrowingDatabase(data.TimePartitioner{Window: cfg.Window})
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
		OnRetire: func(id data.BlockID) {
			d.db.Delete(id)
			d.mu.Lock()
			d.retired++
			d.mu.Unlock()
		},
	})
	if err != nil {
		return nil, stats, err
	}
	d.plat = plat
	d.srv = store.NewServer(plat.Store)
	d.srv.Instrument(d.reg)
	d.instrument()

	// Resume the stream where the ledger says it stopped. Retired
	// blocks stay deleted; every live block's raw data is regenerated
	// bit-identically from the per-block seed.
	recovered := plat.AC.Blocks()
	retiredNow := 0
	for _, id := range recovered {
		if id >= d.nextBlock {
			d.nextBlock = id + 1
		}
		if plat.AC.Retired(id) {
			retiredNow++
			continue
		}
		speeds := d.ingestBlock(id)
		d.lastSpeeds = speeds
		// A crash between registering a block and charging its feature
		// release leaves the charge missing; zero loss is the marker
		// (every charged block's loss stays ≥ FeatureEps — refunds
		// never dip below it). Re-charge so the aggregate's ε is never
		// forgotten.
		if cfg.FeatureEps > 0 && plat.AC.BlockLoss(id).IsZero() {
			if err := plat.AC.Request([]data.BlockID{id}, privacy.Budget{Epsilon: cfg.FeatureEps}); err != nil {
				plat.Close()
				return nil, stats, fmt.Errorf("daemon: re-charging feature release for block %d: %w", id, err)
			}
		}
	}
	// The retire hook fired during replay for journaled retirements but
	// not for snapshot-restored ones; pin the counter to the ledger's
	// actual retired-block count so GET /daemon/status reports the same
	// number regardless of when the last compaction ran.
	d.mu.Lock()
	d.retired = retiredNow
	d.mu.Unlock()
	if len(recovered) > 0 {
		cfg.Logf("daemon: recovered %d blocks (next %d), %d releases, ledger loss %v",
			len(recovered), d.nextBlock, countVersions(plat.Store), plat.AC.StreamLoss())
	}

	if len(cfg.PushEndpoints) > 0 {
		opts := []replica.Option{replica.WithSelfHealing()}
		if cfg.PushToken != "" {
			opts = append(opts, replica.WithAuth(cfg.PushToken))
		}
		d.pub = replica.NewPublisher(plat.Store, cfg.PushEndpoints, opts...)
		// Push lag per replica: how many authoritative versions the
		// replica has not acked yet, from the publisher's watermark
		// cache (the same numbers GET /daemon/status reports).
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
		// Startup heal: replicas that missed releases while this
		// publisher was down converge now, not at the next publish.
		// Unreachable replicas stay flagged and heal lazily.
		if err := d.pub.Heal(); err != nil {
			cfg.Logf("daemon: startup replica heal (will retry on push): %v", err)
		}
	}
	return d, stats, nil
}

// instrument registers the daemon-tier metric families. Ledger ε and
// loop counters are gauge funcs over the authoritative state (the
// ledger itself, the mu-guarded loop counters), so /metrics and
// /daemon/status can never disagree.
func (d *Daemon) instrument() {
	for p := tickPhase(0); p < numPhases; p++ {
		d.phaseSec[p] = d.reg.Histogram("sage_daemon_tick_phase_seconds",
			"Duration of one loop-tick phase.", metrics.LatencyBuckets(),
			metrics.Label{Name: "phase", Value: p.String()})
	}
	// Stream-wide privacy loss is the max cumulative loss over blocks
	// (Theorem 4.2), so spent/remaining report against the per-block
	// ceiling εg — remaining hits zero exactly when some block is
	// exhausted, which is when training starts to block.
	d.reg.GaugeFunc("sage_daemon_ledger_eps_spent",
		"Stream-wide privacy loss ε (max cumulative loss over blocks).",
		func() float64 { return d.plat.AC.StreamLoss().Epsilon })
	d.reg.GaugeFunc("sage_daemon_ledger_eps_remaining",
		"Headroom to the global per-block ceiling εg.",
		func() float64 { return math.Max(0, d.cfg.Global.Epsilon-d.plat.AC.StreamLoss().Epsilon) })
	for k := 0; k < d.plat.LedgerShards(); k++ {
		shard := metrics.Label{Name: "shard", Value: strconv.Itoa(k)}
		spent := func() float64 {
			loss := 0.0
			for _, id := range d.plat.AC.ShardBlocks(k) {
				loss = math.Max(loss, d.plat.AC.BlockLoss(id).Epsilon)
			}
			return loss
		}
		d.reg.GaugeFunc("sage_daemon_ledger_shard_eps_spent",
			"Max cumulative privacy loss ε over this ledger shard's blocks.",
			spent, shard)
		d.reg.GaugeFunc("sage_daemon_ledger_shard_eps_remaining",
			"This shard's headroom to the global per-block ceiling εg.",
			func() float64 { return math.Max(0, d.cfg.Global.Epsilon-spent()) }, shard)
	}
	d.reg.GaugeFunc("sage_daemon_ledger_blocks",
		"Blocks registered with the ledger (including retired ones).",
		func() float64 { return float64(len(d.plat.AC.Blocks())) })
	d.reg.GaugeFunc("sage_daemon_store_versions",
		"Published model versions across all names (applied-version sum).",
		func() float64 { return float64(countVersions(d.plat.Store)) })
	counter := func(name, help string, field *int) {
		d.reg.GaugeFunc(name, help, func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(*field)
		})
	}
	counter("sage_daemon_ticks", "Loop iterations started.", &d.ticks)
	counter("sage_daemon_published_versions", "Bundles published into the store.", &d.published)
	counter("sage_daemon_accepted_runs", "Training runs whose model was ACCEPTed.", &d.accepted)
	counter("sage_daemon_rejected_runs", "Training runs whose model was REJECTed.", &d.rejected)
	counter("sage_daemon_blocked_ticks", "Ticks where no pipeline could afford to train.", &d.blocked)
	counter("sage_daemon_retired_blocks", "Blocks retired by the DP-retention policy.", &d.retired)
	counter("sage_daemon_compactions", "WAL compaction passes that ran.", &d.compactions)
}

func countVersions(st *store.Store) int {
	n := 0
	for _, c := range st.Watermarks() {
		n += c
	}
	return n
}

// ingestBlock (re)generates block id's rides, featurizes them with the
// block's (DP) hour_speed table, and inserts them into the database.
// Everything derives from (Seed, id), so recovery regenerates identical
// bytes. Returns the block's speed table.
func (d *Daemon) ingestBlock(id data.BlockID) []float64 {
	gen := taxi.NewGenerator(taxi.Config{}, rng.MixSeed(d.cfg.Seed, uint64(id)))
	rides := gen.Generate(d.cfg.RowsPerBlock, int64(id)*d.cfg.Window, d.cfg.Window)
	clean, _ := taxi.Clean(rides)
	var speeds []float64
	if d.cfg.FeatureEps > 0 {
		speeds = taxi.SpeedByHour(clean, d.cfg.FeatureEps, rng.New(rng.MixSeed(d.cfg.Seed, uint64(id), 7)))
	} else {
		speeds = taxi.SpeedByHour(clean, 0, nil)
	}
	d.db.Insert(taxi.Featurize(clean, speeds).Examples...)
	return speeds
}

// Run executes the loop until the context is cancelled (graceful drain:
// the in-flight iteration completes, the replica tier gets a final
// sync, the WALs are compacted and closed) or MaxTicks is reached. The
// first iteration runs one Tick after Run starts.
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

// Close flushes the replica tier, compacts, and closes the WALs. Safe
// to call more than once; after Close mutations fail their journal
// writes, so the loop must not keep running.
func (d *Daemon) Close() error {
	d.closeOnce.Do(func() {
		if d.pub != nil {
			ctx := context.Background()
			if d.cfg.DrainTimeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, d.cfg.DrainTimeout)
				defer cancel()
			}
			if err := d.pub.SyncContext(ctx); err != nil {
				d.cfg.Logf("daemon: final replica sync: %v", err)
			}
		}
		if err := d.plat.Compact(); err != nil {
			d.cfg.Logf("daemon: final compaction: %v", err)
		}
		d.closeErr = d.plat.Close()
	})
	return d.closeErr
}

// step is one loop iteration. Only journal failures (the platform can
// no longer make mutations durable) abort the daemon; everything else —
// blocked pipelines, unreachable replicas — is continuous-operation
// business as usual.
func (d *Daemon) step() error {
	d.mu.Lock()
	tick := d.ticks
	d.ticks++
	block := d.nextBlock
	d.nextBlock++
	d.mu.Unlock()

	// One tick is one trace: a root span with a child span per phase.
	// The exemplar trace id is resolved up front because the deferred
	// End scrubs and pools the span before the last phase observes.
	root := d.cfg.Tracer.StartRoot("daemon.tick")
	root.SetAttr("tick", strconv.Itoa(tick))
	rootID := root.TraceIDString()
	// fail ends the in-flight phase span and marks the trace; the
	// deferred root.End then tail-captures it (outcome != "").
	fail := func(sp *trace.Span, err error) error {
		sp.SetOutcome("error")
		sp.End()
		root.SetOutcome("error")
		return err
	}
	defer root.End()

	// 1. Ingest this tick's block and account its feature release.
	phaseStart := time.Now()
	sp := root.StartChild("daemon.ingest")
	speeds := d.ingestBlock(block)
	d.lastSpeeds = speeds
	if d.plat.AC.RegisterBlock(block) && d.cfg.FeatureEps > 0 {
		if err := d.plat.AC.Request([]data.BlockID{block}, privacy.Budget{Epsilon: d.cfg.FeatureEps}); err != nil {
			return fail(sp, fmt.Errorf("daemon: charging feature release for block %d: %w", block, err))
		}
	}
	sp.End()
	d.phaseSec[phaseIngest].ObserveSinceExemplar(phaseStart, rootID)

	// 2. One privacy-adaptive training run, fair round-robin. A naive
	// tick%N rotation starves pipelines when the budget-refill cadence
	// resonates with N (e.g. a window's worth of fresh blocks every 6
	// ticks always landing on the same pipeline), so the turn pointer
	// advances only when a pipeline actually got to train; pipelines
	// that are merely unaffordable this tick are skipped at no budget
	// cost and keep their place in line.
	phaseStart = time.Now()
	sp = root.StartChild("daemon.train")
	trained := false
	for k := 0; k < d.cfg.Pipelines; k++ {
		idx := (d.nextPipe + k) % d.cfg.Pipelines
		attempted, err := d.trainPipeline(tick, idx)
		if err != nil {
			return fail(sp, err)
		}
		if attempted {
			d.nextPipe = (idx + 1) % d.cfg.Pipelines
			trained = true
			break
		}
	}
	if !trained {
		sp.AddEvent("blocked")
		d.mu.Lock()
		d.blocked++
		d.mu.Unlock()
	}
	sp.End()
	d.phaseSec[phaseTrain].ObserveSinceExemplar(phaseStart, rootID)

	// 3. Retention: retire blocks older than the window.
	phaseStart = time.Now()
	sp = root.StartChild("daemon.retention")
	if d.cfg.Retention > 0 {
		horizon := block - data.BlockID(d.cfg.Retention) + 1
		for _, id := range d.plat.AC.Blocks() {
			if id >= horizon {
				break
			}
			if d.plat.AC.Retired(id) {
				continue
			}
			if err := d.plat.AC.Retire(id); err != nil {
				return fail(sp, fmt.Errorf("daemon: retiring block %d: %w", id, err))
			}
			d.cfg.Logf("daemon: tick %d: retired block %d (retention window %d)", tick, id, d.cfg.Retention)
		}
	}
	sp.End()
	d.phaseSec[phaseRetention].ObserveSinceExemplar(phaseStart, rootID)

	// 4. Periodic WAL compaction: the fixed tick cadence bounds staleness,
	// the byte threshold bounds recovery time for write-heavy logs — an
	// oversized ledger segment is compacted the tick it crosses the
	// threshold, not when the cadence next comes around.
	phaseStart = time.Now()
	sp = root.StartChild("daemon.compaction")
	if (tick+1)%d.cfg.CompactEvery == 0 {
		if err := d.plat.Compact(); err != nil {
			return fail(sp, fmt.Errorf("daemon: compaction: %w", err))
		}
		d.mu.Lock()
		d.compactions++
		d.mu.Unlock()
		lb, sb := d.plat.LogSizes()
		d.cfg.Logf("daemon: tick %d: compacted WALs (ledger %dB, store %dB)", tick, lb, sb)
	} else if d.cfg.CompactBytes > 0 && d.plat.MaxLogSize() > d.cfg.CompactBytes {
		n, err := d.plat.CompactIfLarger(d.cfg.CompactBytes)
		if err != nil {
			return fail(sp, fmt.Errorf("daemon: size-triggered compaction: %w", err))
		}
		if n > 0 {
			d.mu.Lock()
			d.compactions++
			d.mu.Unlock()
			lb, sb := d.plat.LogSizes()
			d.cfg.Logf("daemon: tick %d: compacted %d oversized log(s) (ledger %dB, store %dB)", tick, n, lb, sb)
		}
	}
	sp.End()
	d.phaseSec[phaseCompaction].ObserveSinceExemplar(phaseStart, rootID)
	return nil
}

// trainPipeline runs one adaptive search for pipeline idx and publishes
// on ACCEPT. It reports attempted=false when the pipeline could not
// afford a single training run (no budget was consumed), so the caller
// can give another pipeline this tick's slot.
func (d *Daemon) trainPipeline(tick, idx int) (attempted bool, err error) {
	name := fmt.Sprintf("taxi-lr-%d", idx)
	pipe := &pipeline.Pipeline{
		Name:    name,
		Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
		Validator: pipeline.MSEValidator{
			Target: d.cfg.SLATargets[idx%len(d.cfg.SLATargets)], B: 1,
			ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
		},
		Mode: validation.ModeSage,
	}
	trainer := &adaptive.StreamTrainer{
		AC: d.plat.AC, DB: d.db, Pipe: pipe,
		Epsilon0:   d.cfg.Epsilon0,
		EpsilonCap: d.cfg.EpsilonCap,
		Delta:      d.cfg.Global.Delta / 100,
		MinWindow:  min(d.cfg.MinWindow, d.db.NumBlocks()),
	}
	r := rng.New(rng.MixSeed(d.cfg.Seed, uint64(tick), uint64(idx), 0xDA))
	res, err := trainer.Run(r)
	// An insufficient-budget return with zero iterations means the
	// pipeline never trained: no budget moved, so the slot can go to
	// another pipeline. With iterations > 0 the search did consume
	// budget before running out — that was a real attempt.
	attempted = res.Iterations > 0
	switch {
	case errors.Is(err, adaptive.ErrInsufficientBudget):
		// The paper's steady state: wait for the database to grow.
		return attempted, nil
	case err != nil:
		// Training errors don't kill the platform; the refunds already
		// happened inside StreamTrainer.
		d.cfg.Logf("daemon: tick %d: pipeline %s: %v", tick, name, err)
		return attempted, nil
	}
	if res.Decision != validation.Accept {
		d.mu.Lock()
		d.rejected++
		d.mu.Unlock()
		return true, nil
	}
	spec, err := store.Serialize(res.Model)
	if err != nil {
		d.cfg.Logf("daemon: tick %d: serialize %s: %v", tick, name, err)
		return true, nil
	}
	bundle := store.Bundle{
		Name:  name,
		Model: spec,
		// Ship the newest block's released aggregate as the bundle's
		// serving-time join table (§2.1).
		Features: map[string][]float64{"hour_speed": append([]float64(nil), d.lastSpeeds...)},
		Provenance: store.Provenance{
			Pipeline: name,
			Spent:    res.TotalSpent,
			Blocks:   res.Blocks,
			Decision: res.Decision.String(),
			Quality:  res.Quality,
		},
	}
	// Publish → journal (store WAL) → push. A crash after the journal
	// write re-pushes on restart via the publisher's self-healing.
	var version int
	if d.pub != nil {
		var pushErr error
		version, pushErr = d.pub.Publish(bundle)
		if pushErr != nil {
			d.cfg.Logf("daemon: tick %d: push %s@v%d (will heal): %v", tick, name, version, pushErr)
		}
	} else {
		version = d.plat.Store.Publish(bundle)
	}
	d.mu.Lock()
	d.accepted++
	d.published++
	d.mu.Unlock()
	d.cfg.Logf("daemon: tick %d: published %s@v%d (%d blocks, quality %.4g, spent %v)",
		tick, name, version, len(res.Blocks), res.Quality, res.TotalSpent)
	return true, nil
}

// BlockStatus is one ledger row of the status report.
type BlockStatus struct {
	ID           int64   `json:"id"`
	LossEps      float64 `json:"loss_eps"`
	LossDelta    float64 `json:"loss_delta"`
	RemainEps    float64 `json:"remain_eps"`
	RemainDelta  float64 `json:"remain_delta"`
	Queries      int     `json:"queries"`
	Retired      bool    `json:"retired"`
	RetireReason string  `json:"retire_reason,omitempty"`
}

// Status is the daemon's introspection snapshot (GET /daemon/status).
// Blocks, StreamLoss*, and StoreVersions are exactly the state the
// kill/relaunch e2e pins across a crash.
type Status struct {
	Ticks           int                       `json:"ticks"`
	NextBlock       int64                     `json:"next_block"`
	Blocks          []BlockStatus             `json:"blocks"`
	StreamLossEps   float64                   `json:"stream_loss_eps"`
	StreamLossDelta float64                   `json:"stream_loss_delta"`
	StoreVersions   map[string]int            `json:"store_versions"`
	Replicas        map[string]map[string]int `json:"replicas,omitempty"`
	Published       int                       `json:"published"`
	Accepted        int                       `json:"accepted"`
	Rejected        int                       `json:"rejected"`
	Blocked         int                       `json:"blocked"`
	RetiredBlocks   int                       `json:"retired_blocks"`
	Compactions     int                       `json:"compactions"`
	WALLedgerBytes  int64                     `json:"wal_ledger_bytes"`
	WALStoreBytes   int64                     `json:"wal_store_bytes"`
	LedgerShards    int                       `json:"ledger_shards"`
}

// LedgerStatus converts a ledger report to status rows.
func LedgerStatus(ac *core.AccessControl) []BlockStatus {
	reports := ac.Report(ac.Blocks())
	out := make([]BlockStatus, len(reports))
	for i, rep := range reports {
		out[i] = BlockStatus{
			ID:           int64(rep.ID),
			LossEps:      rep.Loss.Epsilon,
			LossDelta:    rep.Loss.Delta,
			RemainEps:    rep.Remain.Epsilon,
			RemainDelta:  rep.Remain.Delta,
			Queries:      rep.Queries,
			Retired:      rep.Retired,
			RetireReason: string(rep.Reason),
		}
	}
	return out
}

// Status reports the daemon's current state.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	st := Status{
		Ticks:         d.ticks,
		NextBlock:     int64(d.nextBlock),
		Published:     d.published,
		Accepted:      d.accepted,
		Rejected:      d.rejected,
		Blocked:       d.blocked,
		RetiredBlocks: d.retired,
		Compactions:   d.compactions,
	}
	d.mu.Unlock()
	st.Blocks = LedgerStatus(d.plat.AC)
	loss := d.plat.AC.StreamLoss()
	st.StreamLossEps, st.StreamLossDelta = loss.Epsilon, loss.Delta
	st.StoreVersions = d.plat.Store.Watermarks()
	st.WALLedgerBytes, st.WALStoreBytes = d.plat.LogSizes()
	st.LedgerShards = d.plat.LedgerShards()
	if d.pub != nil {
		st.Replicas = make(map[string]map[string]int)
		for _, ep := range d.pub.Endpoints() {
			wm := make(map[string]int)
			for name := range st.StoreVersions {
				wm[name] = d.pub.Watermark(ep, name)
			}
			st.Replicas[ep] = wm
		}
	}
	return st
}

// Platform exposes the underlying durable platform (tests).
func (d *Daemon) Platform() *durable.Platform { return d.plat }

// Metrics exposes the daemon's registry (tests scrape it without going
// through HTTP).
func (d *Daemon) Metrics() *metrics.Registry { return d.reg }

// Handler returns the daemon's HTTP surface: the full single-node
// serving API (shared store.Server handlers, so daemon and replicas
// cannot drift) plus GET /daemon/status, behind the shared operational
// surface (httpkit: GET /metrics, /debug/*).
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /daemon/status", func(w http.ResponseWriter, _ *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, d.Status())
	})
	mux.Handle("/", d.srv.Handler())
	return httpkit.Handler(d.reg, d.cfg.Tracer, mux)
}
