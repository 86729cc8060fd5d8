package daemon

import (
	"math"
	"net/http"
	"strconv"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/store"
)

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
	Retried         int                       `json:"retried"`
	Blocked         int                       `json:"blocked"`
	TrainIterations int                       `json:"train_iterations"`
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

// countRetired counts a ledger report's retired rows. The ledger is the
// only record of retirement, so the count survives a restart whenever
// the last compaction ran.
func countRetired(blocks []BlockStatus) (n int) {
	for _, b := range blocks {
		if b.Retired {
			n++
		}
	}
	return n
}

// Status reports the daemon's current state.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	st := Status{
		Ticks:           d.ticks,
		NextBlock:       int64(d.nextBlock),
		Published:       d.accepted,
		Accepted:        d.accepted,
		Rejected:        d.rejected,
		Retried:         d.retried,
		Blocked:         d.blocked,
		TrainIterations: d.trainIterations,
		Compactions:     d.compactions,
	}
	d.mu.Unlock()
	st.Blocks = LedgerStatus(d.plat.AC)
	st.RetiredBlocks = countRetired(st.Blocks)
	loss := d.plat.AC.StreamLoss()
	st.StreamLossEps, st.StreamLossDelta = loss.Epsilon, loss.Delta
	st.StoreVersions = d.plat.Store.Watermarks()
	st.WALLedgerBytes, st.WALStoreBytes = d.plat.LogSizes()
	st.LedgerShards = d.plat.LedgerShards()
	st.Replicas = make(map[string]map[string]int) // omitted from the JSON when there are no endpoints
	for _, ep := range d.pub.Endpoints() {
		wm := make(map[string]int)
		for name := range st.StoreVersions {
			wm[name] = d.pub.Watermark(ep, name)
		}
		st.Replicas[ep] = wm
	}
	return st
}

// instrument registers the daemon-tier metric families. Ledger ε, the
// retired-block count and the loop counters are gauge funcs over the
// authoritative state (the ledger itself, the mu-guarded loop
// counters), so /metrics and /daemon/status can never disagree.
func (d *Daemon) instrument() {
	for _, ph := range phases {
		d.phaseSec = append(d.phaseSec, d.reg.Histogram("sage_daemon_tick_phase_seconds",
			"Duration of one loop-tick phase.", metrics.LatencyBuckets(),
			metrics.Label{Name: "phase", Value: ph.name}))
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
	counter("sage_daemon_published_versions", "Bundles published into the store.", &d.accepted)
	counter("sage_daemon_accepted_runs", "Training runs whose model was ACCEPTed.", &d.accepted)
	counter("sage_daemon_rejected_runs", "Training runs whose model was REJECTed.", &d.rejected)
	counter("sage_daemon_retried_runs", "Training runs that ended in RETRY: the search ran out of budget or window.", &d.retried)
	counter("sage_daemon_blocked_ticks", "Ticks where no pipeline could afford to train.", &d.blocked)
	counter("sage_daemon_train_iterations", "Pipeline runs (one training run is a search of one or more).", &d.trainIterations)
	d.reg.GaugeFunc("sage_daemon_retired_blocks", "Blocks retired by the DP-retention policy.",
		func() float64 { return float64(countRetired(LedgerStatus(d.plat.AC))) })
	counter("sage_daemon_compactions", "WAL compaction passes that ran.", &d.compactions)
}

func countVersions(st *store.Store) int {
	n := 0
	for _, c := range st.Watermarks() {
		n += c
	}
	return n
}

// Platform exposes the underlying durable platform (tests).
func (d *Daemon) Platform() *durable.Platform { return d.plat }

// Metrics exposes the daemon's registry (tests scrape it without going
// through HTTP).
func (d *Daemon) Metrics() *metrics.Registry { return d.reg }

// Routes declares the daemon's HTTP API: the single-node serving API
// (store.API, bound to the shared store.Server handlers, so daemon and
// replicas cannot drift) plus GET /daemon/status.
func (d *Daemon) Routes() []httpkit.Route {
	return append(d.srv.Routes(), httpkit.Route{Pattern: "GET /daemon/status", Serve: func(w http.ResponseWriter, _ *http.Request) {
		httpkit.WriteJSON(w, http.StatusOK, d.Status())
	}})
}

// Handler serves Routes with httpkit's shared surface (/metrics, /debug/*).
func (d *Daemon) Handler() http.Handler { return httpkit.Handler(d.reg, d.cfg.Tracer, d.Routes()) }
