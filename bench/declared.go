package main

// The declared names: what BENCHMARK.json at the repository root lists
// and the only names the harness may print. bench_test.go fails when
// this table, BENCHMARK.json and a run's output disagree in either
// direction.

type workloadDecl struct{ name, why string }

var workloadDecls = []workloadDecl{
	{"serve-batch", "256-row /predict/batch through gateway, replica and store: the JSON batch codec does most of the work, so a codec, protocol or pooling change must show here"},
	{"serve-mixed", "single predicts, provenance and feature reads with a publish between rounds: per-request gateway and hop cost dominates, the codec is bypassed, cache invalidation shows"},
	{"loop-durable", "daemon lives on one WAL directory with sync on: ingest, ledger charge, group commit, adaptive training, publish, push, retention, compaction, recovery; no reads"},
	{"exp-sweep", "Fig5-8 and Tab2 at reduced scale: pure compute (linalg, ml, RDP calibration, validators, parallel pool), no HTTP and no WAL; shares training kernels with loop-durable"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDecls))
	for i, w := range workloadDecls {
		names[i] = w.name
	}
	return names
}

type metricDecl struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: allowed worsening, as a share of the parent's median
}

// End-to-end metrics: the same five names on every workload.
var endToEndDecls = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"rate_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "kB", "lower", 0.06},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Per-layer metrics of the traced run. A layer a workload does not
// exercise reads 0 there.
var perLayerDecls = []metricDecl{
	{"gateway.self_ms", "ms", "lower", 0},
	{"gateway.upstream_ms", "ms", "lower", 0},
	{"gateway.attempts_per_req", "ratio", "lower", 0},
	{"gateway.retries", "count", "lower", 0},
	{"gateway.shed", "count", "lower", 0},
	{"gateway.unroutable", "count", "lower", 0},
	{"gateway.backend_skew", "ratio", "lower", 0},
	{"gateway.handler_panics", "count", "lower", 0},
	{"net.hop_ms", "ms", "lower", 0},
	{"replica.handler_ms", "ms", "lower", 0},
	{"replica.push_ms", "ms", "lower", 0},
	{"replica.push_bytes_per_version", "bytes", "lower", 0},
	{"replica.pushes_applied", "count", "higher", 0},
	{"replica.pushes_duplicate", "count", "lower", 0},
	{"replica.pushes_gap", "count", "lower", 0},
	{"store.handler_ms", "ms", "lower", 0},
	{"store.codec_ms", "ms", "lower", 0},
	{"store.encode_cache_hit_ratio", "ratio", "higher", 0},
	{"store.publish_us", "us", "lower", 0},
	{"ml.predict_us_per_row", "us", "lower", 0},
	{"ml.adassp_train_ms", "ms", "lower", 0},
	{"ml.dpsgd_epoch_ms", "ms", "lower", 0},
	{"daemon.ingest_ms_per_tick", "ms", "lower", 0},
	{"daemon.train_ms_per_tick", "ms", "lower", 0},
	{"daemon.retention_ms_per_tick", "ms", "lower", 0},
	{"daemon.compaction_ms_per_tick", "ms", "lower", 0},
	{"daemon.idle_ms_per_tick", "ms", "lower", 0},
	{"daemon.recover_ms", "ms", "lower", 0},
	{"daemon.close_ms", "ms", "lower", 0},
	{"daemon.published", "count", "higher", 0},
	{"daemon.accepted", "count", "higher", 0},
	{"daemon.rejected", "count", "lower", 0},
	{"daemon.blocked_ticks", "count", "lower", 0},
	{"daemon.retired_blocks", "count", "higher", 0},
	{"daemon.compactions", "count", "lower", 0},
	{"ledger.eps_spent", "eps", "lower", 0},
	{"ledger.charge_us", "us", "lower", 0},
	{"ledger.charge_parallel_us", "us", "lower", 0},
	{"wal.appends", "count", "lower", 0},
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsyncs", "count", "lower", 0},
	{"wal.fsync_ms", "ms", "lower", 0},
	{"wal.frames_per_commit", "ratio", "higher", 0},
	{"wal.syncfs_cohort_size", "ratio", "higher", 0},
	{"wal.bytes_per_tick", "bytes", "lower", 0},
	{"durable.compact_ms", "ms", "lower", 0},
	{"durable.open_ms", "ms", "lower", 0},
	{"experiments.fig5_s", "s", "lower", 0},
	{"experiments.fig6_s", "s", "lower", 0},
	{"experiments.fig7_quality_s", "s", "lower", 0},
	{"experiments.fig7_accept_s", "s", "lower", 0},
	{"experiments.fig8_s", "s", "lower", 0},
	{"experiments.tab2_s", "s", "lower", 0},
	{"experiments.straggler_share", "ratio", "lower", 0},
	{"parallel.speedup", "x", "higher", 0},
	{"privacy.calibrate_miss_ms", "ms", "lower", 0},
	{"privacy.calib_hit_ratio", "ratio", "higher", 0},
	{"validation.loss_accept_us", "us", "lower", 0},
	{"workload.run_ms", "ms", "lower", 0},
	{"taxi.ingest_ms_per_block", "ms", "lower", 0},
	{"adaptive.stream_train_ms", "ms", "lower", 0},
	{"e2e.p99_ms", "ms", "lower", 0},
	{"e2e.p999_ms", "ms", "lower", 0},
	{"e2e.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_cycles", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"host.spin_ms", "ms", "lower", 0},
	{"host.memwalk_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

func declaredUnit(name string) (string, bool) {
	for _, decls := range [][]metricDecl{endToEndDecls, perLayerDecls} {
		for _, d := range decls {
			if d.name == name {
				return d.unit, true
			}
		}
	}
	return "", false
}
