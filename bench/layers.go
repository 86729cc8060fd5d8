package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/privacy"
)

// scrape parses a tier's registry through its text exposition — the
// same bytes GET /metrics serves — so the harness reads what an
// operator would.
func scrape(reg *metrics.Registry) (metrics.Families, error) {
	var buf bytes.Buffer
	if err := reg.TextExpose(&buf); err != nil {
		return nil, err
	}
	return metrics.Parse(&buf)
}

func sum(fs metrics.Families, name string, labels map[string]string) float64 {
	v, _ := fs.Sum(name, labels)
	return v
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// replicaPushes reports the push outcomes and latency the replicas
// counted themselves.
func replicaPushes(m metricSet, regs []*metrics.Registry) error {
	var applied, dup, gap, pushSum, pushCount float64
	outcome := func(fs metrics.Families, o string) float64 {
		return sum(fs, "sage_replica_pushes_total", map[string]string{"outcome": o})
	}
	for _, reg := range regs {
		fs, err := scrape(reg)
		if err != nil {
			return err
		}
		applied += outcome(fs, "applied")
		dup += outcome(fs, "duplicate")
		gap += outcome(fs, "gap")
		pushSum += sum(fs, "sage_replica_push_seconds_sum", nil)
		pushCount += sum(fs, "sage_replica_push_seconds_count", nil)
	}
	m.set("replica.pushes_applied", applied, 1)
	m.set("replica.pushes_duplicate", dup, 1)
	m.set("replica.pushes_gap", gap, 1)
	m.set("replica.push_ms", 1e3*ratio(pushSum, pushCount), int(pushCount))
	return nil
}

// requestTimes is one traced request split over the layers it crossed.
type requestTimes struct {
	total    time.Duration // client-observed
	gateway  time.Duration // gateway handler span
	upstream time.Duration // sum of the gateway's upstream attempts
	replica  time.Duration // replica handler span(s)
	attempts int
}

// layers splits the traced requests' time over gateway, network and
// replica, and reads the tiers' own counters.
//
// The three layer times are those of the median request: the mean over
// the requests whose client-observed latency lies between the 45th and
// 55th percentile. Per request the split is exact — gateway self + hops
// + replica handler = client latency — so unlike three independent
// medians the reported parts add up to the traced p50.
func (w *serveWorkload) layers(m metricSet) error {
	reqs := make(map[uint64]*requestTimes)
	for _, s := range w.tr.timed() {
		rt := reqs[s.Req]
		if rt == nil {
			rt = &requestTimes{}
			reqs[s.Req] = rt
		}
		switch s.Name {
		case "client.request":
			rt.total = s.dur()
		case "gateway.handler":
			rt.gateway = s.dur()
		case "gateway.upstream", "gateway.upstream.error":
			rt.upstream += s.dur()
			rt.attempts++
		case "replica.handler":
			rt.replica += s.dur()
		}
	}
	var all []*requestTimes
	attempts := 0
	for _, rt := range reqs {
		if rt.total == 0 || rt.gateway == 0 {
			continue // a span of the untimed warm-up round
		}
		all = append(all, rt)
		attempts += rt.attempts
	}
	if len(all) == 0 {
		return fmt.Errorf("no complete request in the trace")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].total < all[j].total })
	band := all[len(all)*45/100 : max(len(all)*55/100, len(all)*45/100+1)]
	var self, hop, rep, up, total float64
	for _, rt := range band {
		self += float64(rt.gateway - rt.upstream)
		hop += float64(rt.total-rt.gateway) + float64(rt.upstream-rt.replica)
		rep += float64(rt.replica)
		up += float64(rt.upstream)
		total += float64(rt.total)
	}
	n := float64(len(band)) * 1e6 // ns → ms
	m.set("gateway.self_ms", self/n, len(band))
	m.set("net.hop_ms", hop/n, len(band))
	m.set("replica.handler_ms", rep/n, len(band))
	m.set("gateway.upstream_ms", up/n, len(band))
	m.set("gateway.attempts_per_req", float64(attempts)/float64(len(all)), len(all))
	fmt.Fprintf(w.o.log, "bench: traced p50 %.4f ms = gateway.self %.4f + net.hop %.4f + replica.handler %.4f (n=%d of %d requests)\n",
		total/n, self/n, hop/n, rep/n, len(band), len(all))

	// The tiers' own counters, over the traced fleet's whole life.
	var retries, shed, unroutable float64
	perBackend := map[string]float64{}
	for _, g := range w.fleet.gateways {
		fs, err := scrape(g.Metrics())
		if err != nil {
			return err
		}
		retries += sum(fs, "sage_gateway_retries_total", nil)
		shed += sum(fs, "sage_gateway_shed_total", nil)
		unroutable += sum(fs, "sage_gateway_unroutable_total", nil)
		for _, b := range g.Status().Backends {
			perBackend[b.URL] += float64(b.Requests)
		}
	}
	m.set("gateway.retries", retries, 1)
	m.set("gateway.shed", shed, 1)
	m.set("gateway.unroutable", unroutable, 1)
	lo, hi, routed := math.Inf(1), 0.0, 0.0
	for _, v := range perBackend {
		lo, hi, routed = min(lo, v), max(hi, v), routed+v
	}
	m.set("gateway.backend_skew", ratio(hi-lo, routed), len(perBackend))
	m.set("gateway.handler_panics", float64(w.fleet.panics.n.Load()), 1)

	var hits, misses float64
	var regs []*metrics.Registry
	for _, r := range w.fleet.replicas {
		fs, err := scrape(r.Metrics())
		if err != nil {
			return err
		}
		hits += sum(fs, "sage_store_encode_cache_hits_total", nil)
		misses += sum(fs, "sage_store_encode_cache_misses_total", nil)
		regs = append(regs, r.Metrics())
	}
	m.set("store.encode_cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	if err := replicaPushes(m, regs); err != nil {
		return err
	}
	m.set("replica.push_bytes_per_version", ratio(float64(w.fleet.pushBytes.Load()), float64(w.fleet.pushReqs.Load())), int(w.fleet.pushReqs.Load()))

	// The store's handler and the model alone, on the same requests.
	replay := w.plan[0][:min(len(w.plan[0]), 50*w.o.sz.probeIters)]
	start := time.Now()
	for _, rq := range replay {
		w.fleet.reference(rq)
	}
	handlerMS := float64(time.Since(start)) / 1e6 / float64(len(replay))
	rows, predicted := 0, time.Duration(0)
	out := make([]float64, w.o.sz.batchRows)
	one := [][]float64{w.fleet.dataset.Examples[0].Features}
	for _, rq := range replay {
		batch := w.rows[rq]
		if batch == nil {
			if rq.body == nil {
				continue // a read: no model involved
			}
			batch = one
		}
		start := time.Now()
		ml.PredictBatch(w.fleet.model, batch, out[:len(batch)])
		predicted += time.Since(start)
		rows += len(batch)
	}
	predictMS := float64(predicted) / 1e6 / float64(len(replay))
	m.set("store.handler_ms", handlerMS, len(replay))
	m.set("store.codec_ms", handlerMS-predictMS, len(replay))
	m.set("ml.predict_us_per_row", ratio(float64(predicted)/1e3, float64(rows)), rows)
	probePublish(m, w.o.sz, w.fleet.bundle)
	return nil
}

// layers reports the daemon's phases, the WAL's counters and the
// write-path probes. Phase times and counts come from the daemon's own
// registry, read through Daemon.Metrics() when each life ended.
//
// Counts are summed over the first sz.minRounds timed lives — every run
// has those — so that they repeat exactly from run to run with one
// seed.
func (w *loopWorkload) layers(m metricSet) error {
	lives := w.lifeStats[1:] // [0] is the set-up life
	var ingest, train, retention, compaction, idle, recoverMS, closeMS, perTick []float64
	for _, ls := range lives {
		ticks := float64(ls.status.Ticks)
		phase := func(name string) float64 {
			return 1e3 * sum(ls.fam, "sage_daemon_tick_phase_seconds_sum", map[string]string{"phase": name}) / ticks
		}
		p := [4]float64{phase("ingest"), phase("train"), phase("retention"), phase("compaction")}
		ingest = append(ingest, p[0])
		train = append(train, p[1])
		retention = append(retention, p[2])
		compaction = append(compaction, p[3])
		wall := float64(ls.run) / 1e6 / ticks
		closing := float64(ls.closing) / 1e6
		idle = append(idle, wall-closing/ticks-p[0]-p[1]-p[2]-p[3])
		recoverMS = append(recoverMS, float64(ls.recover)/1e6)
		closeMS = append(closeMS, closing)
		perTick = append(perTick, ratio(float64(ls.walGrowth), float64(ls.tailTicks)))
	}
	n := len(lives)
	m.set("daemon.ingest_ms_per_tick", median(ingest), n)
	m.set("daemon.train_ms_per_tick", median(train), n)
	m.set("daemon.retention_ms_per_tick", median(retention), n)
	m.set("daemon.compaction_ms_per_tick", median(compaction), n)
	m.set("daemon.idle_ms_per_tick", median(idle), n)
	m.set("daemon.recover_ms", median(recoverMS), n)
	m.set("daemon.close_ms", median(closeMS), n)
	m.set("wal.bytes_per_tick", median(perTick), n)
	ticks := float64(w.o.sz.lifeTicks)
	fmt.Fprintf(w.o.log, "bench: traced tick %.3f ms = ingest %.3f + train %.3f + retention %.3f + compaction %.3f + idle %.3f + close/ticks %.3f\n",
		median(ingest)+median(train)+median(retention)+median(compaction)+median(idle)+median(closeMS)/ticks,
		median(ingest), median(train), median(retention), median(compaction), median(idle), median(closeMS)/ticks)

	counted := lives[:min(len(lives), w.o.sz.minRounds)]
	var published, accepted, rejected, blocked, compactions, frames, commits, appendSec, flushes, flushSec, cohort float64
	for _, ls := range counted {
		published += float64(ls.status.Published)
		accepted += float64(ls.status.Accepted)
		rejected += float64(ls.status.Rejected)
		blocked += float64(ls.status.Blocked)
		compactions += float64(ls.status.Compactions)
		frames += sum(ls.fam, "sage_wal_commit_batch_frames_sum", nil)
		commits += sum(ls.fam, "sage_wal_append_seconds_count", nil)
		appendSec += sum(ls.fam, "sage_wal_append_seconds_sum", nil)
		if c := sum(ls.fam, "sage_wal_syncfs_seconds_count", nil); c > 0 {
			// One filesystem-wide flush serves a cohort of logs.
			flushes += c
			flushSec += sum(ls.fam, "sage_wal_syncfs_seconds_sum", nil)
			cohort += sum(ls.fam, "sage_wal_syncfs_cohort_size_sum", nil)
		} else {
			c := sum(ls.fam, "sage_wal_sync_seconds_count", nil)
			flushes += c
			flushSec += sum(ls.fam, "sage_wal_sync_seconds_sum", nil)
			cohort += c
		}
	}
	last := counted[len(counted)-1].status
	m.set("daemon.published", published, len(counted))
	m.set("daemon.accepted", accepted, len(counted))
	m.set("daemon.rejected", rejected, len(counted))
	m.set("daemon.blocked_ticks", blocked, len(counted))
	m.set("daemon.compactions", compactions, len(counted))
	// Retired blocks stay in the ledger, so the status counter is
	// cumulative over the directory's history.
	m.set("daemon.retired_blocks", float64(last.RetiredBlocks-w.lifeStats[0].status.RetiredBlocks), len(counted))
	m.set("ledger.eps_spent", last.StreamLossEps, 1)
	m.set("wal.appends", frames, len(counted))
	m.set("wal.append_us", 1e6*ratio(appendSec, commits), int(commits))
	m.set("wal.frames_per_commit", ratio(frames, commits), int(commits))
	m.set("wal.fsyncs", flushes, len(counted))
	m.set("wal.fsync_ms", 1e3*ratio(flushSec, flushes), int(flushes))
	m.set("wal.syncfs_cohort_size", ratio(cohort, flushes), int(flushes))
	m.set("durable.open_ms", float64(w.reopen)/1e6, 1)
	m.set("durable.compact_ms", float64(w.compact)/1e6, 1)

	var regs []*metrics.Registry
	for i := range w.replicas {
		regs = append(regs, w.replicas[i].Load().Metrics())
	}
	if err := replicaPushes(m, regs); err != nil {
		return err
	}
	if w.lastBundle != nil {
		probePublish(m, w.o.sz, *w.lastBundle)
	}
	probeTraining(m, w.o.sz, w.o.seed)
	return probeLedger(m, w.o.sz, w.root)
}

// layers reports each experiment call's time, the pool's speed-up over
// one worker, the calibration cache, and the compute probes.
func (w *expWorkload) layers(m metricSet) error {
	names := []string{"experiments.fig5_s", "experiments.fig6_s", "experiments.fig7_quality_s",
		"experiments.fig7_accept_s", "experiments.fig8_s", "experiments.tab2_s"}
	slowest, total := 0.0, 0.0
	for i, name := range names {
		// callSec[i][0] is the set-up pass, cold.
		v := median(w.callSec[i][1:])
		m.set(name, v, len(w.callSec[i])-1)
		slowest = max(slowest, v)
		total += v
	}
	m.set("experiments.straggler_share", ratio(slowest, total), len(names))

	stats := privacy.SGDCalibrationStats()
	m.set("privacy.calib_hit_ratio", ratio(float64(stats.Hits), float64(stats.Hits+stats.Misses)), int(stats.Hits+stats.Misses))

	// One extra pass on one worker; its output must hash like the rest
	// (the engine is bit-identical for any worker count).
	serial, err := w.pass(1)
	if err != nil {
		return err
	}
	m.set("parallel.speedup", serial.wall.Seconds()/total, 1)
	probeTraining(m, w.o.sz, w.o.seed)
	probeCompute(m, w.o.sz, w.o.seed)
	return nil
}
