// Command sagectl operates Sage's control plane end to end over a
// synthetic taxi stream: it prints the per-block privacy ledger a batch
// of DP pipelines leaves behind (what an operator would inspect in
// production), or runs the platform itself — the Fig. 1 loop from
// growing database to serving infrastructure — and the tiers around it.
//
// Usage:
//
//	sagectl [ledger] [-epsg 1.0] [-delta 1e-6] [-days 30] [-pipelines 3] [-user-blocks]
//	sagectl daemon [-wal ./sage-wal] [-addr :8080] [-tick 1s] [-ledger-shards N] [-retention N] [-push ...] [-push-token T]
//	sagectl serve [-addr :8080] [-days 30] [-pipelines 3] [-epsg 1.0] [-delta 1e-6] [-feature-eps 0.2] [-push http://r1:8081,http://r2:8081] [-push-token T]
//	sagectl replica [-addr :8081] [-push-token T]
//	sagectl gateway [-addr :8090] [-backends http://r1:8081,http://r2:8081] [-from http://daemon:8080] [-attempt-timeout 10s]
//	sagectl wal [-wal ./sage-wal] [-v]
//	sagectl trace -from http://host:port [-id <32-hex trace id>]
//
// Daemon mode is the platform as the paper operates it: a continuous
// loop (internal/daemon) that ingests stream blocks, trains when budget
// allows, publishes accepted pipelines as bundles — model, the DP
// per-hour speed table (Listing 1's aggregate feature), and provenance
// — pushes them to replicas, and retires blocks by retention, with
// every ledger and store mutation write-ahead-logged under -wal. With
// -ledger-shards N the privacy ledger is striped across N WAL segments
// so concurrent charges commit in parallel (the layout is fixed when
// the directory is created; reopening always uses what is on disk).
// Kill it at any instant and relaunch with the same -wal directory: it
// resumes at the same block/version watermarks and reconciles every
// replica against what the replica itself reports. SIGTERM/SIGINT drain
// gracefully (finish the iteration, final replica sync, compact,
// close). Its HTTP API on -addr:
//
//	GET  /models                           list released models
//	GET  /models/{name}/provenance         blocks, budget, decision (audit)
//	POST /predict?model=<name>             single prediction
//	POST /predict/batch?model=<name>       batched predictions
//	GET  /features?model=<name>&key=hour_speed[&index=H]   serving-time join
//	GET  /daemon/status                    ledger, store, and replica watermarks
//
// Serve mode is that same daemon under a demo preset, not a second
// loop: a throwaway WAL directory (no fsync, deleted on exit), one
// day-block of 8000 rides per tick as fast as the loop turns, SLA
// targets a few day-blocks of this stream can meet, and -days ticks in
// all — after which the process keeps serving what was published until
// SIGTERM. Every line it prints and every endpoint it serves is the
// daemon's.
//
// With -push, every accepted bundle is additionally pushed to the given
// replica endpoints (versioned idempotent push of the release's
// canonical bytes with retry/backoff, optional -push-token bearer auth,
// and one catch-up path for a replica that fell behind; see
// internal/replica). Replicas are started with `sagectl replica`: they
// serve the identical read API plus
//
//	POST /push              receive one release's canonical bytes (publisher-only)
//	GET  /replica/status    applied-version watermarks per model
//
// Gateway mode (internal/gateway) fronts a replica fleet with one
// fault-tolerant endpoint: health-checked least-loaded routing with
// automatic failover, per-replica circuit breakers, watermark-lag
// draining, and admission control that sheds expensive batch work first
// under overload. Replica membership comes from -backends, from a
// running daemon's /daemon/status (-from), or both.
//
// The wal subcommand inspects a durable directory offline (daemon
// stopped): it lists every log file — ledger segments in shard order,
// then the store log — with record counts, byte sizes, and torn-tail
// status; -v additionally prints each record's offset, length, type,
// and CRC verdict. It never writes.
//
// Every server — daemon, serve, replica, gateway — is assembled by
// internal/httpkit, so each exposes GET /metrics in the Prometheus text
// format (internal/metrics: request latency histograms, push/shed/
// breaker counters, ledger ε gauges, and WAL fsync-stall histograms,
// named sage_<tier>_<name>_<unit>) and takes -debug, which turns on the
// observability surface (internal/trace): requests get W3C traceparent
// spans with tail-sampled capture of slow/error/failover traces, GET
// /debug/trace exports them (plus latency-histogram exemplars) as
// JSON, and the net/http/pprof endpoints come up under /debug/pprof/.
// The trace subcommand pretty-prints a -debug server's export as
// indented trace trees. A CPU profile of a live server is one line:
//
//	go tool pprof "http://localhost:8080/debug/pprof/profile?seconds=10"
//
// Without -debug none of this is reachable and the serving fast paths
// are byte-identical to the untraced build (pinned by alloc tests).
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/gateway"
	"repro/internal/httpkit"
	"repro/internal/pipeline"
	"repro/internal/privacy"
	"repro/internal/replica"
	"repro/internal/rng"
	"repro/internal/taxi"
	"repro/internal/trace"
	"repro/internal/validation"
	"repro/internal/wal"
)

// options carries the flags shared by the subcommands.
type options struct {
	epsG       float64
	delta      float64
	days       int
	nPipelines int
	userBlocks bool
	// serve/replica/daemon.
	addr       string
	featureEps float64
	push       string
	pushToken  string
	// daemon-only.
	walDir       string
	tick         time.Duration
	rowsPerBlock int
	retention    int
	maxTicks     int
	compactEvery int
	compactBytes int64
	ledgerShards int
	sla          string
	seed         uint64
	eps0         float64
	epsCap       float64
	noSync       bool
	drain        time.Duration
	// keepServing is set by the serve preset, never by a flag: once the
	// loop has run its -max-ticks the listener stays up until a signal.
	keepServing bool
	// debug enables the observability surface on any server mode:
	// request tracing (GET /debug/trace) and the net/http/pprof
	// endpoints (GET /debug/pprof/...).
	debug bool
	// trace-only.
	traceID string
	// wal-only.
	walVerbose bool
	// gateway-only.
	backends        string
	from            string
	attemptTimeout  time.Duration
	healthInterval  time.Duration
	lagVersions     int
	breakerFails    int
	breakerCooldown time.Duration
}

func main() {
	args := os.Args[1:]
	mode := "ledger"
	if len(args) > 0 {
		switch args[0] {
		case "ledger", "serve", "replica", "daemon", "gateway", "wal", "trace":
			mode = args[0]
			args = args[1:]
		}
	}

	fs := flag.NewFlagSet("sagectl "+mode, flag.ExitOnError)
	var opt options
	fs.Float64Var(&opt.epsG, "epsg", 1.0, "global per-block ε ceiling")
	fs.Float64Var(&opt.delta, "delta", 1e-6, "global per-block δ ceiling")
	fs.IntVar(&opt.nPipelines, "pipelines", 3, "number of pipelines to run")
	if mode == "ledger" || mode == "serve" {
		// The daemon runs until stopped, not for a number of days.
		fs.IntVar(&opt.days, "days", 30, "days of stream to generate")
	}
	switch mode {
	case "ledger":
		// The daemon's stream is time-partitioned.
		fs.BoolVar(&opt.userBlocks, "user-blocks", false, "partition blocks by user ID (user-level privacy, §4.4) instead of by day")
	case "replica":
		fs.StringVar(&opt.addr, "addr", ":8081", "HTTP listen address for this replica")
		fs.BoolVar(&opt.debug, "debug", false, "serve GET /debug/trace and the /debug/pprof endpoints")
		fs.StringVar(&opt.pushToken, "push-token", "", "require this bearer token on POST /push (empty = open)")
	case "serve", "daemon":
		fs.StringVar(&opt.addr, "addr", ":8080", "HTTP listen address (serving API + /daemon/status)")
		fs.BoolVar(&opt.debug, "debug", false, "serve GET /debug/trace and the /debug/pprof endpoints")
		fs.StringVar(&opt.push, "push", "", "comma-separated replica base URLs to push accepted bundles to")
		fs.StringVar(&opt.pushToken, "push-token", "", "bearer token sent with every push (replicas started with the same -push-token)")
		if mode == "serve" {
			// The preset (runServePreset) decides the rest.
			fs.Float64Var(&opt.featureEps, "feature-eps", 0.2, "ε charged per block for the hour_speed aggregate release (Listing 1)")
			break
		}
		fs.StringVar(&opt.walDir, "wal", "./sage-wal", "write-ahead-log directory (all durable state; reuse it to resume)")
		fs.DurationVar(&opt.tick, "tick", time.Second, "loop period: one stream block + one training attempt per tick")
		fs.IntVar(&opt.rowsPerBlock, "rows-per-block", 4000, "synthetic stream rate (rides per block)")
		fs.Float64Var(&opt.featureEps, "feature-eps", 0.05, "ε charged per block for the hour_speed aggregate release")
		fs.IntVar(&opt.retention, "retention", 0, "keep only the newest N blocks; older ones are retired and their raw data deleted (0 = no age-based retirement)")
		fs.IntVar(&opt.maxTicks, "max-ticks", 0, "stop after N ticks (0 = run until SIGTERM)")
		fs.IntVar(&opt.compactEvery, "compact-every", 64, "compact the WALs every N ticks")
		fs.Int64Var(&opt.compactBytes, "compact-bytes", 0, "also compact any WAL that grows past this many bytes, checked every tick (0 = tick cadence only)")
		fs.IntVar(&opt.ledgerShards, "ledger-shards", 1, "stripe the privacy ledger across N WAL segments for concurrent charge throughput (fixed at directory creation; an existing -wal dir's layout wins)")
		fs.StringVar(&opt.sla, "sla", "", "comma-separated per-pipeline MSE targets (default paper-scale serve targets)")
		fs.Uint64Var(&opt.seed, "seed", 17, "stream/training seed (per-block data derives from it, so restarts regenerate identical blocks)")
		fs.Float64Var(&opt.eps0, "eps0", 0, "adaptive search starting ε (default εg/8)")
		fs.Float64Var(&opt.epsCap, "eps-cap", 0, "adaptive search per-attempt ε cap (default εg/2)")
		fs.BoolVar(&opt.noSync, "no-sync", false, "disable per-append fsync (tests only: crash durability drops to what the OS flushed)")
		fs.DurationVar(&opt.drain, "drain", 30*time.Second, "bound on every replica sync the daemon waits on: the one at startup and the final one at graceful shutdown (0 = the daemon's 30s default)")
	case "trace":
		fs.StringVar(&opt.from, "from", "", "base URL of a sagectl server running with -debug (required)")
		fs.StringVar(&opt.traceID, "id", "", "show only the trace with this 32-hex-digit id")
	case "wal":
		fs.StringVar(&opt.walDir, "wal", "./sage-wal", "write-ahead-log directory to inspect")
		fs.BoolVar(&opt.walVerbose, "v", false, "list every record (offset, length, type, CRC) instead of per-log summaries")
	case "gateway":
		fs.StringVar(&opt.addr, "addr", ":8090", "HTTP listen address for the gateway")
		fs.BoolVar(&opt.debug, "debug", false, "serve GET /debug/trace and the /debug/pprof endpoints")
		fs.StringVar(&opt.backends, "backends", "", "comma-separated replica base URLs to route over")
		fs.StringVar(&opt.from, "from", "", "daemon base URL to bootstrap replica membership from (GET /daemon/status)")
		fs.DurationVar(&opt.attemptTimeout, "attempt-timeout", 10*time.Second, "deadline for one proxied attempt (a failed-over request pays at most two)")
		fs.DurationVar(&opt.healthInterval, "health-interval", 2*time.Second, "active health-probe period")
		fs.IntVar(&opt.lagVersions, "lag-versions", 2, "drain a replica whose applied watermark trails the fleet by more than this many versions")
		fs.IntVar(&opt.breakerFails, "breaker-failures", 5, "consecutive failures that open a replica's circuit breaker")
		fs.DurationVar(&opt.breakerCooldown, "breaker-cooldown", 5*time.Second, "open-breaker cooldown before a half-open probe")
	}
	_ = fs.Parse(args)

	var err error
	switch mode {
	case "wal":
		err = runWalInspect(opt)
	case "trace":
		err = runTrace(opt)
	case "replica":
		err = runReplica(opt)
	case "gateway":
		err = runGateway(opt)
	default:
		// Only these train: replicas serve what a publisher pushes into
		// them, gateways route over replicas — no budget, no stream.
		budget, berr := privacy.NewBudget(opt.epsG, opt.delta)
		if berr != nil {
			fmt.Fprintln(os.Stderr, berr)
			os.Exit(2)
		}
		switch mode {
		case "serve":
			err = runServePreset(opt, budget)
		case "daemon":
			err = runDaemon(opt, budget)
		default:
			err = runLedger(opt, budget)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// parseTargets parses the -sla list.
func parseTargets(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("sagectl: bad -sla entry %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// runServePreset is `sagectl serve`: runDaemon with the flags a demo
// does not want to choose filled in. The WAL directory is a throwaway
// (the daemon has no memory-only mode to special-case; it journals to a
// directory nobody will reopen, without fsync), the stream runs one
// 8000-ride day per millisecond tick for -days ticks, and the SLA
// targets are ones a six-day window of this stream validates, so a
// short demo has releases to serve.
func runServePreset(opt options, budget privacy.Budget) error {
	if opt.days < 1 {
		return fmt.Errorf("sagectl serve: -days must be at least 1")
	}
	dir, err := os.MkdirTemp("", "sagectl-serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opt.walDir, opt.noSync = dir, true
	opt.tick, opt.maxTicks = time.Millisecond, opt.days
	opt.rowsPerBlock, opt.sla = 8000, "0.04,0.042,0.041"
	opt.keepServing = true
	return runDaemon(opt, budget)
}

// runDaemon runs the continuous platform loop until SIGTERM/SIGINT
// (graceful drain) or -max-ticks.
func runDaemon(opt options, budget privacy.Budget) error {
	targets, err := parseTargets(opt.sla)
	if err != nil {
		return err
	}
	cfg := daemon.Config{
		Dir:           opt.walDir,
		Global:        budget,
		Tick:          opt.tick,
		RowsPerBlock:  opt.rowsPerBlock,
		Pipelines:     opt.nPipelines,
		SLATargets:    targets,
		FeatureEps:    opt.featureEps,
		Epsilon0:      opt.eps0,
		EpsilonCap:    opt.epsCap,
		Retention:     opt.retention,
		Seed:          opt.seed,
		MaxTicks:      opt.maxTicks,
		CompactEvery:  opt.compactEvery,
		CompactBytes:  opt.compactBytes,
		LedgerShards:  opt.ledgerShards,
		NoSync:        opt.noSync,
		DrainTimeout:  opt.drain,
		PushEndpoints: splitEndpoints(opt.push),
		PushToken:     opt.pushToken,
		Tracer:        newTracer(opt.debug, "daemon"),
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	}
	d, stats, err := daemon.New(cfg)
	if err != nil {
		return err
	}
	if stats.Ledger.Records > 0 || stats.Store.Records > 0 {
		fmt.Printf("daemon: recovered WAL (%d ledger records, %d store records", stats.Ledger.Records, stats.Store.Records)
		if stats.Ledger.Truncated || stats.Store.Truncated {
			fmt.Printf("; torn tail truncated: %dB ledger, %dB store",
				stats.Ledger.TornBytes, stats.Store.TornBytes)
		}
		fmt.Println(")")
	}

	lis, err := net.Listen("tcp", opt.addr)
	if err != nil {
		d.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The e2e harness parses this line to find the bound port, and may
	// SIGTERM any time after: the handler above is installed first.
	fmt.Printf("daemon: serving on %s (wal %s)\n", lis.Addr(), opt.walDir)
	srv := httpkit.NewServer("", d.Handler())
	go func() { _ = srv.Serve(lis) }()

	runErr := d.Run(ctx)
	if opt.keepServing && runErr == nil {
		st := d.Status()
		fmt.Printf("daemon: serving %d release(s) of %d model(s) on %s until SIGTERM (ledger loss ε=%.4g)\n",
			st.Published, len(st.StoreVersions), lis.Addr(), st.StreamLossEps)
		<-ctx.Done()
	}

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	if runErr == nil {
		fmt.Println("daemon: drained cleanly")
	}
	return runErr
}

// runWalInspect prints what recovery would see in a durable directory:
// each log file's record count, intact/total bytes, and whether the
// tail is torn (and so would be truncated on the next open). With -v it
// lists every frame. Read-only — safe on a live daemon's directory, but
// the snapshot may be mid-append.
func runWalInspect(opt options) error {
	files, err := durable.LogFiles(opt.walDir)
	if err != nil {
		return fmt.Errorf("sagectl wal: %w", err)
	}
	if len(files) == 0 {
		return fmt.Errorf("sagectl wal: no log files in %s", opt.walDir)
	}
	torn := 0
	for _, path := range files {
		rep, err := wal.Inspect(path)
		if err != nil {
			return fmt.Errorf("sagectl wal: %w", err)
		}
		status := "clean"
		if rep.Torn() {
			torn++
			status = fmt.Sprintf("TORN tail: %d byte(s) after offset %d would be truncated",
				rep.TotalBytes-rep.GoodBytes, rep.GoodBytes)
		}
		intact := len(rep.Records)
		if intact > 0 && !rep.Records[intact-1].CRCOK {
			intact--
		}
		fmt.Printf("%s: %d record(s), %d/%d bytes intact, %s\n",
			filepath.Base(path), intact, rep.GoodBytes, rep.TotalBytes, status)
		if !opt.walVerbose {
			continue
		}
		for _, r := range rep.Records {
			crc := "ok"
			if !r.CRCOK {
				crc = "BAD"
			}
			fmt.Printf("  offset %10d  len %8d  type %3d  crc %s\n", r.Offset, r.Length, r.Type, crc)
		}
	}
	if torn > 0 {
		fmt.Printf("%d of %d log(s) carry tail damage; the journaled prefix is intact and recovery truncates the rest\n", torn, len(files))
	}
	return nil
}

// runTrace fetches GET /debug/trace from a sagectl server started with
// -debug and pretty-prints the captured and recent spans as indented
// trace trees. With -id it asks the server for that one trace.
func runTrace(opt options) error {
	if opt.from == "" {
		return fmt.Errorf("sagectl trace: -from http://host:port is required (a server started with -debug)")
	}
	url := strings.TrimSuffix(opt.from, "/") + "/debug/trace"
	if opt.traceID != "" {
		url += "?trace=" + opt.traceID
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("sagectl trace: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("sagectl trace: GET %s: HTTP %d (is the server running with -debug?)", url, resp.StatusCode)
	}
	var snap trace.Snapshot
	if err := httpkit.ReadJSON(resp.Body, httpkit.TraceReplyBytes, &snap); err != nil {
		return fmt.Errorf("sagectl trace: decoding %s: %w", url, err)
	}
	fmt.Printf("service %s: %d span(s) recorded, %d trace(s) captured\n",
		snap.Service, snap.SpansRecorded, snap.Captures)
	printTraceSection("captured", snap.Captured)
	printTraceSection("recent", snap.Recent)
	return nil
}

// printTraceSection groups one exported span list by trace id and
// prints each trace as a tree: children indented under parents, both in
// start order. A span whose parent is outside the export (a remote
// parent, or one already overwritten in the ring) prints as a root.
func printTraceSection(label string, spans []trace.SpanJSON) {
	if len(spans) == 0 {
		return
	}
	fmt.Printf("\n%s:\n", label)
	var order []string
	byTrace := make(map[string][]trace.SpanJSON)
	for _, sp := range spans {
		if _, ok := byTrace[sp.TraceID]; !ok {
			order = append(order, sp.TraceID)
		}
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}
	for _, id := range order {
		fmt.Printf("trace %s\n", id)
		group := byTrace[id]
		local := make(map[string]bool, len(group))
		for _, sp := range group {
			local[sp.SpanID] = true
		}
		children := make(map[string][]trace.SpanJSON)
		var roots []trace.SpanJSON
		for _, sp := range group {
			if sp.ParentID != "" && local[sp.ParentID] {
				children[sp.ParentID] = append(children[sp.ParentID], sp)
			} else {
				roots = append(roots, sp)
			}
		}
		sortSpansByStart(roots)
		for _, r := range roots {
			printSpanTree(r, children, 1)
		}
	}
}

func sortSpansByStart(spans []trace.SpanJSON) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
}

func printSpanTree(sp trace.SpanJSON, children map[string][]trace.SpanJSON, depth int) {
	var tail strings.Builder
	if sp.Status != 0 {
		fmt.Fprintf(&tail, " status=%d", sp.Status)
	}
	if sp.Outcome != "" {
		fmt.Fprintf(&tail, " outcome=%s", sp.Outcome)
	}
	for _, a := range sp.Attrs {
		fmt.Fprintf(&tail, " %s=%s", a.Key, a.Value)
	}
	for _, e := range sp.Events {
		fmt.Fprintf(&tail, " event:%s+%dus", e.Name, e.OffsetUS)
	}
	fmt.Printf("%s%s [%s] %.3fms%s\n",
		strings.Repeat("  ", depth), sp.Name, sp.Service, float64(sp.DurationUS)/1000, tail.String())
	kids := children[sp.SpanID]
	sortSpansByStart(kids)
	for _, k := range kids {
		printSpanTree(k, children, depth+1)
	}
}

// newTracer builds a per-tier tracer, or nil when -debug is off. A nil
// tracer is the compiled-in-but-disabled state: every method is a
// nil-check no-op and Middleware returns its handler unchanged, so the
// serving fast paths keep their pinned allocation budgets.
func newTracer(debug bool, service string) *trace.Tracer {
	if !debug {
		return nil
	}
	return trace.New(trace.Config{Service: service})
}

// runGateway fronts a replica fleet with the fault-tolerant routing
// tier. Membership is the union of -backends and, with -from, the
// replica endpoints a running daemon reports in /daemon/status.
func runGateway(opt options) error {
	backends := splitEndpoints(opt.backends)
	if opt.from != "" {
		discovered, err := fetchMembership(opt.from)
		if err != nil {
			return fmt.Errorf("sagectl: discovering replicas from %s: %w", opt.from, err)
		}
		fmt.Printf("gateway: discovered %d replica(s) from %s\n", len(discovered), opt.from)
		backends = append(backends, discovered...)
	}
	seen := make(map[string]bool, len(backends))
	uniq := backends[:0]
	for _, b := range backends {
		if b != "" && !seen[b] {
			seen[b] = true
			uniq = append(uniq, b)
		}
	}
	g, err := gateway.New(gateway.Config{
		Backends:       uniq,
		AttemptTimeout: opt.attemptTimeout,
		HealthInterval: opt.healthInterval,
		LagVersions:    opt.lagVersions,
		Breaker: gateway.BreakerConfig{
			FailThreshold: opt.breakerFails,
			Cooldown:      opt.breakerCooldown,
		},
		Tracer: newTracer(opt.debug, "gateway"),
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	g.Start()
	defer g.Stop()

	base := opt.addr
	if strings.HasPrefix(base, ":") {
		base = "localhost" + base
	}
	fmt.Printf("gateway on %s over %d replica(s): %s\n", opt.addr, len(uniq), strings.Join(uniq, ", "))
	fmt.Printf("  curl %s/gateway/status\n", base)
	fmt.Printf("  curl %s/models\n", base)
	return httpkit.NewServer(opt.addr, g.Handler()).ListenAndServe()
}

// fetchMembership reads the replica endpoints a daemon is pushing to.
func fetchMembership(daemonURL string) ([]string, error) {
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(strings.TrimSuffix(daemonURL, "/") + "/daemon/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("daemon status: HTTP %d", resp.StatusCode)
	}
	var st struct {
		Replicas map[string]map[string]int `json:"replicas"`
	}
	if err := httpkit.ReadJSON(resp.Body, httpkit.DaemonStatusBytes, &st); err != nil {
		return nil, err
	}
	eps := make([]string, 0, len(st.Replicas))
	for ep := range st.Replicas {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	return eps, nil
}

// splitEndpoints parses the -push list.
func splitEndpoints(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// ledgerTargets are deliberately aggressive MSE targets: the ledger
// demo wants to show retries draining block budgets and DP retention
// kicking in.
var ledgerTargets = []float64{0.0095, 0.0088, 0.0082, 0.0078, 0.0075}

// runLedger is the original sagectl demo: pipelines + ledger dump.
func runLedger(opt options, budget privacy.Budget) error {
	var part data.Partitioner = data.TimePartitioner{Window: 24}
	if opt.userBlocks {
		part = data.UserPartitioner{}
	}
	db := data.NewGrowingDatabase(part)
	ac := core.NewAccessControl(core.Policy{Global: budget})
	ac.SetRetireCallback(func(id data.BlockID) {
		fmt.Printf("! block %d retired — DP-informed retention deletes its raw data\n", id)
	})

	stream := taxi.Pipeline(opt.days*8000, 0, int64(opt.days)*24, 0, 0, 17)
	for _, id := range db.Insert(stream.Examples...) {
		ac.RegisterBlock(id)
	}
	fmt.Printf("stream: %d samples in %d blocks (partitioner %s), policy %v\n\n",
		db.Size(), db.NumBlocks(), db.Partitioner().Name(), budget)

	r := rng.New(3)
	for i := 0; i < opt.nPipelines; i++ {
		pipe := &pipeline.Pipeline{
			Name:    fmt.Sprintf("taxi-lr-%d", i),
			Trainer: pipeline.AdaSSPTrainer{Rho: 0.1, FeatureBound: 2.5, LabelBound: 1},
			Validator: pipeline.MSEValidator{
				Target: ledgerTargets[i%len(ledgerTargets)], B: 1,
				ERMTrainer: pipeline.RidgeTrainer{Lambda: 1e-4},
			},
			Mode: validation.ModeSage,
		}
		st := &adaptive.StreamTrainer{
			AC: ac, DB: db, Pipe: pipe,
			Epsilon0: budget.Epsilon / 8, EpsilonCap: budget.Epsilon,
			Delta: opt.delta / 100, MinWindow: min(6, db.NumBlocks()),
		}
		res, err := st.Run(r)
		if err != nil {
			fmt.Printf("pipeline %d (%s): blocked — %v\n", i, pipe.Name, err)
			continue
		}
		fmt.Printf("pipeline %d (%s): %v in %d iterations, %d samples, spent %v\n",
			i, pipe.Name, res.Decision, res.Iterations, res.Samples, res.TotalSpent)
	}

	fmt.Println("\nblock ledger:")
	fmt.Printf("%-8s %-28s %-28s %-8s %s\n", "block", "loss", "remaining", "queries", "state")
	for _, rep := range ac.Report(db.Blocks()) {
		state := "active"
		if rep.Retired {
			state = fmt.Sprintf("RETIRED (%s)", rep.Reason)
		}
		fmt.Printf("%-8d %-28v %-28v %-8d %s\n", rep.ID, rep.Loss, rep.Remain, rep.Queries, state)
	}
	fmt.Printf("\nstream-wide privacy loss (max over blocks): %v — guarantee %v holds\n",
		ac.StreamLoss(), budget)
	return nil
}

// runReplica serves one member of the replicated tier: an empty local
// store that fills up as a publisher pushes bundles, answering the same
// read API as serve mode.
func runReplica(opt options) error {
	base := opt.addr
	if strings.HasPrefix(base, ":") {
		base = "localhost" + base
	}
	fmt.Printf("replica on %s — push bundles with `sagectl serve -push http://%s`, inspect with:\n", opt.addr, base)
	fmt.Printf("  curl %s/replica/status\n", base)
	fmt.Printf("  curl %s/models\n", base)
	var sopts []replica.ServerOption
	if opt.pushToken != "" {
		fmt.Println("  (POST /push requires the shared bearer token)")
		sopts = append(sopts, replica.WithAuthToken(opt.pushToken))
	}
	sopts = append(sopts, replica.WithTracer(newTracer(opt.debug, "replica")))
	return httpkit.NewServer(opt.addr, replica.NewServer(sopts...).Handler()).ListenAndServe()
}
