// Command zen2eed is the experiment-serving daemon: an HTTP/JSON front end
// over the core scheduler with a bounded job queue, a content-addressed
// result cache with singleflight deduplication, live SSE progress streams,
// and Prometheus metrics. Sweeps batch many (Scale, Seed) configurations
// into one job, content-addressed per configuration against the same cache
// single jobs use; a single job is the one-configuration sweep of its spec
// and executes on the same path.
//
// Usage: zen2eed [-addr :8080] [-executors N] [-queue N] [-cache N]
// [-cache-bytes N] [-sse-keepalive D] [-log-format text|json] [-log-level L]
// [-trace-bytes N] [-pprof] [-listen-workers] [-lease-ttl D] [-lease-batch K]
// [-tenant-config F] [-store-dir D] [-store-bytes N] [-shard-cache]
//
// With -tenant-config the daemon enforces multi-tenant governance: job
// submissions authenticate with API keys (Authorization: Bearer or
// X-API-Key), each tenant carries token-bucket rate limits, inflight and
// queue quotas, an optional circuit breaker, and a weighted fair share of
// the executor slots; interactive jobs preempt bulk sweeps between
// shards. GET /v1/tenants lists live per-tenant usage.
//
// With -store-dir computed results are also written through to a
// content-addressed directory of files: entries evicted from the in-memory
// cache (and results computed before a restart) are served from disk
// instead of being re-simulated, and daemons sharing the directory warm
// each other.
//
// With -shard-cache individual shard outputs are additionally memoized in
// the result store under their deterministic (experiment, scale, seed,
// shard) address: a sweep that shares configurations with earlier work
// re-executes only its missing shards, and combined with -store-dir a
// daemon killed mid-sweep resumes from its last completed shard — with
// byte-identical results, since the cached gob payloads round-trip
// float64 values exactly. The cache lives on the serving daemon, in front
// of local execution and the worker lease queue alike, so a memoized shard
// is never dispatched; -shard-cache is a usage error with -worker.
//
// With -listen-workers the daemon also acts as a distributed shard
// coordinator: headless worker processes started with
//
//	zen2eed -worker http://coordinator:8080 [-worker-name N] [-executors S]
//
// register over POST /dist/v1/*, lease (configuration, experiment, shard)
// tasks, and execute them with the same per-shard RNG streams the local
// scheduler derives — results are byte-identical however the shards are
// placed. GET /v1/workers reports the pool. Workers that miss heartbeats
// for -lease-ttl lose their leases, which re-queue on the survivors (or
// run locally); a SIGTERM'd worker finishes its in-flight shards and
// deregisters, relinquishing anything unfinished immediately.
//
// The daemon logs structured events via log/slog: one access line per
// request and job lifecycle events (queued/started/done/failed) carrying a
// short job correlation ID. -log-format picks text or JSON encoding;
// -log-level sets the threshold (debug adds per-experiment and per-config
// completion events). Every executed job also records a Chrome trace-event
// document served at /v1/jobs/{id}/trace; -trace-bytes bounds the per-job
// span buffer (-1 disables tracing).
//
//	curl -d '{"ids":["fig3"],"scale":1,"seed":1}' localhost:8080/v1/jobs
//	curl -d '{"ids":["fig7"],"scales":[1,2],"seeds":[1,2,3]}' localhost:8080/v1/sweeps
//	curl localhost:8080/v1/jobs                    # list active/recent jobs
//	curl localhost:8080/v1/jobs/<id>/events        # live SSE progress
//	curl localhost:8080/v1/jobs/<id>/result        # canonical result JSON
//	curl localhost:8080/metrics
//
// With -pprof the standard net/http/pprof handlers are mounted under
// /debug/pprof/, so hot paths can be profiled on a live daemon:
//
//	go tool pprof http://localhost:8080/debug/pprof/profile?seconds=30
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"zen2ee/internal/dist"
	"zen2ee/internal/service"
	"zen2ee/internal/store"
	"zen2ee/internal/tenant"
)

// options is the parsed command line.
type options struct {
	addr      string
	pprof     bool
	logFormat string
	logLevel  string
	// worker switches the process into headless worker mode against the
	// coordinator at this base URL; workerName overrides its reported name.
	worker     string
	workerName string
	// tenantConfig is the -tenant-config JSON path; storeDir/storeBytes
	// configure the persistent result-store tier. Loaded in main, not
	// parseFlags, so flag validation stays free of filesystem access.
	tenantConfig string
	storeDir     string
	storeBytes   int64
	// shardCache enables shard-output memoization in the result store
	// (disk-backed with -store-dir). leaseBatch tunes the dist protocol's
	// batch size on whichever side this process runs.
	shardCache bool
	leaseBatch int
	cfg        service.Config
}

// buildLogger resolves the -log-format/-log-level pair into the daemon's
// slog.Logger, writing to w.
func (o options) buildLogger(w io.Writer) (*slog.Logger, error) {
	var level slog.Level
	if err := level.UnmarshalText([]byte(o.logLevel)); err != nil {
		return nil, fmt.Errorf("-log-level: %q is not a slog level (debug, info, warn, error)", o.logLevel)
	}
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(o.logFormat) {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format: %q is not text or json", o.logFormat)
	}
}

// parseFlags is main's flag handling, separated for testing.
func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("zen2eed", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.cfg.Executors, "executors", 2, "experiment shards simulating concurrently across all jobs (a lone heavy job fans out over the whole pool)")
	fs.IntVar(&o.cfg.QueueDepth, "queue", 64, "bounded job queue depth; submissions beyond it get 503")
	fs.IntVar(&o.cfg.CacheEntries, "cache", 256, "content-addressed result cache entries")
	fs.Int64Var(&o.cfg.CacheBytes, "cache-bytes", 0,
		"result cache byte bound: entries are weighted by payload size and evicted LRU-first past it (0 = unbounded; the entry bound still applies)")
	fs.DurationVar(&o.cfg.SSEKeepAlive, "sse-keepalive", 15*time.Second,
		"idle interval between SSE comment frames on progress streams (keeps proxies from dropping long sweeps)")
	fs.BoolVar(&o.pprof, "pprof", false,
		"expose net/http/pprof handlers under /debug/pprof/ for in-situ profiling")
	fs.StringVar(&o.logFormat, "log-format", "text",
		"structured log encoding: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info",
		"log threshold: debug, info, warn, or error (debug adds per-experiment and per-config completion events)")
	fs.Int64Var(&o.cfg.TraceBytes, "trace-bytes", 0,
		"per-job execution-trace span buffer bound in bytes (0 = the 1 MiB default, negative disables per-job tracing)")
	fs.BoolVar(&o.cfg.Dist, "listen-workers", false,
		"accept remote 'zen2eed -worker' processes on this daemon's address: mounts the /dist/v1/ worker protocol and GET /v1/workers, and dispatches job shards to the connected pool")
	fs.DurationVar(&o.cfg.DistLeaseTTL, "lease-ttl", 0,
		"how long a worker may go silent before its leased shards re-queue elsewhere (0 = the 15s default; needs -listen-workers)")
	fs.StringVar(&o.worker, "worker", "",
		"run as a headless worker for the coordinator at this base URL (http://host:port) instead of serving; -executors sets the concurrent shard slots")
	fs.StringVar(&o.workerName, "worker-name", "",
		"name this worker reports to the coordinator (default: hostname-pid; needs -worker)")
	fs.StringVar(&o.tenantConfig, "tenant-config", "",
		"JSON tenant config enabling multi-tenant governance: API-key auth on submissions, per-tenant rate limits, quotas, circuit breaking, and weighted fair scheduling (omitted = single anonymous tenant, no auth)")
	fs.StringVar(&o.storeDir, "store-dir", "",
		"directory for the persistent result-store tier: computed results are written through to content-addressed files and survive daemon restarts (omitted = memory-only cache)")
	fs.Int64Var(&o.storeBytes, "store-bytes", 0,
		"persistent store tier byte bound, evicted LRU-first past it (0 = unbounded; needs -store-dir)")
	fs.BoolVar(&o.shardCache, "shard-cache", false,
		"memoize individual shard outputs by their deterministic address in the result store: warm shards skip execution (and are never leased to workers), and with -store-dir an interrupted sweep resumes from its last completed shard after a restart; serving daemon only, not -worker mode")
	fs.IntVar(&o.leaseBatch, "lease-batch", 0,
		"shard tasks moved per dist lease round trip: with -listen-workers, the most one worker poll may be granted (0 = the 16 default); with -worker, the batch size requested per poll (0 = the slot count)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if _, err := o.buildLogger(io.Discard); err != nil {
		return o, err
	}
	if o.cfg.Executors < 1 || o.cfg.QueueDepth < 1 || o.cfg.CacheEntries < 1 {
		return o, fmt.Errorf("-executors, -queue and -cache must be >= 1")
	}
	if o.cfg.CacheBytes < 0 {
		return o, fmt.Errorf("-cache-bytes must be >= 0 (0 means unbounded)")
	}
	if o.cfg.SSEKeepAlive < time.Second {
		return o, fmt.Errorf("-sse-keepalive must be >= 1s")
	}
	if o.worker != "" && o.cfg.Dist {
		return o, fmt.Errorf("-worker and -listen-workers are mutually exclusive: a process either serves jobs or executes another coordinator's shards")
	}
	if o.workerName != "" && o.worker == "" {
		return o, fmt.Errorf("-worker-name only applies with -worker")
	}
	if o.cfg.DistLeaseTTL < 0 {
		return o, fmt.Errorf("-lease-ttl must be >= 0 (0 means the 15s default)")
	}
	if o.cfg.DistLeaseTTL > 0 && !o.cfg.Dist {
		return o, fmt.Errorf("-lease-ttl only applies with -listen-workers")
	}
	if o.storeBytes < 0 {
		return o, fmt.Errorf("-store-bytes must be >= 0 (0 means unbounded)")
	}
	if o.storeBytes > 0 && o.storeDir == "" {
		return o, fmt.Errorf("-store-bytes only applies with -store-dir")
	}
	if o.worker != "" && (o.tenantConfig != "" || o.storeDir != "" || o.shardCache) {
		return o, fmt.Errorf("-tenant-config, -store-dir and -shard-cache only apply to the serving daemon, not -worker mode")
	}
	if o.leaseBatch < 0 {
		return o, fmt.Errorf("-lease-batch must be >= 0 (0 means the default)")
	}
	if o.leaseBatch > 0 && o.worker == "" && !o.cfg.Dist {
		return o, fmt.Errorf("-lease-batch only applies with -worker or -listen-workers")
	}
	o.cfg.ShardCache = o.shardCache
	o.cfg.DistLeaseBatch = o.leaseBatch
	return o, nil
}

// runWorker is the -worker mode: a headless pool member that leases and
// executes shards for a remote coordinator until SIGTERM/SIGINT, then
// drains — in-flight shards finish and complete, anything unfinished past
// the drain bound is relinquished via deregister so the coordinator
// re-queues it immediately.
func runWorker(o options, logger *slog.Logger) error {
	host, _ := os.Hostname()
	name := o.workerName
	if name == "" {
		if host == "" {
			name = fmt.Sprintf("worker-%d", os.Getpid())
		} else {
			name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
	}
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: o.worker, Name: name, Host: host, PID: os.Getpid(),
		Slots: o.cfg.Executors, LeaseBatch: o.leaseBatch, Logger: logger,
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "zen2eed: worker %q executing %d slot(s) for %s\n",
		name, o.cfg.Executors, o.worker)
	return w.Run(ctx)
}

// withPprof mounts the net/http/pprof handlers in front of the service when
// enabled (explicit registration — the daemon does not use the default mux,
// so the pprof package's init registrations never become reachable without
// the flag).
func withPprof(svc http.Handler, enabled bool) http.Handler {
	if !enabled {
		return svc
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", svc)
	return mux
}

func main() {
	o, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0) // -h is a successful help request, not a usage error
		}
		fmt.Fprintln(os.Stderr, "zen2eed:", err)
		os.Exit(2)
	}

	logger, err := o.buildLogger(os.Stderr)
	if err != nil {
		// Unreachable after parseFlags validated the pair; keep the guard in
		// case the two drift.
		fmt.Fprintln(os.Stderr, "zen2eed:", err)
		os.Exit(2)
	}
	o.cfg.Logger = logger

	if o.worker != "" {
		if err := runWorker(o, logger); err != nil {
			fmt.Fprintln(os.Stderr, "zen2eed:", err)
			os.Exit(1)
		}
		return
	}

	if o.tenantConfig != "" {
		reg, err := tenant.LoadFile(o.tenantConfig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zen2eed:", err)
			os.Exit(2)
		}
		o.cfg.Tenants = reg
	}
	if o.storeDir != "" {
		disk, err := store.NewDisk(o.storeDir, o.storeBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zen2eed:", err)
			os.Exit(2)
		}
		// The memory LRU keeps its -cache/-cache-bytes bounds as tier 1;
		// the disk tier resurrects whatever memory evicts.
		o.cfg.Store = store.NewTiered(
			store.NewMemory(o.cfg.CacheEntries, o.cfg.CacheBytes), disk)
	}

	svc := service.New(o.cfg)
	defer svc.Close()
	httpServer := &http.Server{Addr: o.addr, Handler: withPprof(svc, o.pprof)}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpServer.Shutdown(shutdownCtx)
	}()

	fmt.Fprintf(os.Stderr, "zen2eed: serving on %s (executors %d, queue %d, cache %d)\n",
		o.addr, o.cfg.Executors, o.cfg.QueueDepth, o.cfg.CacheEntries)
	if o.cfg.Dist {
		fmt.Fprintf(os.Stderr, "zen2eed: accepting workers (join with: zen2eed -worker http://HOST%s)\n", o.addr)
	}
	if o.cfg.Tenants != nil {
		fmt.Fprintf(os.Stderr, "zen2eed: multi-tenant governance enabled (%d tenants)\n", len(o.cfg.Tenants.Tenants()))
	}
	if o.storeDir != "" {
		fmt.Fprintf(os.Stderr, "zen2eed: persistent result store at %s\n", o.storeDir)
	}
	if o.shardCache {
		fmt.Fprintln(os.Stderr, "zen2eed: shard-output memoization enabled")
	}
	if err := httpServer.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "zen2eed:", err)
		os.Exit(1)
	}
}
