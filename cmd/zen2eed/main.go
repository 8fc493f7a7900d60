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
// [-trace-bytes N] [-pprof] [-tenant-config F] [-store-dir D]
// [-store-bytes N] [-shard-cache]
//
// With -tenant-config the daemon enforces multi-tenant governance: job
// submissions authenticate with API keys (Authorization: Bearer or
// X-API-Key), each tenant carries token-bucket rate limits, inflight and
// queue quotas, and a weighted fair share of the executor slots;
// interactive jobs preempt bulk sweeps between shards. GET /v1/tenants
// lists live per-tenant usage. A failed job answers for its spec, as a
// done one does, until the job table evicts it: failures are as
// deterministic as results, so resubmitting a failing spec runs nothing.
//
// The daemon builds its result store itself: a memory LRU bounded by
// -cache entries and -cache-bytes, which /metrics reports back from the
// store. With -store-dir computed results are also written through to a
// content-addressed directory of files, each framed with its length and
// CRC-32C and checked on every read: entries evicted from the in-memory
// cache (and results computed before a restart) are served from disk
// instead of being re-simulated, a damaged file reads as a miss, and
// daemons sharing the directory warm each other.
//
// With -shard-cache individual shard outputs are additionally memoized in
// the result store under their deterministic (experiment, scale, seed,
// shard) address: a sweep that shares configurations with earlier work
// re-executes only its missing shards, and combined with -store-dir a
// daemon killed mid-sweep resumes from its last completed shard — with
// byte-identical results, since the cached gob payloads round-trip
// float64 values exactly.
//
// The daemon executes every shard in-process, through the tenant gate, and
// links no distribution code: distributed execution belongs to batch
// sweeps, whose coordinator (`zen2ee sweep -listen-workers ADDR`) and
// workers (`zen2ee worker URL`) are both the zen2ee CLI.
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
	// cache and cacheBytes bound the memory result store main builds.
	cache      int
	cacheBytes int64
	// tenantConfig is the -tenant-config JSON path; storeDir/storeBytes
	// configure the persistent result-store tier. Loaded in main, not
	// parseFlags, so flag validation stays free of filesystem access.
	tenantConfig string
	storeDir     string
	storeBytes   int64
	// shardCache enables shard-output memoization in the result store
	// (disk-backed with -store-dir).
	shardCache bool
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
	fs.IntVar(&o.cache, "cache", 256, "content-addressed result cache entries")
	fs.Int64Var(&o.cacheBytes, "cache-bytes", 0,
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
	fs.StringVar(&o.tenantConfig, "tenant-config", "",
		"JSON tenant config enabling multi-tenant governance: API-key auth on submissions, per-tenant rate limits, quotas, and weighted fair scheduling (omitted = single anonymous tenant, no auth)")
	fs.StringVar(&o.storeDir, "store-dir", "",
		"directory for the persistent result-store tier: computed results are written through to content-addressed files and survive daemon restarts (omitted = memory-only cache)")
	fs.Int64Var(&o.storeBytes, "store-bytes", 0,
		"persistent store tier byte bound, evicted LRU-first past it (0 = unbounded; needs -store-dir)")
	fs.BoolVar(&o.shardCache, "shard-cache", false,
		"memoize individual shard outputs by their deterministic address in the result store: warm shards skip execution, and with -store-dir an interrupted sweep resumes from its last completed shard after a restart")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() != 0 {
		return o, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if _, err := o.buildLogger(io.Discard); err != nil {
		return o, err
	}
	if o.cfg.Executors < 1 || o.cfg.QueueDepth < 1 || o.cache < 1 {
		return o, fmt.Errorf("-executors, -queue and -cache must be >= 1")
	}
	if o.cacheBytes < 0 {
		return o, fmt.Errorf("-cache-bytes must be >= 0 (0 means unbounded)")
	}
	if o.cfg.SSEKeepAlive < time.Second {
		return o, fmt.Errorf("-sse-keepalive must be >= 1s")
	}
	if o.storeBytes < 0 {
		return o, fmt.Errorf("-store-bytes must be >= 0 (0 means unbounded)")
	}
	if o.storeBytes > 0 && o.storeDir == "" {
		return o, fmt.Errorf("-store-bytes only applies with -store-dir")
	}
	o.cfg.ShardCache = o.shardCache
	return o, nil
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

	if o.tenantConfig != "" {
		reg, err := tenant.LoadFile(o.tenantConfig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zen2eed:", err)
			os.Exit(2)
		}
		o.cfg.Tenants = reg
	}
	mem := store.NewMemory(o.cache, o.cacheBytes)
	o.cfg.Store = mem
	if o.storeDir != "" {
		disk, err := store.NewDisk(o.storeDir, o.storeBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zen2eed:", err)
			os.Exit(2)
		}
		// The memory LRU keeps its -cache/-cache-bytes bounds as tier 1;
		// the disk tier resurrects whatever memory evicts.
		o.cfg.Store = store.NewTiered(mem, disk)
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
		o.addr, o.cfg.Executors, o.cfg.QueueDepth, o.cache)
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
