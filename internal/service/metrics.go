// Daemon observability in Prometheus text exposition format, hand-rolled on
// the stdlib: counters for the job lifecycle and the cache, gauges for live
// queue state, and fixed-bucket latency histograms — shard execution time,
// shard queue wait, and per-experiment wall time — from which scrapers
// derive tail latency, not just means. No client library — the format is a
// few lines of text and the repo is stdlib-only by policy. Bucket layouts
// and label orders are fixed, so two scrapes of the same daemon state are
// byte-identical (pinned by the golden scrape test).

package service

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"time"

	"zen2ee/internal/obs"
	"zen2ee/internal/shardcache"
	"zen2ee/internal/store"
	"zen2ee/internal/tenant"
)

// metrics is the daemon's counter set. The scalar fields are guarded by mu;
// the histograms carry their own locks so the scheduler's ObserveShard hook
// never contends with scrape-time map iteration.
type metrics struct {
	mu sync.Mutex

	jobsQueued   uint64 // accepted onto the queue
	jobsRunning  int    // currently executing (gauge)
	jobsDone     uint64 // completed successfully
	jobsFailed   uint64
	jobsDeduped  uint64 // attached to an identical in-flight job
	cacheHits    uint64 // served from a completed job or the payload cache
	cacheMisses  uint64
	badRequests  uint64
	queueRejects uint64 // bounded queue was full
	panics       uint64 // handler panics recovered by the middleware

	// authRejects and tenantRejects count submissions refused by the
	// governance layer (401s, and 429/503 admission rejections); both are
	// zero — and their series absent — on untenanted daemons.
	authRejects   uint64
	tenantRejects uint64

	sweepsQueued       uint64 // sweep jobs accepted onto the queue
	sweepConfigsRun    uint64 // sweep configurations that simulated
	sweepConfigsCached uint64 // sweep configurations served from the cache

	// shardRun and shardWait observe every shard task the daemon executes,
	// fed by the scheduler's ObserveShard hook: execution wall time and
	// queue wait (enqueue to execution start, slot acquisition included).
	shardRun  *obs.Histogram
	shardWait *obs.Histogram

	experiments map[string]*obs.Histogram
}

func newMetrics() *metrics {
	return &metrics{
		shardRun:    obs.NewHistogram(nil),
		shardWait:   obs.NewHistogram(nil),
		experiments: map[string]*obs.Histogram{},
	}
}

func (m *metrics) add(field *uint64, delta uint64) {
	m.mu.Lock()
	*field += delta
	m.mu.Unlock()
}

func (m *metrics) addRunning(delta int) {
	m.mu.Lock()
	m.jobsRunning += delta
	m.mu.Unlock()
}

// observeShard records one shard task's queue wait and execution time; it
// is the core.RunConfig.ObserveShard hook for every job the daemon runs.
func (m *metrics) observeShard(wait, run time.Duration) {
	m.shardWait.Observe(wait.Seconds())
	m.shardRun.Observe(run.Seconds())
}

// observeExperiment records one experiment completion inside a job.
func (m *metrics) observeExperiment(id string, d time.Duration) {
	m.mu.Lock()
	h := m.experiments[id]
	if h == nil {
		h = obs.NewHistogram(nil)
		m.experiments[id] = h
	}
	m.mu.Unlock()
	h.Observe(d.Seconds())
}

// gauges carries point-in-time values owned by other components, sampled at
// scrape time.
type gauges struct {
	queueDepth, queueCap, cacheEntries, cacheCap int
	// cacheBytes is the summed payload size of the cached entries;
	// cacheBytesCap the configured byte bound (0 = unbounded).
	cacheBytes, cacheBytesCap int64
	// disk is the persistent tier's snapshot and gates its series: only
	// daemons started with -store-dir emit them, keeping the default
	// scrape byte-stable.
	disk *store.DiskStats
	// shardCache gates the shard-memoization series: only daemons started
	// with -shard-cache emit them, keeping the default scrape byte-stable.
	shardCache      bool
	shardCacheStats shardcache.Stats
	// tenancy gates the per-tenant series; tenants is the registry's
	// usage snapshot, sorted by name for stable label order.
	tenancy bool
	tenants []tenant.Usage
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeHistogram renders one histogram series in exposition form:
// cumulative _bucket lines with ascending le labels (then +Inf), _sum, and
// _count. labels holds pre-rendered `name="value",` pairs (trailing comma
// included) spliced before the le label.
func writeHistogram(w io.Writer, name, labels string, snap obs.HistogramSnapshot) {
	for i, b := range snap.Bounds {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, formatFloat(b), snap.Cumulative[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, snap.Count)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(snap.Sum), name, snap.Count)
		return
	}
	trimmed := labels[:len(labels)-1] // drop the trailing comma
	fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n",
		name, trimmed, formatFloat(snap.Sum), name, trimmed, snap.Count)
}

// write renders the exposition document. Label sets are emitted in sorted
// order and bucket layouts are fixed, so scrapes are diffable.
func (m *metrics) write(w io.Writer, g gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, formatFloat(v))
	}
	histogram := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	}

	counter("zen2eed_jobs_queued_total", "Jobs accepted onto the run queue.", m.jobsQueued)
	counter("zen2eed_jobs_completed_total", "Jobs that finished successfully.", m.jobsDone)
	counter("zen2eed_jobs_failed_total", "Jobs that finished with an error.", m.jobsFailed)
	counter("zen2eed_jobs_deduplicated_total", "Requests attached to an identical in-flight job instead of enqueuing a duplicate.", m.jobsDeduped)
	counter("zen2eed_cache_hits_total", "Requests served from a completed job or the result cache without a new simulation.", m.cacheHits)
	counter("zen2eed_cache_misses_total", "Requests that required a new simulation run.", m.cacheMisses)
	counter("zen2eed_bad_requests_total", "Rejected malformed or invalid job requests.", m.badRequests)
	counter("zen2eed_queue_rejections_total", "Jobs rejected because the bounded queue was full.", m.queueRejects)
	counter("zen2eed_handler_panics_total", "HTTP handler panics recovered by the middleware.", m.panics)
	counter("zen2eed_sweeps_queued_total", "Sweep jobs accepted onto the run queue.", m.sweepsQueued)
	counter("zen2eed_sweep_configs_run_total", "Sweep configurations that required a simulation run.", m.sweepConfigsRun)
	counter("zen2eed_sweep_configs_cached_total", "Sweep configurations served from the per-config result cache.", m.sweepConfigsCached)
	gauge("zen2eed_jobs_running", "Jobs currently executing.", float64(m.jobsRunning))
	gauge("zen2eed_queue_depth", "Jobs waiting on the run queue.", float64(g.queueDepth))
	gauge("zen2eed_queue_capacity", "Bounded run queue capacity.", float64(g.queueCap))
	gauge("zen2eed_cache_entries", "Result payloads currently cached.", float64(g.cacheEntries))
	gauge("zen2eed_cache_capacity", "Result cache capacity.", float64(g.cacheCap))
	gauge("zen2eed_cache_bytes", "Summed payload size of cached result entries.", float64(g.cacheBytes))
	gauge("zen2eed_cache_capacity_bytes", "Result cache byte bound (0 = unbounded).", float64(g.cacheBytesCap))
	if d := g.disk; d != nil {
		gauge("zen2eed_store_disk_entries", "Result payloads resident in the persistent store tier.", float64(d.Entries))
		gauge("zen2eed_store_disk_bytes", "Summed payload size of the persistent store tier.", float64(d.Bytes))
		gauge("zen2eed_store_disk_capacity_bytes", "Persistent store tier byte bound (0 = unbounded).", float64(d.CapacityBytes))
		counter("zen2eed_store_disk_hits_total", "Memory-tier misses served from the persistent store tier.", d.Hits)
		counter("zen2eed_store_disk_misses_total", "Store reads that missed both tiers and required a simulation.", d.Misses)
		counter("zen2eed_store_disk_evictions_total", "Objects evicted from the persistent store tier by its byte bound.", d.Evictions)
		counter("zen2eed_store_disk_errors_total", "Persistent store tier I/O failures (writes lost, index entries dropped).", d.Errors)
	}
	if g.shardCache {
		counter("zen2eed_shard_cache_hits_total", "Shard executions skipped because the output was memoized.", g.shardCacheStats.Hits)
		counter("zen2eed_shard_cache_misses_total", "Shard-cache probes that fell through to execution.", g.shardCacheStats.Misses)
		counter("zen2eed_shard_cache_bytes_total", "Summed encoded payload bytes served from the shard cache.", g.shardCacheStats.BytesServed)
	}
	if g.tenancy {
		counter("zen2eed_auth_rejections_total", "Submissions rejected for a missing or unknown API key.", m.authRejects)
		counter("zen2eed_tenant_rejections_total", "Submissions rejected by tenant admission (rate limit or quota).", m.tenantRejects)
		labeledGauge := func(name, help string, value func(tenant.Usage) float64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, u := range g.tenants {
				fmt.Fprintf(w, "%s{tenant=%q} %s\n", name, u.Name, formatFloat(value(u)))
			}
		}
		labeledCounter := func(name, help string, value func(tenant.Usage) uint64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, u := range g.tenants {
				fmt.Fprintf(w, "%s{tenant=%q} %d\n", name, u.Name, value(u))
			}
		}
		labeledGauge("zen2eed_tenant_jobs_queued", "Jobs a tenant has waiting on the run queue.",
			func(u tenant.Usage) float64 { return float64(u.Queued) })
		labeledGauge("zen2eed_tenant_jobs_running", "Jobs a tenant has executing.",
			func(u tenant.Usage) float64 { return float64(u.Running) })
		labeledCounter("zen2eed_tenant_admitted_total", "Submissions a tenant passed through admission.",
			func(u tenant.Usage) uint64 { return u.Admitted })
		// Rejection reasons are a fixed vocabulary so the label set is
		// byte-stable across scrapes even while counts are zero.
		fmt.Fprintf(w, "# HELP zen2eed_tenant_rejected_total Tenant submissions rejected at admission, by reason.\n# TYPE zen2eed_tenant_rejected_total counter\n")
		for _, u := range g.tenants {
			for _, reason := range []string{"quota", "rate"} {
				fmt.Fprintf(w, "zen2eed_tenant_rejected_total{tenant=%q,reason=%q} %d\n",
					u.Name, reason, u.Rejected[reason])
			}
		}
	}

	histogram("zen2eed_shard_run_seconds", "Execution wall time of individual shard tasks.")
	writeHistogram(w, "zen2eed_shard_run_seconds", "", m.shardRun.Snapshot())
	histogram("zen2eed_shard_queue_wait_seconds", "Shard task queue wait: enqueue to execution start, executor-slot acquisition included.")
	writeHistogram(w, "zen2eed_shard_queue_wait_seconds", "", m.shardWait.Snapshot())

	ids := make([]string, 0, len(m.experiments))
	for id := range m.experiments {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	if len(ids) > 0 {
		histogram("zen2eed_experiment_latency_seconds", "Wall time of individual experiments inside jobs.")
	}
	for _, id := range ids {
		writeHistogram(w, "zen2eed_experiment_latency_seconds",
			fmt.Sprintf("experiment=%q,", id), m.experiments[id].Snapshot())
	}
}
