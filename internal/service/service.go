// Package service is the experiment-serving daemon behind cmd/zen2eed: an
// HTTP/JSON front end that accepts experiment jobs, executes them through
// the core worker-pool scheduler on a bounded in-process queue, and serves
// results from a content-addressed cache.
//
// The design leans on one property of the simulation: results are fully
// determined by (experiment set, Scale, Seed). That makes every job
// idempotent, so the daemon gives each spec a content-addressed identity
// and collapses concurrent identical requests onto a single run
// (singleflight) — under heavy duplicate traffic each distinct simulation
// executes exactly once and everyone else gets the cached bytes.
//
// Sweeps are first-class requests: POST /v1/sweeps batches many (Scale,
// Seed) configurations of one experiment set into a single job whose
// shards share the executor pool, and the content addressing is *per
// configuration* — a sweep only runs the configurations no single job (or
// earlier sweep) has computed, and everything it completes is served to
// later single jobs from the same cache. A run job (POST /v1/jobs) is the
// one-configuration sweep of its spec: both kinds execute on one path, the
// SweepRunner, keep their documents only in the content-addressed store,
// and differ only in what they report.
//
// Endpoints:
//
//	POST /v1/jobs               submit {ids, scale, seed, workers}
//	POST /v1/sweeps             submit {ids, configs | scales × seeds, workers}
//	GET  /v1/jobs               list active and recent jobs (newest first)
//	GET  /v1/jobs/{id}          job status, results embedded when done
//	GET  /v1/jobs/{id}/result   the canonical result JSON document (bytes
//	                            are identical across repeated requests)
//	GET  /v1/jobs/{id}/events   live SSE stream of core.Progress events
//	GET  /v1/jobs/{id}/trace    Chrome trace-event JSON of the job's
//	                            execution (Perfetto-loadable)
//	GET  /v1/experiments        the experiment registry
//	GET  /metrics               Prometheus text format
//	GET  /healthz               liveness probe
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/dist"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
	"zen2ee/internal/shardcache"
	"zen2ee/internal/store"
	"zen2ee/internal/tenant"
)

// SweepRunner executes the missing configurations of a job — a sweep, or a
// run job's one configuration — as one merged streaming scheduler run,
// delivering each configuration through onConfig in request order;
// core.RunSweepStream in production, injectable for tests (which observe
// exactly which configurations the daemon did not serve from cache). The
// RunConfig carries the daemon's shared executor gate, so injected runners
// that forward it stay subject to the pool. Implementations must honor the
// RunSweepStream callback contract: onConfig invoked exactly once per
// configuration, never concurrently.
type SweepRunner func(sw core.Sweep, cfg core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error

// Config sizes the daemon.
type Config struct {
	// QueueDepth bounds the number of jobs waiting to run (default 64);
	// submissions beyond it are rejected with 503 rather than buffered
	// without limit.
	QueueDepth int
	// Executors is the number of experiment *shards* executing concurrently
	// across all jobs (default 2). The unit of scheduling is the shard, not
	// the job: a lone heavy job (e.g. fig7's sweep) fans its shards across
	// the whole pool instead of serializing on one executor, and under
	// mixed traffic every job's shards compete for the same slots.
	Executors int
	// CacheEntries bounds the content-addressed result cache (default 256).
	// The cache is the only place a finished job's document lives, so
	// this and CacheBytes bound every retained result: once a job's
	// section is evicted, /result answers 410 and resubmitting recomputes.
	CacheEntries int
	// CacheBytes additionally bounds the result cache by summed payload
	// size — entries are weighted by their marshaled length, so one
	// 25-scale full-suite document counts for what it costs. Zero means no
	// byte bound (the entry bound still applies).
	CacheBytes int64
	// JobHistory bounds the in-memory job table (default 4096); the oldest
	// finished jobs are evicted first. A job record holds no result bytes:
	// its document is read from the result cache, before and after the
	// record is evicted, until the cache evicts it too.
	JobHistory int
	// SSEKeepAlive is the idle interval after which progress streams emit
	// an SSE comment frame (": ping") so proxies do not drop long-running
	// sweep connections (default 15s).
	SSEKeepAlive time.Duration
	// Logger receives the daemon's structured logs: one access line per
	// request, job lifecycle events keyed by short job address, recovered
	// handler panics. Nil discards everything (the handler work is skipped,
	// not formatted and thrown away).
	Logger *slog.Logger
	// TraceBytes bounds each job's execution-trace span buffer (default
	// obs.DefaultLimitBytes, 1 MiB); spans past the budget are counted as
	// dropped. Negative disables per-job tracing entirely. Total trace
	// retention is bounded by JobHistory × TraceBytes, since traces are
	// evicted with their jobs.
	TraceBytes int64
	// Dist enables the distributed shard coordinator: zen2eed worker
	// processes register over POST /dist/v1/* and lease this daemon's
	// shard work, with GET /v1/workers reporting the pool. Local
	// execution remains the fallback — a daemon whose workers all vanish
	// still completes every job through its own executor slots.
	Dist bool
	// DistLeaseTTL is how long a worker may go silent before its leases
	// expire and re-queue (default 15s). Only matters when Dist is set.
	DistLeaseTTL time.Duration
	// ShardCache memoizes individual shard outputs in the result store,
	// keyed by their deterministic core.ShardRef address: partially warm
	// sweeps skip execution at shard granularity, and with a persistent
	// Store a restarted daemon resumes an interrupted sweep from its last
	// completed shard. Off by default — shard entries share the store's
	// bounds with whole result documents.
	ShardCache bool
	// Tenants enables multi-tenant governance: API-key authentication on
	// submissions, per-tenant rate limits, quotas and circuit breaking at
	// admission, weighted fair queueing across the executor slots, and
	// the GET /v1/tenants listing. Nil (the default) preserves the
	// pre-tenancy daemon exactly: no auth required, a single unlimited
	// built-in tenant, no tenant metric series.
	Tenants *tenant.Registry
	// Store overrides the content-addressed result store. Nil builds the
	// in-memory LRU from CacheEntries/CacheBytes; cmd/zen2eed installs a
	// memory-over-disk tiered store when started with -store-dir, which
	// survives restarts and resurrects memory-evicted results.
	Store store.ResultStore
	// SweepRunner overrides the runner every job executes on (tests); nil
	// means core.RunSweepStream.
	SweepRunner SweepRunner
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Executors <= 0 {
		c.Executors = 2
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 256
	}
	if c.JobHistory <= 0 {
		c.JobHistory = 4096
	}
	if c.SSEKeepAlive <= 0 {
		c.SSEKeepAlive = 15 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.TraceBytes == 0 {
		c.TraceBytes = obs.DefaultLimitBytes
	}
	if c.Store == nil {
		c.Store = store.NewMemory(c.CacheEntries, c.CacheBytes)
	}
	if c.SweepRunner == nil {
		c.SweepRunner = core.RunSweepStream
	}
	return c
}

// Server is the daemon. It implements http.Handler; create it with New and
// stop its executors with Close.
type Server struct {
	cfg Config
	mux *http.ServeMux
	// handler is mux wrapped in the logging and panic-recovery middleware;
	// ServeHTTP dispatches through it.
	handler http.Handler
	log     *slog.Logger
	queue   *jobQueue
	// cache is the content-addressed result store: the in-memory LRU by
	// default, memory-over-disk when the daemon runs with -store-dir.
	cache store.ResultStore
	// diskTier is the cache's persistent tier when one exists; nil
	// otherwise. Only metrics read it (the tiered store handles
	// fallthrough itself).
	diskTier *store.Disk
	// shardCache, when enabled, memoizes shard outputs in the same result
	// store (distinct keyspace: shard keys hash the ShardRef plus the
	// registry salt, document keys hash the request spec).
	shardCache *shardcache.Cache
	metrics    *metrics
	// running is the per-configuration singleflight: executors claim each
	// configuration before simulating it, so a sweep and a single job (or
	// two overlapping sweeps) covering the same configuration under
	// different job addresses still run it exactly once.
	running *inflight
	// gate is the shared executor pool: every shard of every running job
	// holds one slot while it executes in this process, so Executors
	// bounds the daemon's total simulation concurrency at shard
	// granularity. The gate grants slots fairly across tenants (weighted,
	// interactive class first); with a single tenant it degrades to the
	// plain semaphore it replaced.
	gate *tenant.Gate
	// tenants is the API-key registry; nil means tenancy is disabled and
	// every request maps to fallback.
	tenants  *tenant.Registry
	fallback *tenant.Tenant
	// coord is the distributed shard coordinator; nil unless Config.Dist.
	// When set, jobs dispatch shards through its lease queue and remote
	// workers execute them. Local fallback runs the task's own thunk,
	// which holds a gate slot billed to the job's tenant and class, so
	// Executors still bounds everything that runs in this process.
	coord *dist.Coordinator

	mu   sync.Mutex
	jobs map[string]*job
	// jobOrder is the JobHistory eviction order, least recently submitted
	// first. Each submission answered by a job (insert or cache hit)
	// appends a fresh entry stamped with the next orderSeq and restamps
	// the job, so a refresh is O(1); older entries of the same job go stale
	// (their seq no longer matches job.order) and are dropped lazily.
	jobOrder []orderEntry
	orderSeq uint64

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds a Server and starts its executor goroutines.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		log:      cfg.Logger,
		queue:    newJobQueue(cfg.QueueDepth),
		cache:    cfg.Store,
		metrics:  newMetrics(),
		running:  newInflight(),
		gate:     tenant.NewGate(cfg.Executors),
		tenants:  cfg.Tenants,
		fallback: tenant.Unlimited("default"),
		jobs:     map[string]*job{},
		quit:     make(chan struct{}),
	}
	if tiered, ok := cfg.Store.(*store.Tiered); ok {
		s.diskTier = tiered.DiskTier()
	}
	if cfg.ShardCache {
		s.shardCache = shardcache.New(s.cache, "")
	}
	if cfg.Dist {
		s.coord = dist.NewCoordinator(dist.Config{LeaseTTL: cfg.DistLeaseTTL, Logger: cfg.Logger})
		s.mux.Handle("/dist/v1/", s.coord.Handler())
	}
	s.mux.HandleFunc("GET /v1/workers", s.handleWorkers)
	s.mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	// One dispatcher per executor slot: a dispatcher drives a job through
	// the shard scheduler, whose workers borrow slots from s.slots — so up
	// to Executors jobs are in flight, and their shards (not the jobs
	// themselves) share the Executors-wide concurrency budget.
	s.handler = accessLog(s.log, recoverPanics(s.log, s.metrics, s.mux))
	for i := 0; i < cfg.Executors; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// ServeHTTP implements http.Handler; every request passes through the
// access-log and panic-recovery middleware before the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Close stops the executors after their current job; queued jobs stay
// queued and report their last state. The shard coordinator (when
// enabled) drains first: workers get 503 on new leases, and shards the
// current jobs still need run locally instead of waiting on a departing
// fleet.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.coord != nil {
			s.coord.Close()
		}
		close(s.quit)
	})
	s.wg.Wait()
	// Closed after the executors drain: a disk-tier store must not lose
	// the payload of a job that just finished.
	_ = s.cache.Close()
}

// --- Submission and the singleflight path ---

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tn := s.authenticate(w, r)
	if tn == nil {
		return
	}
	var spec Spec
	if !decodeSpec(w, r, &spec, "job", s.metrics) {
		return
	}
	spec, err := spec.canonicalize()
	if err != nil {
		s.metrics.add(&s.metrics.badRequests, 1)
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	s.admit(w, func() *job { return newJob(spec) }, spec.key(), tn, tn.ClassFor(false))
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	tn := s.authenticate(w, r)
	if tn == nil {
		return
	}
	var spec SweepSpec
	if !decodeSpec(w, r, &spec, "sweep", s.metrics) {
		return
	}
	spec, err := spec.canonicalize()
	if err != nil {
		s.metrics.add(&s.metrics.badRequests, 1)
		writeError(w, http.StatusBadRequest, "invalid sweep spec: %v", err)
		return
	}
	s.admit(w, func() *job { return newSweepJob(spec) }, spec.key(), tn, tn.ClassFor(true))
}

// maxSpecBytes bounds submission request bodies; a spec larger than this
// is unrepresentable (even maxSweepConfigs explicit configurations fit).
const maxSpecBytes = 1 << 20

// decodeSpec reads a bounded, strictly-validated JSON request body; label
// names the spec shape ("job", "sweep") in error responses. A body over
// the byte bound is 413, not 400 — the client's framing is fine, the
// payload is just oversized.
func decodeSpec(w http.ResponseWriter, r *http.Request, into any, label string, m *metrics) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		m.add(&m.badRequests, 1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"%s spec exceeds the %d-byte request limit", label, tooLarge.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "invalid %s spec: %v", label, err)
		return false
	}
	return true
}

// admit is the shared admission path for run and sweep submissions:
// singleflight onto an identical live or finished job, materialization
// from the content-addressed store, tenant admission (rate, quota,
// breaker), then the bounded queue. build constructs the job only when
// one is actually needed. Tenant checks run after the dedup and cache
// probes deliberately — a request another tenant's identical job already
// answers adds no load, so rejecting it would only punish cache locality;
// what quotas and rates govern is admission to the run queue.
func (s *Server) admit(w http.ResponseWriter, build func() *job, key string, tn *tenant.Tenant, class tenant.Class) {
	s.mu.Lock()
	if j, ok := s.jobs[key]; ok && j.currentState() != StateFailed && !s.evicted(j) {
		// Singleflight: an identical job already exists. A finished job is
		// a cache hit; a live one absorbs this request without a new run.
		if j.currentState() == StateDone {
			s.metrics.add(&s.metrics.cacheHits, 1)
		} else {
			s.metrics.add(&s.metrics.jobsDeduped, 1)
		}
		// The requester will GET this job next: make it the youngest in the
		// eviction order so inserts racing that GET evict older jobs first.
		s.touchLocked(j)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, s.statusOf(j, true))
		return
	}
	if s.cache.Has(key) {
		// The job record was evicted but the document survived: materialize
		// a completed job from the store without running anything.
		j := build()
		j.owner, j.class = tn, class
		j.completeFromCache()
		s.insertLocked(j)
		s.metrics.add(&s.metrics.cacheHits, 1)
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, s.statusOf(j, true))
		return
	}
	if rej := tn.Admit(); rej != nil {
		s.mu.Unlock()
		s.metrics.add(&s.metrics.tenantRejects, 1)
		s.log.Warn("submission rejected", "tenant", tn.Name(), "reason", rej.Reason)
		writeRejection(w, rej)
		return
	}
	j := build()
	j.owner, j.class = tn, class
	if !s.queue.push(j) {
		// The admission never becomes a queued job, so no JobFinished will
		// ever resolve it — return it (and any half-open breaker probe it
		// consumed) to the tenant.
		tn.CancelAdmit()
		s.mu.Unlock()
		s.metrics.add(&s.metrics.queueRejects, 1)
		writeError(w, http.StatusServiceUnavailable,
			"job queue full (%d waiting); retry later", s.cfg.QueueDepth)
		return
	}
	tn.JobQueued()
	s.insertLocked(j)
	s.metrics.add(&s.metrics.jobsQueued, 1)
	if j.kind == KindSweep {
		s.metrics.add(&s.metrics.sweepsQueued, 1)
	}
	s.mu.Unlock()
	s.log.Info("job queued", "job", shortID(j.id), "kind", j.kind,
		"tenant", tn.Name(), "class", class, "queue_depth", s.queue.len())
	writeJSON(w, http.StatusAccepted, s.statusOf(j, false))
}

// orderEntry is one position in the JobHistory eviction order; it is live
// while seq matches the job's current order stamp.
type orderEntry struct {
	id  string
	seq uint64
}

// liveLocked returns the job an order entry still stands for. Callers hold
// s.mu.
func (s *Server) liveLocked(e orderEntry) (*job, bool) {
	j, ok := s.jobs[e.id]
	if !ok || j.order != e.seq {
		return nil, false
	}
	return j, true
}

// insertLocked records a job as the youngest in the eviction order and
// evicts the oldest finished jobs beyond JobHistory. A retry of a failed
// spec reuses the content address; the new job's stamp leaves the old
// job's entry stale. Callers hold s.mu.
func (s *Server) insertLocked(j *job) {
	s.jobs[j.id] = j
	s.touchLocked(j)
}

// touchLocked moves j to the young end of the eviction order in O(1), then
// prunes when the table is over JobHistory or stale entries outnumber live
// ones (which keeps jobOrder O(jobs) under a stream of hits). Callers hold
// s.mu.
func (s *Server) touchLocked(j *job) {
	s.orderSeq++
	j.order = s.orderSeq
	s.jobOrder = append(s.jobOrder, orderEntry{id: j.id, seq: j.order})
	if len(s.jobs) > s.cfg.JobHistory || len(s.jobOrder) > 2*len(s.jobs)+16 {
		s.pruneLocked(j)
	}
}

// pruneLocked drops stale order entries and, oldest first, evicts finished
// jobs other than keep until the table fits JobHistory. Callers hold s.mu.
func (s *Server) pruneLocked(keep *job) {
	kept := s.jobOrder[:0]
	for _, e := range s.jobOrder {
		old, ok := s.liveLocked(e)
		if !ok {
			continue
		}
		if len(s.jobs) > s.cfg.JobHistory && old != keep && old.currentState().terminal() {
			delete(s.jobs, e.id)
			continue
		}
		kept = append(kept, e)
	}
	clear(s.jobOrder[len(kept):])
	s.jobOrder = kept
}

// --- Job status, results, SSE ---

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

// handleJobs lists active and recent jobs, most recently submitted first (a
// cache-hit resubmission counts as a submission), without embedded
// result payloads — the address book for jobs whose id the client lost
// (before this endpoint, a job was only reachable if the submit response
// had been saved). Cached tells a reader which entries never simulated.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]Status, 0, len(s.jobs))
	for i := len(s.jobOrder) - 1; i >= 0; i-- {
		if j, ok := s.liveLocked(s.jobOrder[i]); ok {
			out = append(out, s.statusOf(j, false))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.statusOf(j, true))
}

// statusOf snapshots a job for the API, embedding a done job's document
// when includeResults is set. The document is read from the store (see
// document) and omitted — never fabricated — if any section has been
// evicted.
func (s *Server) statusOf(j *job, includeResults bool) Status {
	st := j.status()
	if s.tenants != nil && j.owner != nil {
		// Attribution only when tenancy is on: untenanted daemons keep the
		// exact pre-tenancy wire shape.
		st.Tenant = j.owner.Name()
	}
	if includeResults && st.State == StateDone {
		if doc, err := s.document(j); err == nil {
			st.Results = doc
		}
	}
	return st
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	state, errMsg := j.outcome()
	switch state {
	case StateDone:
		s.serveResult(w, j)
	case StateFailed:
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	default:
		writeError(w, http.StatusConflict, "job is %s; results not ready", state)
	}
}

// serveResult writes a done job's document straight from its per-config
// cache entries onto the connection: a run job's one section as stored, a
// sweep's sections streamed through a SweepWriter — the daemon never
// materializes a whole sweep document. Eviction of any section is 410 for
// both kinds: the job ran, the bytes are gone, and resubmitting recomputes
// them (admit treats such a job as evicted rather than deduplicating onto
// it).
func (s *Server) serveResult(w http.ResponseWriter, j *job) {
	sections, err := s.sweepSections(j.sweep)
	if err != nil {
		writeError(w, http.StatusGone, "%s results no longer cached (%v); resubmit the %s", j.kind, err, j.kind)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if j.kind == KindRun {
		w.Write(sections[0])
		return
	}
	sw, err := report.NewSweepWriter(w, j.sweep.IDs, j.sweep.Configs)
	if err != nil {
		return // header write failed: the connection is gone
	}
	for _, doc := range sections {
		if sw.WriteSection(doc) != nil {
			return
		}
	}
	_ = sw.Close()
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, live, cancel := j.subscribe()
	defer cancel()
	for _, e := range history {
		writeSSE(w, e)
	}
	flusher.Flush()
	// Keepalive: long sweeps can sit minutes between progress events, and
	// idle HTTP streams are what proxies reap first. Comment frames are
	// invisible to SSE consumers but reset intermediary idle timers.
	keepalive := time.NewTicker(s.cfg.SSEKeepAlive)
	defer keepalive.Stop()
	for {
		select {
		case e, ok := <-live:
			if !ok {
				return // terminal event delivered; stream complete
			}
			writeSSE(w, e)
			flusher.Flush()
		case <-keepalive.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

func writeSSE(w http.ResponseWriter, e event) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.name, e.data)
}

// handleTrace serves a finished job's Chrome trace-event document — the
// same format `zen2ee -trace` writes, loadable in Perfetto. A job that was
// served from cache (or a daemon with tracing disabled) has no trace: 404,
// not an empty file. An unfinished job is 409 like /result.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	trace, state := j.traceDoc()
	if !state.terminal() {
		writeError(w, http.StatusConflict, "job is %s; trace not ready", state)
		return
	}
	if len(trace) == 0 {
		writeError(w, http.StatusNotFound,
			"no trace recorded for job %q (served from cache, or tracing disabled)", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(trace)
}

// --- Registry, metrics, health ---

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type info struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		PaperRef string `json:"paper_ref"`
		Bench    string `json:"bench,omitempty"`
	}
	var out []info
	for _, e := range core.Registry() {
		out = append(out, info{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef, Bench: e.Bench})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleWorkers reports the distributed worker pool: every worker the
// coordinator has seen (live and lost), with in-flight lease counts and
// completed/retried shard totals. The route exists even when distribution
// is disabled so clients get a precise answer instead of a generic 404.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound,
			"distributed execution disabled; start the daemon with -listen-workers")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workers_connected": s.coord.WorkersConnected(),
		"leases_inflight":   s.coord.LeasesInflight(),
		"pending_tasks":     s.coord.PendingTasks(),
		"retries_total":     s.coord.RetriesTotal(),
		"workers":           s.coord.WorkersStatus(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	g := gauges{
		queueDepth: s.queue.len(), queueCap: s.cfg.QueueDepth,
		cacheEntries: s.cache.Len(), cacheCap: s.cfg.CacheEntries,
		cacheBytes: s.cache.Bytes(), cacheBytesCap: s.cfg.CacheBytes,
	}
	if s.coord != nil {
		g.dist = true
		g.workersConnected = s.coord.WorkersConnected()
		g.leasesInflight = s.coord.LeasesInflight()
		g.shardRetries = s.coord.RetriesTotal()
	}
	if s.diskTier != nil {
		g.disk = true
		g.diskStats = s.diskTier.Stats()
	}
	if s.shardCache != nil {
		g.shardCache = true
		g.shardCacheStats = s.shardCache.Stats()
	}
	if s.tenants != nil {
		g.tenancy = true
		g.tenants = s.tenantUsages()
	}
	s.metrics.write(w, g)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// --- Execution ---

func (s *Server) executor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case <-s.queue.notify:
			j := s.queue.pop()
			j.owner.JobStarted()
			j.setRunning()
			s.metrics.addRunning(1)
			s.log.Info("job started", "job", shortID(j.id), "kind", j.kind, "tenant", j.owner.Name())
			s.execute(j)
			s.metrics.addRunning(-1)
			// The owner's breaker sees every terminal outcome, including
			// completions served from another executor's cache entry.
			j.owner.JobFinished(j.currentState() == StateFailed)
		}
	}
}

// progressEvent is the SSE wire form of core.Progress. Shard-level events
// carry shard in 1..shards; experiment-completion events omit shard (the
// pre-shard wire shape, which existing consumers key on). config/configs
// locate the event within a sweep's configuration list; single jobs always
// report config 0 of 1.
type progressEvent struct {
	ID             string  `json:"id"`
	Index          int     `json:"index"`
	Config         int     `json:"config"`
	Configs        int     `json:"configs"`
	Shard          int     `json:"shard,omitempty"`
	Shards         int     `json:"shards,omitempty"`
	Label          string  `json:"label,omitempty"`
	Done           int     `json:"done"`
	Total          int     `json:"total"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Error          string  `json:"error,omitempty"`
}

// terminalEvent is the SSE wire form of a job's final state.
type terminalEvent struct {
	ID             string  `json:"id"`
	State          State   `json:"state"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Error          string  `json:"error,omitempty"`
}

// runConfig assembles the scheduler configuration for one job run. Acquire
// gates every shard that executes in this process on the shared slot pool,
// billed to the job's tenant at its priority class — which is where
// weighted fair queueing and interactive-over-bulk preemption happen,
// since the scheduler re-enters Acquire between shards. One RunShard chain
// fronts execution, in the CLI's order: the coordinator's lease queue when
// distribution is on, then the shard cache in front of it. The scheduler
// gates the task's thunk, not the hook, so a cache hit or a remote lease
// holds no slot while a local fallback or cache miss holds one. With the
// coordinator the default worker count tracks the connected pool so a
// remote fleet is actually kept busy; locally the scheduler spawns
// Executors workers. A spec's worker count overrides both, and the slot
// pool governs actual concurrency either way. finish releases the run's
// coordinator state and must be called when the run ends.
func (s *Server) runConfig(j *job, tr *obs.Trace) (cfg core.RunConfig, finish func()) {
	cfg = core.RunConfig{
		Workers: s.cfg.Executors, Acquire: s.gate.AcquireFunc(j.owner, j.class),
		Trace: tr, ObserveShard: s.metrics.observeShard,
	}
	finish = func() {}
	if s.coord != nil {
		h := s.coord.StartRun(tr)
		cfg.RunShard, finish = h.RunShard, h.Finish
		cfg.Workers = s.coord.PoolSize(s.cfg.Executors)
	}
	if s.shardCache != nil {
		cfg.RunShard = s.shardCache.WrapRunShard(cfg.RunShard, tr)
	}
	if w := j.sweep.Workers; w != nil {
		cfg.Workers = *w
	}
	return cfg, finish
}

// progressPublisher adapts core.Progress events into the job's SSE stream
// (observing experiment latency metrics along the way). mine maps the
// scheduler's configuration index, within the claimed subset, onto the
// client's request index, and configs is the request's total
// configuration count.
func (s *Server) progressPublisher(j *job, mine []int, configs int) func(core.Progress) {
	return func(p core.Progress) {
		if p.ExperimentDone() && p.Err == nil {
			s.metrics.observeExperiment(p.ID, p.Elapsed)
			// Enabled gate: shard-level progress is the hot path; skip the
			// attribute assembly entirely below Debug.
			if s.log.Enabled(context.Background(), slog.LevelDebug) {
				s.log.Debug("experiment done", "job", shortID(j.id), "experiment", p.ID,
					"config", mine[p.Config], "elapsed", p.Elapsed)
			}
		}
		ev := progressEvent{
			ID: p.ID, Index: p.Index, Shard: p.Shard, Shards: p.Shards,
			Config: mine[p.Config], Configs: configs,
			Label: p.Label, Done: p.Done, Total: p.Total,
			ElapsedSeconds: p.Elapsed.Seconds(),
		}
		if p.Err != nil {
			ev.Error = p.Err.Error()
		}
		j.publish("progress", ev)
	}
}

// newTrace builds the per-job execution trace recorder; nil (the disabled
// recorder) when the daemon's TraceBytes is negative.
func (s *Server) newTrace() *obs.Trace {
	if s.cfg.TraceBytes < 0 {
		return nil
	}
	return obs.New(s.cfg.TraceBytes)
}

// storeTrace serializes a job's trace into its Chrome trace-event document
// before the terminal state flips, so a client that sees "done" never races
// a still-missing trace. A nil trace (nothing ran, or tracing is disabled)
// stores nothing.
func (s *Server) storeTrace(j *job, tr *obs.Trace) {
	if !tr.Enabled() {
		return
	}
	spans, dropped := tr.Snapshot()
	b, err := report.MarshalTrace(spans, dropped)
	if err != nil {
		// The trace is best-effort observability; losing it must not fail
		// the job that produced it.
		s.log.Error("encoding job trace", "job", shortID(j.id), "error", err)
		return
	}
	j.setTrace(b)
}

// --- job state helpers (here rather than job.go: they are the executor's transitions) ---

func (j *job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *job) setRunning() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// setDone and setFailed flip the job to its terminal state and log the
// terminal event in one critical section (see publishLocked).

func (j *job) setDone() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.finished = time.Now()
	j.publishLocked("done", terminalEvent{
		ID: j.id, State: StateDone, ElapsedSeconds: j.finished.Sub(j.started).Seconds(),
	})
}

func (j *job) setFailed(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateFailed
	j.errMsg = err.Error()
	j.finished = time.Now()
	var elapsed float64
	if !j.started.IsZero() {
		elapsed = j.finished.Sub(j.started).Seconds()
	}
	j.publishLocked("failed", terminalEvent{
		ID: j.id, State: StateFailed, ElapsedSeconds: elapsed, Error: j.errMsg,
	})
}

// completeFromCache marks a fresh run job done from its stored section and
// logs the terminal event so SSE subscribers of cache-hit jobs see a
// stream. Sweeps never get here: nothing stores a document under a sweep's
// own address, so admit's store probe only ever hits for run jobs.
func (j *job) completeFromCache() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.cached = true
	j.started = j.created
	j.finished = j.created
	j.publishLocked("done", terminalEvent{ID: j.id, State: StateDone})
}

// --- HTTP helpers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// An encode error here means the connection is gone; there is no one
	// left to report it to.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}
