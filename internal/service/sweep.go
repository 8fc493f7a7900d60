// The sweep request path: POST /v1/sweeps batches many (Scale, Seed)
// configurations of one experiment set into a single job. The daemon
// content-addresses sweeps *per configuration*: before running anything it
// checks each configuration against the same cache single jobs populate,
// hands only the missing configurations to one merged SweepRunner call
// (so their shards share the executor pool), and stores every completed
// configuration back under its single-job key — a sweep warms the cache
// for later single jobs and vice versa. A single job is itself the
// one-configuration sweep of its spec, so execute here is the executor
// for every job.

package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
)

// maxSweepConfigs bounds one sweep request. It is a sanity bound against
// runaway grids (a typo like scales×seeds = 1000×1000), not a capacity
// plan: the streaming executor's memory is bounded by sections in flight,
// not sweep size, so the limit is deliberately far above any study the
// paper's protocol calls for. Larger studies still split into multiple
// sweeps, which the per-config cache makes cheap to resume.
const maxSweepConfigs = 65536

// SweepSpec is a sweep request: one experiment set evaluated at many
// configurations. Configurations are given either explicitly (configs) or
// as a scales × seeds cross-product — not both.
type SweepSpec struct {
	// IDs selects experiments; empty means the full suite. Duplicate IDs
	// are rejected, not collapsed.
	IDs []string `json:"ids,omitempty"`
	// Configs lists the (scale, seed) points explicitly. Zero fields take
	// the registry defaults (Scale 1, Seed 1).
	Configs []core.Config `json:"configs,omitempty"`
	// Scales and Seeds expand to their cross-product when Configs is
	// empty; an empty axis defaults to the single default value.
	Scales []float64 `json:"scales,omitempty"`
	Seeds  []uint64  `json:"seeds,omitempty"`
	// Workers bounds the sweep's scheduler pool (omitted = daemon
	// executor count; explicit values must be >= 1). Not part of the
	// sweep's identity.
	Workers *int `json:"workers,omitempty"`
}

// canonicalize validates the sweep and rewrites it into canonical form:
// the grid expanded into explicit configs with defaults applied, IDs in
// paper order (nil for the full registry). Like Spec.canonicalize it
// rejects rather than coerces: invalid scales, worker counts below 1,
// duplicate experiment IDs, and duplicate configurations are a 400.
func (s SweepSpec) canonicalize() (SweepSpec, error) {
	if len(s.Configs) > 0 && (len(s.Scales) > 0 || len(s.Seeds) > 0) {
		return s, fmt.Errorf("give either configs or a scales/seeds grid, not both")
	}
	if len(s.Configs) == 0 {
		if len(s.Scales) == 0 && len(s.Seeds) == 0 {
			return s, fmt.Errorf("a sweep needs configs or a scales/seeds grid")
		}
		// Bound the grid before expanding it: two axes that fit in one
		// request body can name a cross-product of terabytes.
		if n := max(len(s.Scales), 1) * max(len(s.Seeds), 1); n > maxSweepConfigs {
			return s, fmt.Errorf("sweep has %d configurations, the service limit is %d", n, maxSweepConfigs)
		}
		s.Configs = core.Grid(s.Scales, s.Seeds)
	}
	s.Scales, s.Seeds = nil, nil
	if len(s.Configs) > maxSweepConfigs {
		return s, fmt.Errorf("sweep has %d configurations, the service limit is %d", len(s.Configs), maxSweepConfigs)
	}
	for i, c := range s.Configs {
		c, err := canonicalConfig(c)
		if err != nil {
			return s, fmt.Errorf("config %d: %w", i, err)
		}
		s.Configs[i] = c
	}
	if err := (core.Sweep{Configs: s.Configs}).Validate(); err != nil {
		return s, err
	}
	if err := validateWorkers(s.Workers); err != nil {
		return s, err
	}
	ids, err := core.CanonicalIDs(s.IDs)
	if err != nil {
		return s, err
	}
	s.IDs = ids
	return s, nil
}

// key is the sweep's content address over the canonical experiment set and
// configuration list. The "sweep;" prefix keeps it in a distinct keyspace
// from single-job addresses; Workers is excluded like Spec.Workers.
func (s SweepSpec) key() string {
	h := sha256.New()
	fmt.Fprintf(h, "sweep;ids=%s", strings.Join(s.IDs, ","))
	for _, c := range s.Configs {
		fmt.Fprintf(h, ";%s:%d", strconv.FormatFloat(c.Scale, 'g', -1, 64), c.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// configKey is the content address configuration i shares with a single
// job for the same (experiment set, Scale, Seed) — the seam through which
// sweeps and single jobs hit each other's cache entries.
func (s SweepSpec) configKey(i int) string {
	return Spec{IDs: s.IDs, Scale: s.Configs[i].Scale, Seed: s.Configs[i].Seed}.key()
}

// configCachedEvent is the SSE wire form of a per-configuration section
// event: "config-cached" when a configuration was served from the
// per-config cache without running, "config-done" the moment a streamed
// configuration's section lands in the cache.
type configCachedEvent struct {
	Config  int  `json:"config"`
	Configs int  `json:"configs"`
	Cached  bool `json:"cached,omitempty"`
}

// execute drives a job on the streaming scheduler. Every job is a sweep —
// a run job is the one-configuration sweep of its spec — so both kinds
// take one path: a per-configuration cache probe and singleflight claim,
// one merged SweepRunner call over the configurations this job claimed
// (each completed configuration is marshaled and cached under its run-job
// content address the moment its last shard finishes), then a
// wait-and-reprobe round for configurations another executor was already
// simulating. Neither kind keeps a document of its own: it is read back
// from the per-config cache entries on demand (statusOf, serveResult), so
// the daemon's memory is bounded by the store, never by the job table or
// the sweep size. Either kind counts as one cache miss when it finishes
// if it simulated anything, else as one cache hit. The kinds differ only
// in what else they report: a sweep counts sweep_configs_* and announces
// each section over SSE (config-cached, config-done); a run job reports
// Status.Cached.
func (s *Server) execute(j *job) {
	spec := j.sweep
	isRun := j.kind == KindRun
	n := len(spec.Configs)
	done := make([]bool, n)
	cached := make([]bool, n)
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}
	// One trace spans every round, started by the first round that runs
	// anything: a job that executed nothing has no trace. Known quirk:
	// spans the core scheduler records index configurations within the
	// claimed missing subset, while the marshal spans recorded here carry
	// request indices — the trace args are for locating work, not joining
	// the two numberings.
	var tr *obs.Trace
	var ran bool // some round ran the sweep runner
	var runDur, marshalDur time.Duration
	for len(pending) > 0 {
		// Classify every unresolved configuration: cached, claimed by this
		// job (we run it), or claimed by a concurrent job (we wait).
		var mine []int
		var theirs []int
		var waits []<-chan struct{}
		for _, i := range pending {
			key := spec.configKey(i)
			wait, claimed := s.running.begin(key)
			if !claimed {
				theirs = append(theirs, i)
				waits = append(waits, wait)
				continue
			}
			if !s.cache.Has(key) {
				mine = append(mine, i)
				continue
			}
			s.running.end(key)
			done[i], cached[i] = true, true
			if isRun {
				continue
			}
			s.metrics.add(&s.metrics.sweepConfigsCached, 1)
			j.publish("config-cached", configCachedEvent{Config: i, Configs: n, Cached: true})
		}
		j.setCachedConfigs(cached)

		if len(mine) > 0 {
			ran = true
			if tr == nil {
				tr = s.newTrace()
			}
			missing := make([]core.Config, len(mine))
			for k, i := range mine {
				missing[k] = spec.Configs[i]
			}
			releaseMine := func() {
				for _, i := range mine {
					s.running.end(spec.configKey(i))
				}
			}
			runCfg := s.runConfig(j, tr)
			// mine remaps the scheduler's index within the claimed subset
			// onto the request's configuration list, so stream consumers
			// see the indices they asked for. onConfig is serialized by
			// the SweepRunner contract, so encodeErr and roundMarshal need
			// no lock.
			var encodeErr error
			var roundMarshal time.Duration
			roundStart := time.Now()
			err := s.cfg.SweepRunner(core.Sweep{IDs: spec.IDs, Configs: missing}, runCfg,
				func(k int, cr core.ConfigResult, cerr error) {
					if cerr != nil {
						return // joined into the runner's returned error
					}
					i := mine[k]
					marshalStart := time.Now()
					p, merr := report.MarshalResults(cr.Results, cr.Config)
					d := time.Since(marshalStart)
					roundMarshal += d
					tr.Add(obs.Span{Cat: obs.CatMarshal, Name: "marshal", Config: i, Worker: -1,
						Start: tr.Offset(marshalStart), Dur: d})
					if merr != nil {
						if encodeErr == nil {
							encodeErr = fmt.Errorf("encoding config (scale %g, seed %d) results: %w", cr.Config.Scale, cr.Config.Seed, merr)
						}
						return
					}
					s.cache.Put(spec.configKey(i), p)
					done[i] = true
					if isRun {
						return
					}
					s.metrics.add(&s.metrics.sweepConfigsRun, 1)
					j.publish("config-done", configCachedEvent{Config: i, Configs: n})
					s.log.Debug("sweep config done", "job", shortID(j.id), "config", i,
						"scale", cr.Config.Scale, "seed", cr.Config.Seed)
				},
				s.progressPublisher(j, mine, n))
			// Encoding happens inside the streaming run; run_seconds
			// excludes it, marshal_seconds reports it.
			runDur += time.Since(roundStart) - roundMarshal
			marshalDur += roundMarshal
			releaseMine()
			if err == nil {
				err = encodeErr
			}
			if err == nil {
				for _, i := range mine {
					if !done[i] {
						err = fmt.Errorf("sweep runner never delivered config (scale %g, seed %d)", spec.Configs[i].Scale, spec.Configs[i].Seed)
						break
					}
				}
			}
			if err != nil {
				j.setLatency(runDur, marshalDur)
				s.storeTrace(j, tr)
				s.metrics.add(&s.metrics.cacheMisses, 1)
				j.setFailed(err)
				s.metrics.add(&s.metrics.jobsFailed, 1)
				s.log.Error("job failed", "job", shortID(j.id), "kind", j.kind,
					"tenant", j.owner.Name(), "error", err)
				return
			}
		}

		// Only now — holding no claims of our own — wait for concurrent
		// holders of the remaining configurations, then reprobe: the next
		// round either finds their payloads in the cache or, if a holder
		// failed, claims and runs those configurations itself.
		for _, w := range waits {
			<-w
		}
		pending = theirs
	}

	j.setLatency(runDur, marshalDur)
	s.storeTrace(j, tr)
	// A queued job is one request, counted once: a miss if it simulated
	// anything, a hit if every configuration was already computed (by an
	// earlier job, or by a concurrent one this job waited for).
	if ran {
		s.metrics.add(&s.metrics.cacheMisses, 1)
	} else {
		s.metrics.add(&s.metrics.cacheHits, 1)
	}
	j.setDone()
	s.metrics.add(&s.metrics.jobsDone, 1)
	s.log.Info("job done", "job", shortID(j.id), "kind", j.kind,
		"tenant", j.owner.Name(), "run", runDur, "marshal", marshalDur)
}

// sweepSections collects a job's per-configuration payloads from the
// content-addressed cache, in request order. Any evicted section fails the
// whole collection — a document with holes would be a lie.
func (s *Server) sweepSections(spec SweepSpec) ([][]byte, error) {
	sections := make([][]byte, len(spec.Configs))
	for i, c := range spec.Configs {
		p, ok := s.cache.Get(spec.configKey(i))
		if !ok {
			return nil, fmt.Errorf("config %d (scale %g, seed %d) evicted", i, c.Scale, c.Seed)
		}
		sections[i] = p
	}
	return sections, nil
}

// document materializes a done job's canonical document from the
// per-config cache: a run job's one section as stored, a sweep's sections
// assembled by MarshalSweepSections — byte-identical to what a collected
// run would have produced, since the sections are the exact MarshalResults
// payloads.
func (s *Server) document(j *job) ([]byte, error) {
	sections, err := s.sweepSections(j.sweep)
	if err != nil {
		return nil, err
	}
	if j.kind == KindRun {
		return sections[0], nil
	}
	return report.MarshalSweepSections(j.sweep.IDs, j.sweep.Configs, sections)
}

// evicted reports whether a done job can no longer serve its document
// because a section fell out of the cache. admit treats such a job as
// absent so resubmission recomputes instead of dead-ending on a 410
// forever. It runs while admit holds the global s.mu, so it uses the
// store's existence probe rather than Get: probing a large finished sweep
// must not read every payload off disk under the lock, and must not
// promote into the memory tier sections nobody asked to read.
func (s *Server) evicted(j *job) bool {
	if j.currentState() != StateDone {
		return false
	}
	for i := range j.sweep.Configs {
		if !s.cache.Has(j.sweep.configKey(i)) {
			return true
		}
	}
	return false
}

// setCachedConfigs records which configurations the job served from
// cache: a sweep lists them in Status.CachedConfigs (visible while the
// rest still run); a run job, one configuration, reports Status.Cached.
func (j *job) setCachedConfigs(cached []bool) {
	j.mu.Lock()
	if j.kind == KindRun {
		j.cached = cached[0]
	} else {
		j.cachedConfigs = append([]bool(nil), cached...)
	}
	j.mu.Unlock()
}
