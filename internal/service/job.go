// Job model: the canonical job spec with its content address, the job state
// machine, and the per-job event log that backs the SSE endpoint. A job's
// identity IS its content address — two requests for the same spec are the
// same job, which is what gives the daemon singleflight semantics without a
// separate dedup layer.

package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/tenant"
)

// Spec is a job request: which experiments to run at what effort. The zero
// value of Scale/Seed means the registry defaults (Scale 1, Seed 1).
type Spec struct {
	// IDs selects experiments; empty means the full suite. Duplicate IDs
	// are rejected, not collapsed.
	IDs []string `json:"ids,omitempty"`
	// Scale and Seed are core.Options (the paper's full protocol is
	// Scale ≈ 25).
	Scale float64 `json:"scale,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	// Workers bounds the job's scheduler worker pool. Omitted means the
	// daemon's executor count; an explicit value must be >= 1 — zero and
	// negative counts are a 400, not a silent default. It is an execution
	// hint, not part of the job's identity: results are bit-identical for
	// every worker count.
	Workers *int `json:"workers,omitempty"`
}

// canonicalize validates the spec and rewrites it into canonical form:
// defaults applied, IDs in paper order (or nil when they name the whole
// registry), so equivalent requests hash identically. Validation is
// rejecting, not coercing: scales core.Options.Validate rejects
// (non-positive or non-finite), worker counts below 1, and duplicated
// experiment IDs are a 400 at the API boundary — only omitted fields take
// defaults.
func (s Spec) canonicalize() (Spec, error) {
	c, err := canonicalConfig(s.options())
	s.Scale, s.Seed = c.Scale, c.Seed
	if err != nil {
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

// maxScale is the service limit on a configuration's scale; the paper's
// full protocol is ≈ 25.
const maxScale = 100

// canonicalConfig is the one configuration rule of both job kinds: omitted
// (zero) fields take the registry defaults, then a scale Options.Validate
// rejects or one above maxScale is an error.
func canonicalConfig(c core.Config) (core.Config, error) {
	if c.Scale == 0 {
		c.Scale = core.DefaultOptions().Scale
	}
	if c.Seed == 0 {
		c.Seed = core.DefaultOptions().Seed
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	if c.Scale > maxScale {
		return c, fmt.Errorf("scale %g exceeds the service limit of %d (the paper's full protocol is ≈ 25)", c.Scale, maxScale)
	}
	return c, nil
}

// validateWorkers enforces the boundary rule for explicit worker counts:
// nil means "daemon default", anything explicit must be a usable pool size.
func validateWorkers(w *int) error {
	if w != nil && *w < 1 {
		return fmt.Errorf("workers must be >= 1 when given, got %d (omit the field for the daemon default)", *w)
	}
	return nil
}

// options returns the core run options the spec describes.
func (s Spec) options() core.Options { return core.Options{Scale: s.Scale, Seed: s.Seed} }

// key is the spec's content address: a hash over the canonical experiment
// set, Scale, and Seed. Workers is deliberately excluded (see Spec.Workers).
func (s Spec) key() string {
	h := sha256.New()
	fmt.Fprintf(h, "ids=%s;scale=%s;seed=%d",
		strings.Join(s.IDs, ","), strconv.FormatFloat(s.Scale, 'g', -1, 64), s.Seed)
	return hex.EncodeToString(h.Sum(nil))
}

// State is a job lifecycle stage.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// event is one SSE frame: a named event with a JSON payload.
type event struct {
	name string
	data []byte
}

// Kind distinguishes the two request shapes sharing the job machinery.
type Kind string

const (
	// KindRun is a single-configuration job (POST /v1/jobs).
	KindRun Kind = "run"
	// KindSweep is a batched multi-configuration job (POST /v1/sweeps).
	KindSweep Kind = "sweep"
)

// job is one accepted spec working through the queue. The event log is kept
// for the job's lifetime so late SSE subscribers replay the full stream.
type job struct {
	id   string // content address; also the cache key
	kind Kind
	// sweep is what execute runs and what the job's document is read
	// back from: the request of a sweep job, the one-configuration sweep
	// of a run job's spec.
	sweep SweepSpec
	// owner is the tenant that first submitted the spec (later identical
	// submissions dedup onto the job without changing ownership); class
	// is its scheduling priority. Both are set before the job is shared
	// and immutable after, so they need no lock.
	owner *tenant.Tenant
	class tenant.Class
	// elem is the job's position in Server.jobOrder; guarded by
	// Server.mu, not mu.
	elem *list.Element

	mu       sync.Mutex
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	errMsg   string
	cached   bool // a run job's configuration came from the store, no simulation ran
	// trace records the job's execution, set before the terminal state
	// flip and serialized only when a client fetches it; nil for a job
	// that ran nothing and when daemon tracing is disabled.
	trace *obs.Trace
	// runDur and marshalDur split the job's wall time for the latency
	// breakdown: scheduler execution vs. document encoding. Queue wait is
	// derived from created/started.
	runDur, marshalDur time.Duration
	// cachedConfigs marks, for sweep jobs, which configurations were
	// served from the per-config cache instead of running.
	cachedConfigs []bool

	events []event
	subs   map[chan event]struct{}
}

func newJob(spec Spec) *job {
	return &job{
		id: spec.key(), kind: KindRun, state: StateQueued,
		sweep:   SweepSpec{IDs: spec.IDs, Configs: []core.Config{spec.options()}, Workers: spec.Workers},
		created: time.Now(), subs: map[chan event]struct{}{},
	}
}

func newSweepJob(spec SweepSpec) *job {
	return &job{
		id: spec.key(), kind: KindSweep, sweep: spec, state: StateQueued,
		created: time.Now(), subs: map[chan event]struct{}{},
	}
}

// terminal reports whether the job has finished (successfully or not).
func (s State) terminal() bool { return s == StateDone || s == StateFailed }

// publish appends an event to the log and fans it out to live subscribers.
// Slow subscribers (full channel) skip the live send; they still hold the
// replayed history and the status endpoint. Terminal events close all
// subscriber channels.
func (j *job) publish(name string, payload any) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.publishLocked(name, payload)
}

// publishLocked is publish with j.mu already held. Terminal state
// transitions use it directly so the state flip and the terminal event
// land in one critical section — a subscriber can never observe a finished
// job whose replay history is missing the done/failed event.
func (j *job) publishLocked(name string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		// Event payloads are service-owned structs; failure here is a
		// programming error, but must not take down the daemon.
		data = []byte(`{"error":"event encoding failed"}`)
	}
	e := event{name: name, data: data}
	j.events = append(j.events, e)
	for ch := range j.subs {
		select {
		case ch <- e:
		default:
		}
	}
	if j.state.terminal() {
		for ch := range j.subs {
			close(ch)
		}
		j.subs = map[chan event]struct{}{}
	}
}

// subscribe returns a copy of the event history plus a live channel. The
// channel is already closed when the job has finished (replay-only). The
// returned cancel is idempotent and must be called when the consumer stops.
func (j *job) subscribe() (history []event, ch chan event, cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]event(nil), j.events...)
	ch = make(chan event, 64)
	if j.state.terminal() {
		close(ch)
		return history, ch, func() {}
	}
	j.subs[ch] = struct{}{}
	return history, ch, func() {
		j.mu.Lock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
		j.mu.Unlock()
	}
}

// setLatency records the execution/encoding wall-time split.
func (j *job) setLatency(run, marshal time.Duration) {
	j.mu.Lock()
	j.runDur, j.marshalDur = run, marshal
	j.mu.Unlock()
}

// setTrace keeps the job's execution trace. Callers set it before the
// terminal state flips, so a client that sees "done" never races a
// still-missing trace.
func (j *job) setTrace(tr *obs.Trace) {
	j.mu.Lock()
	j.trace = tr
	j.mu.Unlock()
}

// traceOf returns the execution trace (nil if none) and current state.
func (j *job) traceOf() (*obs.Trace, State) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trace, j.state
}

// Latency is a finished job's wall-time breakdown: time queued before an
// executor picked the job up (slot waits inside the run are per-shard, see
// the queue-wait histogram), time executing in the scheduler, and time
// encoding the canonical document.
type Latency struct {
	QueueSeconds   float64 `json:"queue_seconds"`
	RunSeconds     float64 `json:"run_seconds"`
	MarshalSeconds float64 `json:"marshal_seconds"`
}

// Status is the wire form of a job's state, served by GET /v1/jobs/{id}
// and listed by GET /v1/jobs.
type Status struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`
	// Tenant names the job's owning tenant; only populated when the
	// daemon runs with a tenant configuration.
	Tenant string `json:"tenant,omitempty"`
	// Spec is the canonical request of a run job; Sweep of a sweep job.
	// Exactly one is present.
	Spec  Spec       `json:"spec,omitzero"`
	Sweep *SweepSpec `json:"sweep,omitempty"`
	// Cached reports that the results were served from the content-
	// addressed cache without running a simulation.
	Cached bool `json:"cached,omitempty"`
	// CachedConfigs marks, for sweep jobs, which configurations were
	// served from the per-config cache (request order).
	CachedConfigs  []bool  `json:"cached_configs,omitempty"`
	CreatedAt      string  `json:"created_at"`
	StartedAt      string  `json:"started_at,omitempty"`
	FinishedAt     string  `json:"finished_at,omitempty"`
	ElapsedSeconds float64 `json:"elapsed_seconds,omitempty"`
	// Latency breaks a finished job's wall time into queue wait, scheduler
	// execution, and document encoding; omitted for cached jobs, which
	// never ran.
	Latency *Latency `json:"latency,omitempty"`
	Error   string   `json:"error,omitempty"`
	// Results embeds the canonical document once done: report.JSONReport
	// for run jobs, report.JSONSweep for sweep jobs. Omitted once the
	// store has evicted any of the job's sections. It must stay the last
	// field: writeStatus splices it in after the rest of the envelope.
	Results json.RawMessage `json:"results,omitempty"`
}

// status snapshots the job for the API; Server.statusOf adds the document.
func (j *job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID: j.id, Kind: j.kind, State: j.state, Cached: j.cached,
		CreatedAt: j.created.UTC().Format(time.RFC3339Nano),
		Error:     j.errMsg,
	}
	switch j.kind {
	case KindSweep:
		sweep := j.sweep
		st.Sweep = &sweep
		st.CachedConfigs = append([]bool(nil), j.cachedConfigs...)
	default:
		c := j.sweep.Configs[0]
		st.Spec = Spec{IDs: j.sweep.IDs, Scale: c.Scale, Seed: c.Seed, Workers: j.sweep.Workers}
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		if !j.started.IsZero() {
			st.ElapsedSeconds = j.finished.Sub(j.started).Seconds()
		}
		if !j.cached && !j.started.IsZero() {
			st.Latency = &Latency{
				QueueSeconds:   j.started.Sub(j.created).Seconds(),
				RunSeconds:     j.runDur.Seconds(),
				MarshalSeconds: j.marshalDur.Seconds(),
			}
		}
	}
	return st
}

// outcome returns the job's state and, once it failed, its error.
func (j *job) outcome() (State, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.errMsg
}
