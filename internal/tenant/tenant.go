// Package tenant is the daemon's multi-tenant governance layer: API-key
// authentication, per-tenant token-bucket rate limits, inflight/queue
// quotas, priority classes, and a weighted-fair executor-slot gate. It is
// pure policy — the package owns no HTTP routes and runs no goroutines;
// the service layer asks it questions (Authenticate, Admit, Acquire) and
// reports a job's progress back (JobQueued/JobStarted/JobFinished).
//
// The zero configuration is deliberately invisible: a daemon started
// without -tenant-config runs with a single anonymous tenant that has no
// limits and weight 1 — byte-for-byte the pre-tenancy behavior,
// including the /metrics document (tenant series are emitted only when
// tenancy is enabled).
//
// The shape follows the governance exemplars cited in the ROADMAP:
// virtual keys resolve to tenants carrying usage counters and
// hierarchical limits, and admission rejections are cheap and
// attributed. Failing work needs no policy of its own: every job outcome
// is a function of its spec, so the daemon answers a failed spec from its
// failed job, as it answers a finished one, and a tenant cannot re-run a
// failing spec by resubmitting it. Rate limits and quotas bound a
// tenant's run-queue admissions whatever their outcome.
package tenant

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Class is a scheduling priority class. Interactive work preempts bulk
// work at shard granularity: whenever an executor slot frees, waiting
// interactive shards are granted before waiting bulk shards (the scheduler
// yields between shards, so a bulk sweep is preempted at every shard
// boundary, never mid-simulation).
type Class int

const (
	// ClassBulk is the default class of sweep jobs: heavy batched work
	// that yields to interactive traffic between shards.
	ClassBulk Class = iota
	// ClassInteractive is the default class of single-configuration jobs:
	// latency-sensitive work granted slots ahead of bulk.
	ClassInteractive
)

// String renders the class as its config-file spelling.
func (c Class) String() string {
	if c == ClassInteractive {
		return "interactive"
	}
	return "bulk"
}

// parseClass maps a config-file class name; "" means "by job kind".
func parseClass(s string) (Class, bool, error) {
	switch strings.ToLower(s) {
	case "":
		return ClassBulk, false, nil
	case "bulk":
		return ClassBulk, true, nil
	case "interactive":
		return ClassInteractive, true, nil
	default:
		return ClassBulk, false, fmt.Errorf("tenant: class %q is not \"interactive\" or \"bulk\"", s)
	}
}

// Policy is one tenant's configured limits, as read from the config file.
// Zero values mean "unlimited"/"default" throughout.
type Policy struct {
	// Name identifies the tenant in listings, logs, and metric labels.
	Name string `json:"name"`
	// Key is the API key presented as `Authorization: Bearer <key>` or
	// `X-API-Key: <key>`. Empty only for the anonymous policy.
	Key string `json:"key,omitempty"`
	// Class pins every job of this tenant to one priority class
	// ("interactive" or "bulk"); empty classifies by job kind (single
	// runs interactive, sweeps bulk).
	Class string `json:"class,omitempty"`
	// Weight is the tenant's weighted-fair-queueing share (default 1):
	// under contention within a class, a weight-4 tenant's shards are
	// granted slots four times as often as a weight-1 tenant's.
	Weight float64 `json:"weight,omitempty"`
	// RateRPS and Burst form the admission token bucket: sustained
	// submissions per second and the burst ceiling (default: burst =
	// max(1, RateRPS)). RateRPS 0 disables rate limiting; a positive
	// RateRPS must be at least 1e-6.
	RateRPS float64 `json:"rate_rps,omitempty"`
	Burst   float64 `json:"burst,omitempty"`
	// MaxInflight bounds the tenant's jobs that are queued or running;
	// MaxQueued bounds just the queued portion. 0 = unlimited. Exceeding
	// either rejects the submission with 429.
	MaxInflight int `json:"max_inflight,omitempty"`
	MaxQueued   int `json:"max_queued,omitempty"`
}

// Config is the -tenant-config file shape.
type Config struct {
	// Tenants are the keyed tenants.
	Tenants []Policy `json:"tenants"`
	// Anonymous, when present, is the policy applied to requests that
	// carry no key at all (an unknown key is always rejected — it is a
	// credential typo, not anonymous traffic). Absent, keyless requests
	// are rejected with 401.
	Anonymous *Policy `json:"anonymous,omitempty"`
}

// Tenant is one admitted principal with its live accounting. All methods
// are safe for concurrent use.
type Tenant struct {
	name        string
	class       Class
	classPinned bool
	weight      float64
	maxInflight int
	maxQueued   int
	bucket      *Bucket // nil = unlimited

	mu       sync.Mutex
	queued   int
	running  int
	pass     float64 // weighted-fair-queueing virtual time (owned by Gate)
	admitted uint64
	rejected map[string]uint64 // reason → count
}

// Name reports the tenant's configured name.
func (t *Tenant) Name() string { return t.name }

// ClassFor resolves the priority class of a job: the tenant's pinned
// class when configured, otherwise interactive for single runs and bulk
// for sweeps.
func (t *Tenant) ClassFor(sweep bool) Class {
	if t.classPinned {
		return t.class
	}
	if sweep {
		return ClassBulk
	}
	return ClassInteractive
}

// Rejection describes a refused submission, which the daemon answers with
// 429: its reason and the Retry-After hint.
type Rejection struct {
	// Reason is the metrics label: "rate" or "quota".
	Reason string
	// RetryAfter is the client hint; zero means "retry at will" (quota
	// rejections clear when a job finishes, which has no schedule).
	RetryAfter time.Duration
	// Message is the response body detail.
	Message string
}

// Admit runs the tenant's admission checks for one submission, in order:
// rate limit, then the inflight/queue quotas. A nil return admits the
// request; the caller reports JobQueued (and later JobStarted and
// JobFinished) once the job enters the queue.
func (t *Tenant) Admit() *Rejection {
	if t.bucket != nil {
		if ok, retry := t.bucket.Take(); !ok {
			t.countReject("rate")
			return &Rejection{
				Reason: "rate", RetryAfter: retry,
				Message: fmt.Sprintf("tenant %q rate limit exceeded; retry after %s", t.name, retry.Round(time.Millisecond)),
			}
		}
	}
	t.mu.Lock()
	if t.maxQueued > 0 && t.queued >= t.maxQueued {
		q := t.queued
		t.mu.Unlock()
		t.countReject("quota")
		return &Rejection{
			Reason: "quota", RetryAfter: time.Second,
			Message: fmt.Sprintf("tenant %q has %d jobs queued (max_queued %d)", t.name, q, t.maxQueued),
		}
	}
	if t.maxInflight > 0 && t.queued+t.running >= t.maxInflight {
		n := t.queued + t.running
		t.mu.Unlock()
		t.countReject("quota")
		return &Rejection{
			Reason: "quota", RetryAfter: time.Second,
			Message: fmt.Sprintf("tenant %q has %d jobs inflight (max_inflight %d)", t.name, n, t.maxInflight),
		}
	}
	t.admitted++
	t.mu.Unlock()
	return nil
}

func (t *Tenant) countReject(reason string) {
	t.mu.Lock()
	t.rejected[reason]++
	t.mu.Unlock()
}

// JobQueued records a job accepted onto the daemon queue.
func (t *Tenant) JobQueued() {
	t.mu.Lock()
	t.queued++
	t.mu.Unlock()
}

// JobStarted records a queued job picked up by an executor.
func (t *Tenant) JobStarted() {
	t.mu.Lock()
	t.queued--
	t.running++
	t.mu.Unlock()
}

// JobFinished records a running job reaching a terminal state.
func (t *Tenant) JobFinished() {
	t.mu.Lock()
	t.running--
	t.mu.Unlock()
}

// Usage is a tenant's live accounting snapshot, served by GET /v1/tenants
// and rendered into the per-tenant metric series.
type Usage struct {
	Name        string  `json:"name"`
	Class       string  `json:"class"` // pinned class, or "by-kind"
	Weight      float64 `json:"weight"`
	RateRPS     float64 `json:"rate_rps,omitempty"`
	MaxInflight int     `json:"max_inflight,omitempty"`
	MaxQueued   int     `json:"max_queued,omitempty"`
	Queued      int     `json:"queued"`
	Running     int     `json:"running"`
	Admitted    uint64  `json:"admitted_total"`
	// Rejected counts refusals by reason ("rate", "quota").
	Rejected map[string]uint64 `json:"rejected_total,omitempty"`
}

// Usage snapshots the tenant.
func (t *Tenant) Usage() Usage {
	t.mu.Lock()
	defer t.mu.Unlock()
	u := Usage{
		Name: t.name, Class: "by-kind", Weight: t.weight,
		MaxInflight: t.maxInflight, MaxQueued: t.maxQueued,
		Queued: t.queued, Running: t.running, Admitted: t.admitted,
	}
	if t.classPinned {
		u.Class = t.class.String()
	}
	if t.bucket != nil {
		u.RateRPS = t.bucket.rate
	}
	if len(t.rejected) > 0 {
		u.Rejected = make(map[string]uint64, len(t.rejected))
		for k, v := range t.rejected {
			u.Rejected[k] = v
		}
	}
	return u
}

// Unlimited builds a standalone tenant with no limits and weight 1 — the implicit principal of a daemon running without a tenant
// configuration, whose behavior must match the pre-tenancy daemon.
func Unlimited(name string) *Tenant {
	t, err := newTenant(Policy{Name: name})
	if err != nil {
		panic(err) // the empty policy is valid by construction
	}
	return t
}

// Registry resolves API keys to tenants. Immutable after construction;
// per-tenant state lives on the Tenants themselves.
type Registry struct {
	byKey     map[string]*Tenant
	byName    map[string]*Tenant
	anonymous *Tenant // nil = keyless requests rejected
	ordered   []*Tenant
}

// newTenant materializes a policy.
func newTenant(p Policy) (*Tenant, error) {
	class, pinned, err := parseClass(p.Class)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", p.Name, err)
	}
	if p.Weight < 0 || p.RateRPS < 0 || p.Burst < 0 || p.MaxInflight < 0 || p.MaxQueued < 0 {
		return nil, fmt.Errorf("tenant %q: negative limits are invalid", p.Name)
	}
	if p.RateRPS > 0 && p.RateRPS < minRateRPS {
		return nil, fmt.Errorf("tenant %q: rate_rps %v is below the minimum of %v (0 disables rate limiting)", p.Name, p.RateRPS, minRateRPS)
	}
	weight := p.Weight
	if weight == 0 {
		weight = 1
	}
	t := &Tenant{
		name: p.Name, class: class, classPinned: pinned, weight: weight,
		maxInflight: p.MaxInflight, maxQueued: p.MaxQueued,
		rejected: map[string]uint64{},
	}
	if p.RateRPS > 0 {
		burst := p.Burst
		if burst == 0 {
			burst = p.RateRPS
			if burst < 1 {
				burst = 1
			}
		}
		t.bucket = NewBucket(p.RateRPS, burst)
	}
	return t, nil
}

// NewRegistry validates a configuration and builds the registry.
func NewRegistry(cfg Config) (*Registry, error) {
	r := &Registry{byKey: map[string]*Tenant{}, byName: map[string]*Tenant{}}
	if len(cfg.Tenants) == 0 && cfg.Anonymous == nil {
		return nil, fmt.Errorf("tenant: config names no tenants and no anonymous policy")
	}
	for _, p := range cfg.Tenants {
		if p.Name == "" {
			return nil, fmt.Errorf("tenant: every tenant needs a name")
		}
		if p.Key == "" {
			return nil, fmt.Errorf("tenant %q: every keyed tenant needs a key (use the anonymous policy for keyless access)", p.Name)
		}
		if _, dup := r.byName[p.Name]; dup {
			return nil, fmt.Errorf("tenant %q: duplicate name", p.Name)
		}
		if _, dup := r.byKey[p.Key]; dup {
			return nil, fmt.Errorf("tenant %q: key already assigned to another tenant", p.Name)
		}
		t, err := newTenant(p)
		if err != nil {
			return nil, err
		}
		r.byKey[p.Key] = t
		r.byName[p.Name] = t
		r.ordered = append(r.ordered, t)
	}
	if cfg.Anonymous != nil {
		p := *cfg.Anonymous
		if p.Key != "" {
			return nil, fmt.Errorf("tenant: the anonymous policy must not carry a key")
		}
		if p.Name == "" {
			p.Name = "anonymous"
		}
		if _, dup := r.byName[p.Name]; dup {
			return nil, fmt.Errorf("tenant %q: duplicate name", p.Name)
		}
		t, err := newTenant(p)
		if err != nil {
			return nil, err
		}
		r.anonymous = t
		r.byName[p.Name] = t
		r.ordered = append(r.ordered, t)
	}
	sort.Slice(r.ordered, func(i, j int) bool { return r.ordered[i].name < r.ordered[j].name })
	return r, nil
}

// LoadFile reads and validates a -tenant-config JSON file.
func LoadFile(path string) (*Registry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tenant: %w", err)
	}
	defer f.Close()
	cfg, err := decodeConfig(f)
	if err != nil {
		return nil, fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	return NewRegistry(cfg)
}

// decodeConfig decodes a -tenant-config JSON document. Unknown fields are
// rejected — a typo'd limit silently defaulting to "unlimited" would be a
// security bug.
func decodeConfig(r io.Reader) (Config, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var cfg Config
	err := dec.Decode(&cfg)
	return cfg, err
}

// apiKey extracts the presented key: `Authorization: Bearer <key>` wins,
// then `X-API-Key`.
func apiKey(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); auth != "" {
		if k, ok := strings.CutPrefix(auth, "Bearer "); ok {
			return strings.TrimSpace(k)
		}
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// Authenticate resolves a request to its tenant. A missing key maps to
// the anonymous tenant when one is configured; an unknown key is always
// rejected (it is a credential typo, not anonymous traffic).
func (r *Registry) Authenticate(req *http.Request) (*Tenant, error) {
	key := apiKey(req)
	if key == "" {
		if r.anonymous == nil {
			return nil, fmt.Errorf("missing API key (Authorization: Bearer or X-API-Key)")
		}
		return r.anonymous, nil
	}
	if t, ok := r.byKey[key]; ok {
		return t, nil
	}
	return nil, fmt.Errorf("unknown API key")
}

// Tenants lists the registry's tenants sorted by name (metrics and the
// /v1/tenants listing need a deterministic order).
func (r *Registry) Tenants() []*Tenant { return r.ordered }
