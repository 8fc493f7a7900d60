// The per-tenant circuit breaker. Each tenant's job outcomes feed a
// sliding window of recent results; when the window is warm (min_samples)
// and the failure ratio crosses the threshold, the breaker opens and the
// tenant's submissions are shed with 503 until the cooldown elapses. The
// first submission after cooldown is a half-open probe: its success
// closes the breaker, its failure re-opens it for another cooldown.
//
// Per-tenant scope is the point — one tenant submitting configurations
// that consistently fail (bad parameters, a broken client) stops burning
// executor slots without affecting anyone else's error budget.

package tenant

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// maxBreakerWindow bounds BreakerPolicy.Window. The breaker keeps one
// ring slot per sample, so the bound caps what a config file can make
// the daemon allocate per tenant.
const maxBreakerWindow = 10000

// BreakerPolicy is the circuit-breaker configuration of one tenant.
type BreakerPolicy struct {
	// Window is the sliding window size in samples (default 20, at most
	// 10000).
	Window int `json:"window,omitempty"`
	// MinSamples is the warm-up floor: the breaker never trips before
	// this many outcomes are in the window (default 5).
	MinSamples int `json:"min_samples,omitempty"`
	// FailureRatio in (0, 1] trips the breaker when the windowed failure
	// fraction reaches it. Required.
	FailureRatio float64 `json:"failure_ratio"`
	// CooldownSeconds is how long an open breaker sheds load before
	// allowing a half-open probe (default 30). It must be finite and fit
	// a time.Duration (under about 292 years).
	CooldownSeconds float64 `json:"cooldown_seconds,omitempty"`
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// Breaker is a sliding-window circuit breaker. Safe for concurrent use.
type Breaker struct {
	window   int
	min      int
	ratio    float64
	cooldown time.Duration
	now      func() time.Time // injectable for deterministic tests

	mu       sync.Mutex
	state    breakerState
	outcomes []bool // ring of recent outcomes, true = success
	next     int
	filled   int
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// NewBreaker validates a policy and builds the breaker (closed).
func NewBreaker(p BreakerPolicy) (*Breaker, error) {
	if p.FailureRatio <= 0 || p.FailureRatio > 1 {
		return nil, fmt.Errorf("breaker failure_ratio %v must be in (0, 1]", p.FailureRatio)
	}
	if p.Window < 0 || p.MinSamples < 0 || p.CooldownSeconds < 0 {
		return nil, fmt.Errorf("breaker limits must not be negative")
	}
	if p.Window > maxBreakerWindow {
		return nil, fmt.Errorf("breaker window %d exceeds the maximum of %d", p.Window, maxBreakerWindow)
	}
	// Converting a float beyond int64 to a Duration is implementation-
	// dependent (in practice the minimum int64: a negative cooldown, an
	// open breaker that admits its probe at once).
	if math.IsNaN(p.CooldownSeconds) || p.CooldownSeconds*float64(time.Second) >= math.MaxInt64 {
		return nil, fmt.Errorf("breaker cooldown_seconds %v is not a finite duration under %v", p.CooldownSeconds, time.Duration(math.MaxInt64))
	}
	b := &Breaker{
		window: p.Window, min: p.MinSamples, ratio: p.FailureRatio,
		cooldown: time.Duration(p.CooldownSeconds * float64(time.Second)),
		now:      time.Now,
	}
	if b.window == 0 {
		b.window = 20
	}
	if b.min == 0 {
		b.min = 5
	}
	if b.min > b.window {
		return nil, fmt.Errorf("breaker min_samples %d exceeds window %d", b.min, b.window)
	}
	if b.cooldown == 0 {
		b.cooldown = 30 * time.Second
	}
	b.outcomes = make([]bool, b.window)
	return b, nil
}

// Allow reports whether a submission may proceed. An open breaker whose
// cooldown has elapsed admits exactly one probe (half-open); further
// submissions are shed until the probe's outcome is recorded. probe is
// true when this call consumed the half-open probe: the caller now owes
// the breaker a resolution — a Record once a job runs, or a CancelProbe
// if the submission is rejected downstream before any job exists.
func (b *Breaker) Allow() (ok bool, probe bool, retryAfter time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true, false, 0
	case breakerOpen:
		if left := b.cooldown - b.now().Sub(b.openedAt); left > 0 {
			return false, false, left
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, true, 0
	default: // half-open
		if b.probing {
			return false, false, b.cooldown
		}
		b.probing = true
		return true, true, 0
	}
}

// CancelProbe returns an unconsumed half-open probe. A probe granted by
// Allow can die before any job exists to Record its outcome — the same
// submission may still be rejected by the rate limiter, a quota, or the
// full daemon queue. Without cancellation the breaker would wait forever
// for a Record that can never come, shedding the tenant until restart
// (and a failing tenant's retrying clients make that exact sequence
// likely). A no-op unless a probe is actually outstanding: a concurrent
// Record may already have resolved the half-open state, in which case
// the probe is no longer this caller's to return.
func (b *Breaker) CancelProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen && b.probing {
		b.probing = false
	}
}

// Record feeds one job outcome into the window and runs the state
// transitions: a half-open probe's success closes the breaker (and clears
// the window — history from before the incident should not re-trip it),
// its failure re-opens; a closed breaker trips when the warm window's
// failure ratio reaches the threshold.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
		if success {
			b.state = breakerClosed
			b.filled, b.next, b.failures = 0, 0, 0
		} else {
			b.state = breakerOpen
			b.openedAt = b.now()
		}
		return
	}
	if b.filled == b.window && !b.outcomes[b.next] {
		b.failures--
	}
	b.outcomes[b.next] = success
	if !success {
		b.failures++
	}
	b.next = (b.next + 1) % b.window
	if b.filled < b.window {
		b.filled++
	}
	if b.state == breakerClosed && b.filled >= b.min &&
		float64(b.failures)/float64(b.filled) >= b.ratio {
		b.state = breakerOpen
		b.openedAt = b.now()
	}
}

// State renders the breaker state for listings and metrics.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
