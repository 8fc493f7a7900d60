// The weighted-fair executor-slot gate. The core scheduler asks for a
// slot before every shard (core.RunConfig.Acquire), which makes the gate
// the preemption point of the whole daemon: a bulk sweep holding N
// executor slots re-enters the gate N times per shard round, and every
// re-entry is an opportunity for queued interactive work to be granted
// first. Nothing is ever interrupted mid-shard — determinism per shard is
// untouched — but no bulk job can hold the daemon for longer than one
// shard's runtime.
//
// Scheduling is two-level:
//
//  1. Class: waiting interactive shards are always granted before waiting
//     bulk shards (strict priority — interactive work is latency-bound
//     and shard-sized, so bulk starvation is not a practical risk).
//  2. Tenant, within a class: stride scheduling. Each tenant carries a
//     virtual-time "pass"; every grant advances the grantee's pass by
//     1/weight, and the next grant goes to the waiting tenant with the
//     smallest pass. A weight-4 tenant therefore receives four grants for
//     every one a weight-1 tenant gets, and a tenant that was idle
//     rejoins at the current virtual time rather than cashing in banked
//     credit.
//
// FIFO order is preserved within one tenant+class, so a single tenant's
// shards never reorder relative to each other.

package tenant

import "sync"

// Gate multiplexes a fixed number of executor slots across tenants.
type Gate struct {
	mu      sync.Mutex
	slots   int
	free    int
	vtime   float64
	seq     uint64
	waiters []*waiter
}

type waiter struct {
	t     *Tenant
	class Class
	seq   uint64
	ready chan struct{}
}

// NewGate builds a gate over `slots` executor slots.
func NewGate(slots int) *Gate {
	if slots < 1 {
		slots = 1
	}
	return &Gate{slots: slots, free: slots}
}

// Waiting reports how many shard acquisitions are currently queued.
func (g *Gate) Waiting() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.waiters)
}

// Acquire blocks until the tenant is granted an executor slot for one
// shard and returns the release. A free slot with an empty wait queue is
// granted immediately; otherwise the caller queues behind the fairness
// discipline above.
func (g *Gate) Acquire(t *Tenant, class Class) (release func()) {
	g.mu.Lock()
	if g.free > 0 && len(g.waiters) == 0 {
		g.free--
		g.chargeLocked(t)
		g.mu.Unlock()
		return g.releaseFunc()
	}
	w := &waiter{t: t, class: class, seq: g.seq, ready: make(chan struct{})}
	g.seq++
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	<-w.ready
	return g.releaseFunc()
}

// AcquireFunc adapts Acquire to the core.RunConfig.Acquire signature for
// one job's tenant and class.
func (g *Gate) AcquireFunc(t *Tenant, class Class) func() func() {
	return func() func() { return g.Acquire(t, class) }
}

func (g *Gate) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.free++
			g.dispatchLocked()
			g.mu.Unlock()
		})
	}
}

// chargeLocked advances virtual time for a grant: the grantee's pass
// catches up to the global virtual time (no banked credit from idling),
// the global clock moves to the grantee, and the grantee pays 1/weight
// for the shard.
func (g *Gate) chargeLocked(t *Tenant) {
	if t.pass < g.vtime {
		t.pass = g.vtime
	}
	g.vtime = t.pass
	t.pass += 1 / t.weight
}

// dispatchLocked grants free slots to waiters: interactive class first,
// then the minimum-pass tenant, FIFO within a tenant.
func (g *Gate) dispatchLocked() {
	for g.free > 0 && len(g.waiters) > 0 {
		best := -1
		for i, w := range g.waiters {
			if best == -1 {
				best = i
				continue
			}
			b := g.waiters[best]
			if w.class != b.class {
				if w.class == ClassInteractive {
					best = i
				}
				continue
			}
			if w.t != b.t && w.t.pass != b.t.pass {
				if w.t.pass < b.t.pass {
					best = i
				}
				continue
			}
			if w.seq < b.seq {
				best = i
			}
		}
		w := g.waiters[best]
		g.waiters = append(g.waiters[:best], g.waiters[best+1:]...)
		g.free--
		g.chargeLocked(w.t)
		close(w.ready)
	}
}
