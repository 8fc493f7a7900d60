// The coordinator: owner of the distributed task queue. It never runs a
// loop of its own over the work — the scheduler's worker goroutines block
// in RunHandle.RunShard, each waiting on exactly one task, and the
// coordinator's only job is deciding *where* that task executes: leased to
// a remote worker, retried on a survivor after a loss, or claimed back for
// local execution when no fleet is available (or the task has exhausted its
// remote attempts). Liveness is heartbeat-based — any authenticated request
// from a worker refreshes it, a janitor expires the silent — and every
// lease transition is guarded by a single mutex with a broadcast channel
// for waiters, so the hot path stays allocation-light and obviously
// serializable.

package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/shardcache"
)

// Sentinel errors of the coordinator's state machine; the HTTP layer maps
// them onto protocol error codes.
var (
	errUnknownWorker = errors.New("dist: unknown worker")
	errStaleLease    = errors.New("dist: stale lease")
	errDraining      = errors.New("dist: coordinator draining")
)

// pollWait caps how long an empty /lease long-poll is held before
// returning no task.
const pollWait = 2 * time.Second

// Config controls a Coordinator. The zero value gets production defaults.
type Config struct {
	// LeaseTTL is how long a worker may stay silent (no lease, heartbeat,
	// or completion request) before it is declared lost and its in-flight
	// leases are re-queued. Workers are told to heartbeat at LeaseTTL/4.
	// Default 15s.
	LeaseTTL time.Duration
	// MaxRetries bounds how many times a task lost to worker failure is
	// re-dispatched remotely before it is pinned to local execution.
	// Default 3.
	MaxRetries int
	// RetryBackoff delays a lost task's next remote lease, scaled by its
	// loss count. Default 250ms.
	RetryBackoff time.Duration
	// Logger receives worker lifecycle and fault events; nil discards.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

type taskState int

const (
	statePending taskState = iota // queued, dispatchable
	stateLeased                   // held by a remote worker
	stateLocal                    // claimed back, executing in-process
	stateDone                     // finished; out/origin/err final
)

// task is one shard execution moving through the coordinator.
type task struct {
	id   string
	run  *RunHandle
	spec TaskSpec
	// configIndex locates the task's remote trace span.
	configIndex int

	state taskState
	// worker holds the leasing worker's ID while stateLeased.
	worker string
	// completedBy records which worker's completion was accepted, for
	// idempotent duplicate detection ("" = local execution).
	completedBy string
	// attempts counts remote dispatches lost to worker failure.
	attempts int
	// localOnly pins a task that exhausted MaxRetries to local execution.
	localOnly bool
	// notBefore delays re-dispatch after a loss (retry backoff).
	notBefore time.Time
	grantedAt time.Time

	done chan struct{}
	out  any
	// origin names the remote worker that produced out; "" for local.
	origin string
	err    error
}

// workerState is the coordinator's record of one registered worker.
type workerState struct {
	id    string
	name  string
	host  string
	pid   int
	slots int

	registered time.Time
	lastSeen   time.Time
	gone       bool

	leases    map[string]*task
	completed int
	retried   int
}

// Coordinator owns registration, leasing, liveness, retry, and fallback
// for one distributed pool. Create with NewCoordinator, plug into runs via
// StartRun, serve the worker protocol via Handler, and Close on shutdown.
type Coordinator struct {
	cfg Config
	log *slog.Logger

	mu      sync.Mutex
	wake    chan struct{} // closed+replaced on every state change
	workers map[string]*workerState
	tasks   map[string]*task
	pending []*task
	seq     struct{ worker, task uint64 }
	retries int
	closed  bool

	stopJanitor chan struct{}
	closeOnce   sync.Once
}

// NewCoordinator creates a running coordinator (its expiry janitor starts
// immediately).
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:         cfg,
		log:         cfg.Logger,
		wake:        make(chan struct{}),
		workers:     map[string]*workerState{},
		tasks:       map[string]*task{},
		stopJanitor: make(chan struct{}),
	}
	go c.janitor()
	return c
}

// broadcast wakes every goroutine blocked on coordinator state. Callers
// hold c.mu.
func (c *Coordinator) broadcastLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

func (c *Coordinator) wakeup() {
	c.mu.Lock()
	c.broadcastLocked()
	c.mu.Unlock()
}

// Close drains the coordinator: no new leases are granted (workers get the
// draining code and back off), waiting RunShard calls fall back to local
// execution, and the janitor stops. In-flight completions are still
// accepted, so connected workers drain cleanly.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.broadcastLocked()
		c.mu.Unlock()
		close(c.stopJanitor)
	})
}

// janitor periodically expires workers whose last request is older than the
// lease TTL, re-queueing their in-flight leases for retry.
func (c *Coordinator) janitor() {
	interval := c.cfg.LeaseTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-c.stopJanitor:
			return
		case <-tick.C:
			c.expire()
		}
	}
}

func (c *Coordinator) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := time.Now().Add(-c.cfg.LeaseTTL)
	for _, w := range c.workers {
		if !w.gone && w.lastSeen.Before(cutoff) {
			c.log.Warn("dist: worker lost (missed heartbeats)",
				"worker", w.name, "id", w.id, "inflight", len(w.leases))
			c.dropWorkerLocked(w, true)
		}
	}
}

// dropWorkerLocked removes a worker from the live set and re-queues its
// leases. expired distinguishes the fault path (loss counts against the
// task's retry budget and delays re-dispatch by the backoff) from graceful
// deregistration (relinquished leases go back immediately, no penalty —
// the worker did nothing wrong and neither did the shard).
func (c *Coordinator) dropWorkerLocked(w *workerState, expired bool) {
	w.gone = true
	for id, t := range w.leases {
		delete(w.leases, id)
		if t.state != stateLeased || t.worker != w.id {
			continue
		}
		t.state = statePending
		t.worker = ""
		if expired {
			t.attempts++
			c.retries++
			w.retried++
			if t.attempts > c.cfg.MaxRetries {
				// Out of remote attempts: pin to local execution rather
				// than fail — the scheduler goroutine waiting on this task
				// is a worker of last resort that cannot be lost.
				t.localOnly = true
				c.log.Warn("dist: shard exhausted remote retries, pinning local",
					"task", t.spec.Ref.String(), "attempts", t.attempts)
			} else {
				backoff := time.Duration(t.attempts) * c.cfg.RetryBackoff
				t.notBefore = time.Now().Add(backoff)
				// Re-wake lease polls and local claimants once the task
				// becomes eligible again.
				time.AfterFunc(backoff+time.Millisecond, c.wakeup)
			}
		}
		c.pending = append(c.pending, t)
	}
	c.broadcastLocked()
}

// register admits a worker into the pool and returns its identity plus the
// heartbeat contract.
func (c *Coordinator) register(req registerRequest) registerResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq.worker++
	id := fmt.Sprintf("w%03d", c.seq.worker)
	name := req.Name
	if name == "" {
		name = id
	}
	slots := req.Slots
	if slots < 1 {
		slots = 1
	}
	now := time.Now()
	w := &workerState{
		id: id, name: name, host: req.Host, pid: req.PID, slots: slots,
		registered: now, lastSeen: now,
		leases: map[string]*task{},
	}
	c.workers[id] = w
	c.log.Info("dist: worker registered", "worker", name, "id", id, "slots", slots, "host", req.Host, "pid", req.PID)
	c.broadcastLocked()
	return registerResponse{
		WorkerID:        id,
		HeartbeatMillis: (c.cfg.LeaseTTL / 4).Milliseconds(),
		LeaseTTLMillis:  c.cfg.LeaseTTL.Milliseconds(),
	}
}

// heartbeat refreshes a worker's liveness.
func (c *Coordinator) heartbeat(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil || w.gone {
		return errUnknownWorker
	}
	w.lastSeen = time.Now()
	return nil
}

// deregister is the graceful exit: the worker's remaining leases are
// relinquished and re-queued immediately — not after heartbeat expiry —
// with no retry penalty.
func (c *Coordinator) deregister(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerID]
	if w == nil || w.gone {
		return
	}
	c.log.Info("dist: worker deregistered", "worker", w.name, "id", w.id,
		"completed", w.completed, "relinquished", len(w.leases))
	c.dropWorkerLocked(w, false)
}

// lease long-polls for tasks on behalf of a worker. A poll grants the
// oldest eligible pending tasks, taken in one locked section, until the
// worker holds 2 × its registered slots: one task executing per slot plus
// a slot-deep buffer, so one round trip can refill a whole slot pool
// while the worker never hoards work a survivor could run. A worker
// already holding that many waits in the long-poll for a completion. An
// empty poll past the wait window returns (nil, nil).
func (c *Coordinator) lease(ctx context.Context, workerID string, wait time.Duration) ([]TaskSpec, error) {
	if wait <= 0 || wait > pollWait {
		wait = pollWait
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		w := c.workers[workerID]
		if w == nil || w.gone {
			c.mu.Unlock()
			return nil, errUnknownWorker
		}
		w.lastSeen = time.Now()
		if c.closed {
			c.mu.Unlock()
			return nil, errDraining
		}
		var specs []TaskSpec
		for len(w.leases) < 2*w.slots {
			t := c.takeLocked(w)
			if t == nil {
				break
			}
			specs = append(specs, t.spec)
		}
		if len(specs) > 0 {
			c.mu.Unlock()
			return specs, nil
		}
		ch := c.wake
		c.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, nil
		case <-deadline.C:
			return nil, nil
		case <-ch:
		}
	}
}

// takeLocked leases a worker the oldest eligible pending task: not pinned
// local, not waiting out a retry backoff. Callers hold c.mu.
func (c *Coordinator) takeLocked(w *workerState) *task {
	now := time.Now()
	for i, t := range c.pending {
		if t.localOnly || t.notBefore.After(now) {
			continue
		}
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
		t.state = stateLeased
		t.worker = w.id
		t.grantedAt = now
		w.leases[t.id] = t
		return t
	}
	return nil
}

// complete lands a worker's result. Exactly one completion is ever
// accepted per task: a duplicate from the accepting worker is an
// idempotent no-op, while a completion for a lease that expired and moved
// on (re-dispatched or finished elsewhere) is rejected as stale.
func (c *Coordinator) complete(req completeRequest) (duplicate bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[req.WorkerID]
	if w == nil {
		return false, errUnknownWorker
	}
	if !w.gone {
		w.lastSeen = time.Now()
	}
	t := c.tasks[req.TaskID]
	if t == nil {
		// The task's run already finished and was cleaned up; whatever
		// lease this was, it is no longer current.
		return false, errStaleLease
	}
	if t.state == stateDone {
		if t.completedBy == req.WorkerID {
			return true, nil
		}
		return false, errStaleLease
	}
	if t.state != stateLeased || t.worker != req.WorkerID {
		return false, errStaleLease
	}
	delete(w.leases, t.id)
	w.completed++

	var out any
	var execErr error
	if req.Error != "" {
		execErr = errors.New(req.Error)
	} else if out, err = shardcache.DecodeOutput(req.Output); err != nil {
		// An undecodable output is an execution failure of this shard (an
		// unregistered output type, a version skew, a corrupt payload), not
		// a protocol error: fail the shard loudly instead of poisoning the
		// reduce.
		out, execErr = nil, fmt.Errorf("dist: decoding output from worker %s: %w", w.name, err)
	}
	if tr := t.run.trace; tr.Enabled() {
		tr.Add(obs.Span{
			Cat: obs.CatRemote, Name: t.spec.Ref.Exp,
			Config: t.configIndex, Shard: t.spec.Ref.Shard + 1,
			Label: t.spec.Label, Worker: -1, Origin: w.name,
			Start: tr.Offset(t.grantedAt) + time.Duration(req.StartDeltaNS),
			Dur:   time.Duration(req.DurNS),
			Err:   req.Error,
		})
	}
	c.finishLocked(t, out, w.name, execErr)
	t.completedBy = req.WorkerID
	return false, nil
}

// finishLocked finalizes a task. Callers hold c.mu.
func (c *Coordinator) finishLocked(t *task, out any, origin string, err error) {
	t.state = stateDone
	t.out, t.origin, t.err = out, origin, err
	close(t.done)
	c.broadcastLocked()
}

// RunHandle scopes one scheduler run (one sweep) on the coordinator: it
// carries the run's trace for remote span merging and owns the run's task
// records. Obtain via StartRun, pass RunShard as the run's
// core.RunConfig.RunShard, and Finish when the run completes.
type RunHandle struct {
	c     *Coordinator
	trace *obs.Trace
}

// StartRun opens a run scope. tr may be nil (untraced run).
func (c *Coordinator) StartRun(tr *obs.Trace) *RunHandle {
	return &RunHandle{c: c, trace: tr}
}

// Finish releases the run's completed task records. Every RunShard call
// must have returned.
func (h *RunHandle) Finish() {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, t := range c.tasks {
		if t.run == h {
			delete(c.tasks, id)
		}
	}
}

// RunShard is the core.RunConfig.RunShard hook: it enqueues the shard for
// the fleet and blocks until a result lands — executed remotely by a
// leased worker (possibly after retries on worker loss), or claimed back
// and run in-process through the task's own Run thunk (which holds the
// run's core.RunConfig.Acquire slot) when the task is local-pinned, the
// coordinator is draining, or no live workers remain. The calling
// scheduler goroutine is the local worker of last resort, so a run can
// always make progress.
func (h *RunHandle) RunShard(st core.ShardTask) (any, string, error) {
	c := h.c
	t := c.enqueue(h, st)
	for {
		c.mu.Lock()
		if t.state == stateDone {
			out, origin, err := t.out, t.origin, t.err
			c.mu.Unlock()
			return out, origin, err
		}
		if t.state == statePending && (t.localOnly || c.closed || c.liveWorkersLocked() == 0) {
			c.unqueueLocked(t)
			t.state = stateLocal
			c.mu.Unlock()
			out, err := st.Run()
			c.mu.Lock()
			c.finishLocked(t, out, "", err)
			c.mu.Unlock()
			return out, "", err
		}
		ch := c.wake
		c.mu.Unlock()
		select {
		case <-t.done:
		case <-ch:
		case <-time.After(250 * time.Millisecond):
			// Safety tick: never deadlock on a missed broadcast.
		}
	}
}

func (c *Coordinator) enqueue(h *RunHandle, st core.ShardTask) *task {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq.task++
	t := &task{
		id:          fmt.Sprintf("t%06d", c.seq.task),
		run:         h,
		configIndex: st.ConfigIndex,
		state:       statePending,
		done:        make(chan struct{}),
	}
	t.spec = TaskSpec{ID: t.id, Ref: st.Ref, Label: st.Label}
	c.tasks[t.id] = t
	c.pending = append(c.pending, t)
	c.broadcastLocked()
	return t
}

// unqueueLocked removes a pending task from the dispatch queue. Callers
// hold c.mu.
func (c *Coordinator) unqueueLocked(t *task) {
	for i, p := range c.pending {
		if p == t {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

func (c *Coordinator) liveWorkersLocked() int {
	n := 0
	for _, w := range c.workers {
		if !w.gone {
			n++
		}
	}
	return n
}

// WorkersConnected reports the live worker count.
func (c *Coordinator) WorkersConnected() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked()
}

// LeasesInflight reports shard leases currently held by live workers.
func (c *Coordinator) LeasesInflight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if !w.gone {
			n += len(w.leases)
		}
	}
	return n
}

// RetriesTotal reports shard dispatches lost to worker failure and
// re-queued since the coordinator started.
func (c *Coordinator) RetriesTotal() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.retries
}

// PendingTasks reports tasks queued but not yet dispatched.
func (c *Coordinator) PendingTasks() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// PoolSize sizes a run's scheduler pool: the local executor count plus
// every live worker's slots, so a distributed run keeps the whole fleet
// busy while never starving local fallback.
func (c *Coordinator) PoolSize(local int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := local
	for _, w := range c.workers {
		if !w.gone {
			n += w.slots
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// WorkerStatus is one worker's row in the GET /v1/workers listing.
type WorkerStatus struct {
	ID             string  `json:"id"`
	Name           string  `json:"name"`
	Host           string  `json:"host,omitempty"`
	PID            int     `json:"pid,omitempty"`
	Slots          int     `json:"slots"`
	Live           bool    `json:"live"`
	LastSeenSecAgo float64 `json:"last_seen_sec_ago"`
	InflightLeases int     `json:"inflight_leases"`
	Completed      int     `json:"shards_completed"`
	Retried        int     `json:"shards_retried"`
}

// WorkersStatus lists every worker the coordinator has seen (live and
// lost), in registration order.
func (c *Coordinator) WorkersStatus() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	out := make([]WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerStatus{
			ID: w.id, Name: w.name, Host: w.host, PID: w.pid, Slots: w.slots,
			Live:           !w.gone,
			LastSeenSecAgo: now.Sub(w.lastSeen).Seconds(),
			InflightLeases: len(w.leases),
			Completed:      w.completed,
			Retried:        w.retried,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
