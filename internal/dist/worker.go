// The worker client: what `zen2eed -worker http://coordinator:port` runs.
// A worker registers, then drives a pipeline against the coordinator: one
// fetcher long-polls for task batches (the coordinator sizes each grant
// from the registered slot count), N slot goroutines execute them
// concurrently, and completion posters report results independently of
// execution — so neither the lease round trip nor the completion round
// trip is paid once per shard per slot. A heartbeat runs in the
// background for the whole lifetime (including while executing — a long
// shard must not read as a lost worker). Shutdown is graceful by
// construction: cancelling the run context stops new leases immediately
// (the in-flight long-poll is cancelled), in-flight executions finish and
// their completions flush within a drain bound, and the final deregister
// relinquishes anything still held — leased-but-unstarted batch tasks
// included — so the coordinator re-queues it without waiting for
// heartbeat expiry.

package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/shardcache"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (scheme://host:port).
	Coordinator string
	// Name identifies the worker in the coordinator's logs and in trace
	// attribution; defaults to the coordinator-assigned ID.
	Name string
	// Host is reported in the coordinator's registration log line.
	Host string
	// PID is reported in the coordinator's registration log line.
	PID int
	// Slots is the number of shards executed concurrently (default 1).
	Slots int
	// Execute runs one leased task. Default: core.ExecuteShardRef on the
	// task's shard reference — the production path. Tests inject stubs.
	Execute func(TaskSpec) (any, error)
	// DrainTimeout bounds how long shutdown waits for in-flight shards to
	// finish before relinquishing them via deregister (default 30s).
	DrainTimeout time.Duration
	// Logger receives lifecycle events; nil discards.
	Logger *slog.Logger
}

// Worker is a running pool member. Create with NewWorker; Run blocks until
// the context is cancelled and the drain completes.
type Worker struct {
	cfg    WorkerConfig
	base   string
	client *http.Client
	log    *slog.Logger

	// mu guards the registration the fetcher writes and the heartbeat
	// loop and completion posters read.
	mu        sync.Mutex
	id        string
	heartbeat time.Duration
}

// NewWorker validates the configuration and builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	u, err := url.Parse(cfg.Coordinator)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("dist: coordinator URL %q is not absolute (want http://host:port)", cfg.Coordinator)
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Execute == nil {
		cfg.Execute = func(t TaskSpec) (any, error) { return core.ExecuteShardRef(t.Ref) }
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	// The client has no global timeout (lease long-polls are bounded per
	// request). The default http.Transport keeps 2 idle connections per
	// host — under Slots concurrent completions plus the fetcher and the
	// heartbeat, everything past the first two would re-dial on every
	// request — so the idle pool is sized to the worker's concurrency.
	tr := http.DefaultTransport.(*http.Transport).Clone()
	conns := cfg.Slots + 2 // completion posters + fetcher + heartbeat
	tr.MaxIdleConnsPerHost = conns
	if tr.MaxIdleConns < conns {
		tr.MaxIdleConns = conns
	}
	return &Worker{
		cfg:    cfg,
		base:   strings.TrimRight(cfg.Coordinator, "/"),
		client: &http.Client{Transport: tr},
		log:    cfg.Logger,
	}, nil
}

// protoError is a non-2xx protocol response.
type protoError struct {
	status int
	code   string
	msg    string
}

func (e *protoError) Error() string {
	return fmt.Sprintf("dist: coordinator returned %d (%s): %s", e.status, e.code, e.msg)
}

func isCode(err error, code string) bool {
	var pe *protoError
	return errors.As(err, &pe) && pe.code == code
}

// post sends one JSON request/response round trip.
func (w *Worker) post(ctx context.Context, path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	hres, err := w.client.Do(hr)
	if err != nil {
		return err
	}
	defer hres.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hres.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if hres.StatusCode != http.StatusOK {
		var er errorResponse
		_ = json.Unmarshal(data, &er)
		return &protoError{status: hres.StatusCode, code: er.Code, msg: er.Error}
	}
	if resp == nil {
		return nil
	}
	return json.Unmarshal(data, resp)
}

// register (re-)registers the worker, retrying transport failures with
// backoff until the context is cancelled.
func (w *Worker) register(ctx context.Context) error {
	req := registerRequest{
		Name: w.cfg.Name, Host: w.cfg.Host, PID: w.cfg.PID, Slots: w.cfg.Slots,
	}
	backoff := 200 * time.Millisecond
	for {
		var resp registerResponse
		err := w.post(ctx, "/dist/v1/register", req, &resp)
		if err == nil {
			w.mu.Lock()
			w.id = resp.WorkerID
			w.heartbeat = time.Duration(resp.HeartbeatMillis) * time.Millisecond
			if w.heartbeat <= 0 {
				w.heartbeat = time.Second
			}
			w.mu.Unlock()
			w.log.Info("dist: registered with coordinator", "coordinator", w.base,
				"worker_id", resp.WorkerID, "heartbeat", w.heartbeat)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.log.Warn("dist: registration failed, retrying", "err", err, "backoff", backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

func (w *Worker) heartbeatInterval() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.heartbeat
}

// completion is one finished task on its way to the coordinator.
type completion struct {
	task       TaskSpec
	out        any
	err        error
	startDelta time.Duration
	dur        time.Duration
}

// Run executes the worker until ctx is cancelled, then drains: in-flight
// shards finish and their completions flush (bounded by DrainTimeout), and
// a final deregister relinquishes anything left — including batch-leased
// tasks that never started — so the coordinator re-queues it immediately.
// The returned error is non-nil only when the initial registration never
// succeeded.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return fmt.Errorf("dist: registering with %s: %w", w.base, err)
	}

	// Heartbeats outlive ctx: they must keep the worker alive while
	// in-flight shards drain after cancellation.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		w.heartbeatLoop(hbStop)
	}()

	// The pipeline: fetcher → tasks → slot executors → completions →
	// posters. The coordinator grants up to 2 × Slots leases held, one
	// executing per slot plus a Slots-deep buffer: tasks holds that buffer
	// so a full grant is absorbed while the slots start, and completions
	// holds every lease a worker can hold so a slot never waits on a
	// completion round trip before starting its next task.
	tasks := make(chan TaskSpec, w.cfg.Slots)
	completions := make(chan completion, 2*w.cfg.Slots)

	go w.fetchLoop(ctx, tasks)

	var slots sync.WaitGroup
	for i := 0; i < w.cfg.Slots; i++ {
		slots.Add(1)
		go func(slot int) {
			defer slots.Done()
			w.slotLoop(ctx, slot, tasks, completions)
		}(i)
	}
	// The completion channel closes strictly after the last executor is
	// done sending — even past a drain timeout, so a shard that unsticks
	// late still flows through (and is dropped as stale) instead of
	// panicking on a closed channel.
	go func() {
		slots.Wait()
		close(completions)
	}()
	var posters sync.WaitGroup
	for i := 0; i < w.cfg.Slots; i++ {
		posters.Add(1)
		go func() {
			defer posters.Done()
			for comp := range completions {
				w.complete(comp.task, comp.out, comp.err, comp.startDelta, comp.dur)
			}
		}()
	}
	drained := make(chan struct{})
	go func() {
		posters.Wait()
		close(drained)
	}()

	select {
	case <-drained:
	case <-ctx.Done():
		w.log.Info("dist: draining (finishing in-flight shards)", "timeout", w.cfg.DrainTimeout)
		select {
		case <-drained:
		case <-time.After(w.cfg.DrainTimeout):
			w.log.Warn("dist: drain timeout; relinquishing remaining leases")
		}
	}
	close(hbStop)
	hbWG.Wait()

	// Graceful exit: hand back anything still leased right now.
	dctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.post(dctx, "/dist/v1/deregister", deregisterRequest{WorkerID: w.workerID()}, nil); err != nil {
		w.log.Warn("dist: deregister failed", "err", err)
	} else {
		w.log.Info("dist: deregistered")
	}
	return nil
}

func (w *Worker) heartbeatLoop(stop <-chan struct{}) {
	for {
		interval := w.heartbeatInterval()
		select {
		case <-stop:
			return
		case <-time.After(interval):
		}
		ctx, cancel := context.WithTimeout(context.Background(), interval)
		err := w.post(ctx, "/dist/v1/heartbeat", heartbeatRequest{WorkerID: w.workerID()}, nil)
		cancel()
		if err != nil && !isCode(err, codeUnknownWorker) {
			w.log.Debug("dist: heartbeat failed", "err", err)
		}
		// unknown_worker here means the coordinator expired us; the
		// fetcher will hit the same code on its next lease and re-register.
	}
}

// fetchLoop is the single lease poller, and so the only goroutine that
// re-registers: each round trip takes whatever the coordinator grants (it
// keeps the worker within 2 × Slots leases held) and feeds the grants to
// the slot executors. New leases stop the moment ctx is cancelled (the
// long-poll aborts); grants the buffer still holds then are relinquished
// by the final deregister.
func (w *Worker) fetchLoop(ctx context.Context, tasks chan<- TaskSpec) {
	backoff := 100 * time.Millisecond
	for ctx.Err() == nil {
		var resp leaseResponse
		err := w.post(ctx, "/dist/v1/lease",
			leaseRequest{WorkerID: w.workerID(), WaitMillis: 2000}, &resp)
		switch {
		case err == nil:
			backoff = 100 * time.Millisecond
		case ctx.Err() != nil:
			return
		case isCode(err, codeUnknownWorker):
			// Expired (a stall, a coordinator restart): rejoin the pool.
			w.log.Warn("dist: lease rejected (unknown worker), re-registering")
			if w.register(ctx) != nil {
				return
			}
			continue
		default:
			// Transport trouble: back off, retry.
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > 2*time.Second {
				backoff = 2 * time.Second
			}
			continue
		}
		for _, t := range resp.Tasks {
			select {
			case tasks <- t:
			case <-ctx.Done():
				return
			}
		}
	}
}

// slotLoop is one execution slot: take a leased task, execute, hand the
// result to the completion posters, repeat. An execution already started
// always runs to completion and reports, but a task still buffered when
// the drain begins is left to the deregister relinquish instead of being
// started late.
func (w *Worker) slotLoop(ctx context.Context, slot int, tasks <-chan TaskSpec, completions chan<- completion) {
	for {
		var t TaskSpec
		select {
		case <-ctx.Done():
			return
		case t = <-tasks:
		}
		if ctx.Err() != nil {
			return
		}
		leased := time.Now()
		w.log.Debug("dist: leased shard", "slot", slot, "task", t.ID, "ref", t.Ref.String())
		start := time.Now()
		out, execErr := w.execute(t)
		completions <- completion{
			task: t, out: out, err: execErr,
			startDelta: start.Sub(leased), dur: time.Since(start),
		}
	}
}

// execute runs one task, panic-guarded: a broken shard fails its lease,
// never the worker.
func (w *Worker) execute(t TaskSpec) (out any, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return w.cfg.Execute(t)
}

// complete reports a finished task, retrying transport failures a few
// times; a stale-lease rejection (the coordinator moved on) drops the
// result silently — by then another worker owns the shard.
func (w *Worker) complete(t TaskSpec, out any, execErr error, startDelta, dur time.Duration) {
	req := completeRequest{
		WorkerID:     w.workerID(),
		TaskID:       t.ID,
		StartDeltaNS: startDelta.Nanoseconds(),
		DurNS:        dur.Nanoseconds(),
	}
	if execErr != nil {
		req.Error = execErr.Error()
	} else {
		enc, err := shardcache.EncodeOutput(out)
		if err != nil {
			// An unencodable output type fails the shard explicitly; see
			// the registered types in shardcache's codec.
			req.Error = fmt.Sprintf("dist: encoding shard output (%T): %v — register the type in shardcache's codec", out, err)
		} else {
			req.Output = enc
		}
	}
	for attempt := 0; attempt < 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := w.post(ctx, "/dist/v1/complete", req, nil)
		cancel()
		switch {
		case err == nil:
			return
		case isCode(err, codeStaleLease), isCode(err, codeUnknownWorker):
			w.log.Debug("dist: completion rejected", "task", t.ID, "err", err)
			return
		}
		w.log.Warn("dist: completion failed, retrying", "task", t.ID, "err", err)
		time.Sleep(200 * time.Millisecond)
	}
	w.log.Error("dist: dropping completion after retries", "task", t.ID)
}
