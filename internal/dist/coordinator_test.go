package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/shardcache"
)

// testEnv is a coordinator served over real HTTP.
type testEnv struct {
	c  *Coordinator
	ts *httptest.Server
}

func newTestEnv(t *testing.T, cfg Config) *testEnv {
	t.Helper()
	c := NewCoordinator(cfg)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	return &testEnv{c: c, ts: ts}
}

// rawWorker drives the wire protocol by hand — the controllable half of
// the fault-injection tests (it heartbeats only when told to, can vanish
// mid-lease, can return leases late).
type rawWorker struct {
	t    *testing.T
	base string
	id   string
}

func (e *testEnv) register(t *testing.T, name string, slots int) *rawWorker {
	t.Helper()
	w := &rawWorker{t: t, base: e.ts.URL}
	var resp registerResponse
	w.post("/dist/v1/register", registerRequest{Name: name, Slots: slots}, &resp, http.StatusOK)
	if resp.WorkerID == "" {
		t.Fatalf("register returned empty worker_id")
	}
	w.id = resp.WorkerID
	return w
}

// post sends one protocol request and asserts the response status,
// decoding the body into resp when the status is 200.
func (w *rawWorker) post(path string, req, resp any, wantStatus int) *errorResponse {
	w.t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		w.t.Fatalf("marshal: %v", err)
	}
	hres, err := http.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		w.t.Fatalf("POST %s: %v", path, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != wantStatus {
		var er errorResponse
		_ = json.NewDecoder(hres.Body).Decode(&er)
		w.t.Fatalf("POST %s: status %d (code %q: %s), want %d", path, hres.StatusCode, er.Code, er.Error, wantStatus)
	}
	if hres.StatusCode != http.StatusOK {
		var er errorResponse
		_ = json.NewDecoder(hres.Body).Decode(&er)
		return &er
	}
	if resp != nil {
		if err := json.NewDecoder(hres.Body).Decode(resp); err != nil {
			w.t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return nil
}

// postStatus sends a request expecting a protocol error and returns its
// code.
func (w *rawWorker) postCode(path string, req any, wantStatus int) string {
	w.t.Helper()
	body, _ := json.Marshal(req)
	hres, err := http.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		w.t.Fatalf("POST %s: %v", path, err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != wantStatus {
		w.t.Fatalf("POST %s: status %d, want %d", path, hres.StatusCode, wantStatus)
	}
	var er errorResponse
	_ = json.NewDecoder(hres.Body).Decode(&er)
	return er.Code
}

// lease polls once with the given wait and returns the granted task (nil
// on an empty poll).
func (w *rawWorker) lease(waitMS int64) *TaskSpec {
	w.t.Helper()
	var resp leaseResponse
	w.post("/dist/v1/lease", leaseRequest{WorkerID: w.id, WaitMillis: waitMS}, &resp, http.StatusOK)
	if len(resp.Tasks) == 0 {
		return nil
	}
	return &resp.Tasks[0]
}

// leaseUntil polls until a task is granted or the deadline passes.
func (w *rawWorker) leaseUntil(d time.Duration) *TaskSpec {
	w.t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if t := w.lease(100); t != nil {
			return t
		}
	}
	w.t.Fatalf("no task leased within %v", d)
	return nil
}

func (w *rawWorker) complete(spec *TaskSpec, out any) {
	w.t.Helper()
	enc, err := shardcache.EncodeOutput(out)
	if err != nil {
		w.t.Fatalf("encode output: %v", err)
	}
	w.post("/dist/v1/complete", completeRequest{WorkerID: w.id, TaskID: spec.ID, Output: enc, DurNS: 1000}, nil, http.StatusOK)
}

// keepAlive heartbeats for a worker in the background so it stays live
// without leasing anything; the returned stop function ends it.
func (w *rawWorker) keepAlive(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			case <-time.After(interval):
			}
			body, _ := json.Marshal(heartbeatRequest{WorkerID: w.id})
			if hres, err := http.Post(w.base+"/dist/v1/heartbeat", "application/json", bytes.NewReader(body)); err == nil {
				hres.Body.Close()
			}
		}
	}()
	return func() { close(done) }
}

// shardTask builds a synthetic ShardTask whose local thunk returns
// localOut; the Ref is well-formed but tests using raw workers never
// execute it.
func shardTask(configIndex, shard int, localOut any) core.ShardTask {
	return core.ShardTask{
		Ref:         core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: shard},
		ConfigIndex: configIndex,
		Shards:      shard + 1,
		Label:       fmt.Sprintf("s%d", shard),
		Run:         func() (any, error) { return localOut, nil },
	}
}

// runShardAsync launches RunShard and returns a channel with its outcome.
type shardOutcome struct {
	out    any
	origin string
	err    error
}

func runShardAsync(c *Coordinator, st core.ShardTask) <-chan shardOutcome {
	ch := make(chan shardOutcome, 1)
	go func() {
		out, origin, err := c.RunShard(st)
		ch <- shardOutcome{out, origin, err}
	}()
	return ch
}

func waitOutcome(t *testing.T, ch <-chan shardOutcome) shardOutcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(10 * time.Second):
		t.Fatalf("RunShard did not return")
		return shardOutcome{}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestLeaseExecuteComplete(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "alpha", 2)

	// Empty poll before any work exists.
	if task := w.lease(50); task != nil {
		t.Fatalf("leased %v from an empty queue", task)
	}

	ch := runShardAsync(env.c, shardTask(0, 3, nil))

	spec := w.leaseUntil(5 * time.Second)
	if spec.Ref.Exp != "tab1" || spec.Ref.Shard != 3 {
		t.Fatalf("leased ref %+v, want tab1 shard 3", spec.Ref)
	}
	if got := env.c.LeasesInflight(); got != 1 {
		t.Fatalf("LeasesInflight = %d, want 1", got)
	}
	w.complete(spec, 42.5)

	o := waitOutcome(t, ch)
	if o.err != nil {
		t.Fatalf("RunShard error: %v", o.err)
	}
	if o.out != 42.5 {
		t.Fatalf("RunShard out = %v (%T), want 42.5", o.out, o.out)
	}
	if o.origin != "alpha" {
		t.Fatalf("RunShard origin = %q, want alpha", o.origin)
	}
	if got := env.c.LeasesInflight(); got != 0 {
		t.Fatalf("LeasesInflight after completion = %d, want 0", got)
	}
}

// TestRepeatedCompletionIsStale: a completion repeated after the first
// was accepted (a retried delivery whose response was lost) is answered
// 410 stale_lease, and the shard keeps the first completion's output.
func TestRepeatedCompletionIsStale(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "alpha", 1)
	ch := runShardAsync(env.c, shardTask(0, 0, nil))

	spec := w.leaseUntil(5 * time.Second)
	w.complete(spec, 7.0)
	enc, _ := shardcache.EncodeOutput(9.0)
	code := w.postCode("/dist/v1/complete",
		completeRequest{WorkerID: w.id, TaskID: spec.ID, Output: enc}, http.StatusGone)
	if code != codeStaleLease {
		t.Fatalf("repeated completion code = %q, want %q", code, codeStaleLease)
	}
	if o := waitOutcome(t, ch); o.out != 7.0 || o.origin != "alpha" || o.err != nil {
		t.Fatalf("outcome = %+v, want the first completion's 7.0 from alpha", o)
	}
	if got := shardsCompleted(env.c, "alpha"); got != 1 {
		t.Fatalf("worker alpha completed %d shards, want 1", got)
	}
}

// TestNoTaskRecordAfterRunShard: a task is held by the pending queue or by
// its worker's leases and by nothing else, so once RunShard returns the
// coordinator keeps no record of it, whether the shard ran remotely or
// locally.
func TestNoTaskRecordAfterRunShard(t *testing.T) {
	records := func(c *Coordinator) int {
		c.mu.Lock()
		defer c.mu.Unlock()
		n := len(c.pending)
		for _, w := range c.workers {
			n += len(w.leases)
		}
		return n
	}
	env := newTestEnv(t, Config{LeaseTTL: time.Minute})

	// Local: no worker is registered, so the calling goroutine runs it.
	if o := waitOutcome(t, runShardAsync(env.c, shardTask(0, 0, 2.5))); o.out != 2.5 || o.origin != "" {
		t.Fatalf("local outcome = %+v, want local 2.5", o)
	}
	if n := records(env.c); n != 0 {
		t.Fatalf("%d task record(s) left after a local RunShard returned", n)
	}

	// Remote: a worker leases and completes it.
	w := env.register(t, "remote", 1)
	ch := runShardAsync(env.c, shardTask(0, 1, nil))
	spec := w.leaseUntil(5 * time.Second)
	w.complete(spec, 3.5)
	if o := waitOutcome(t, ch); o.out != 3.5 || o.origin != "remote" {
		t.Fatalf("remote outcome = %+v, want 3.5 from remote", o)
	}
	if n := records(env.c); n != 0 {
		t.Fatalf("%d task record(s) left after a remote RunShard returned", n)
	}
}

func TestLeaseExpiryRetriesOnSurvivor(t *testing.T) {
	env := newTestEnv(t, Config{LeaseTTL: 200 * time.Millisecond, RetryBackoff: 5 * time.Millisecond})
	dead := env.register(t, "doomed", 1)
	// The survivor is registered (and heartbeating) before the loss, so
	// the pool never empties and the shard cannot fall back to local
	// execution — it must be retried remotely.
	survivor := env.register(t, "survivor", 1)
	stopHB := survivor.keepAlive(40 * time.Millisecond)
	defer stopHB()
	ch := runShardAsync(env.c, shardTask(0, 0, nil))

	spec := dead.lease(2000)
	if spec == nil {
		t.Fatalf("doomed worker got no lease")
	}
	// "doomed" goes silent; the janitor must expire it and re-queue the
	// shard for the survivor.
	waitFor(t, "doomed worker expiry", func() bool { return env.c.RetriesTotal() == 1 })

	spec2 := survivor.leaseUntil(5 * time.Second)
	if spec2.ID != spec.ID {
		t.Fatalf("survivor leased %q, want re-queued %q", spec2.ID, spec.ID)
	}
	survivor.complete(spec2, 1.25)
	o := waitOutcome(t, ch)
	if o.out != 1.25 || o.origin != "survivor" {
		t.Fatalf("outcome = %+v, want 1.25 from survivor", o)
	}

	// The dead worker coming back to return its expired lease is rejected
	// with stale_lease: exactly one completion ever lands.
	enc, _ := shardcache.EncodeOutput(99.0)
	code := dead.postCode("/dist/v1/complete",
		completeRequest{WorkerID: dead.id, TaskID: spec.ID, Output: enc}, http.StatusGone)
	if code != codeStaleLease {
		t.Fatalf("expired worker's completion code = %q, want %q", code, codeStaleLease)
	}
	// And its next lease attempt tells it to re-register.
	code = dead.postCode("/dist/v1/lease", leaseRequest{WorkerID: dead.id}, http.StatusNotFound)
	if code != codeUnknownWorker {
		t.Fatalf("expired worker's lease code = %q, want %q", code, codeUnknownWorker)
	}
}

func TestStaleLeaseAfterLocalReclaim(t *testing.T) {
	// A lease that expired and was then executed locally (no surviving
	// workers) must also reject the late completion.
	env := newTestEnv(t, Config{LeaseTTL: 150 * time.Millisecond, RetryBackoff: time.Millisecond})
	w := env.register(t, "flaky", 1)
	ch := runShardAsync(env.c, shardTask(0, 0, 3.5))

	spec := w.lease(2000)
	if spec == nil {
		t.Fatalf("no lease granted")
	}
	// Worker goes silent → expiry → no live workers remain → the waiting
	// scheduler goroutine reclaims the shard and runs it locally.
	o := waitOutcome(t, ch)
	if o.out != 3.5 || o.origin != "" || o.err != nil {
		t.Fatalf("outcome = %+v, want local 3.5", o)
	}
	enc, _ := shardcache.EncodeOutput(99.0)
	code := w.postCode("/dist/v1/complete",
		completeRequest{WorkerID: w.id, TaskID: spec.ID, Output: enc}, http.StatusGone)
	if code != codeStaleLease {
		t.Fatalf("completion code = %q, want %q", code, codeStaleLease)
	}
}

func TestDeregisterRelinquishesImmediately(t *testing.T) {
	// Long TTL: if re-queueing waited for heartbeat expiry this test would
	// time out, so a pass proves deregister hands leases back immediately.
	env := newTestEnv(t, Config{LeaseTTL: time.Minute})
	quitter := env.register(t, "quitter", 1)
	// Registered up front so the pool stays non-empty across the
	// deregistration and the shard cannot be reclaimed locally.
	successor := env.register(t, "successor", 1)
	ch := runShardAsync(env.c, shardTask(0, 0, nil))

	spec := quitter.lease(2000)
	if spec == nil {
		t.Fatalf("no lease granted")
	}
	quitter.post("/dist/v1/deregister", deregisterRequest{WorkerID: quitter.id}, nil, http.StatusOK)

	spec2 := successor.leaseUntil(5 * time.Second)
	if spec2.ID != spec.ID {
		t.Fatalf("successor leased %q, want relinquished %q", spec2.ID, spec.ID)
	}
	// Graceful relinquishment is not a fault: no retry is counted and the
	// shard carries no backoff penalty.
	if got := env.c.RetriesTotal(); got != 0 {
		t.Fatalf("RetriesTotal after graceful deregister = %d, want 0", got)
	}
	successor.complete(spec2, 8.0)
	if o := waitOutcome(t, ch); o.out != 8.0 || o.origin != "successor" {
		t.Fatalf("outcome = %+v, want 8.0 from successor", o)
	}
}

// TestLocalFallbackWithoutWorkers: with no fleet the calling goroutine
// runs the task's own thunk — exactly once, in-process, with no origin.
func TestLocalFallbackWithoutWorkers(t *testing.T) {
	env := newTestEnv(t, Config{})
	var runs atomic.Int32
	st := shardTask(0, 0, nil)
	st.Run = func() (any, error) { runs.Add(1); return 11.0, nil }
	o := waitOutcome(t, runShardAsync(env.c, st))
	if o.out != 11.0 || o.origin != "" || o.err != nil {
		t.Fatalf("outcome = %+v, want local 11.0", o)
	}
	if n := runs.Load(); n != 1 {
		t.Fatalf("task thunk ran %d times, want 1", n)
	}
}

func TestExhaustedRetriesPinLocal(t *testing.T) {
	env := newTestEnv(t, Config{
		LeaseTTL: 120 * time.Millisecond, MaxRetries: 1, RetryBackoff: time.Millisecond,
	})
	// A healthy worker keeps the pool non-empty for the whole test — it
	// heartbeats but never leases, so local reclamation can only happen
	// through the exhausted-retries pin, not through an empty pool.
	healthy := env.register(t, "healthy", 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
			}
			body, _ := json.Marshal(heartbeatRequest{WorkerID: healthy.id})
			if hres, err := http.Post(healthy.base+"/dist/v1/heartbeat", "application/json", bytes.NewReader(body)); err == nil {
				hres.Body.Close()
			}
		}
	}()

	ch := runShardAsync(env.c, shardTask(0, 0, 5.5))

	// Two generations of workers lease the shard and die. After the
	// second loss (attempts 2 > MaxRetries 1) the shard is pinned local —
	// even though the healthy worker is still connected. Each casualty
	// heartbeats until it holds its lease, so on a loaded host it cannot
	// expire between registering and its first poll; it falls silent
	// only once the lease is out.
	for i := 0; i < 2; i++ {
		w := env.register(t, fmt.Sprintf("casualty-%d", i), 1)
		stopHB := w.keepAlive(30 * time.Millisecond)
		spec := w.leaseUntil(5 * time.Second)
		stopHB()
		if spec == nil {
			t.Fatalf("casualty %d got no lease", i)
		}
		waitFor(t, "worker expiry", func() bool { return env.c.RetriesTotal() == i+1 })
	}
	o := waitOutcome(t, ch)
	if o.out != 5.5 || o.origin != "" || o.err != nil {
		t.Fatalf("outcome = %+v, want local 5.5 after exhausted retries", o)
	}
}

// TestLeaseGrantsOldestEligibleFirst: placement is plain FIFO over the
// eligible tasks. A worker that already served configuration 1 is still
// granted the older configuration-0 task first, and a task waiting out its
// retry backoff at the head of the queue is passed over for younger
// eligible ones.
func TestLeaseGrantsOldestEligibleFirst(t *testing.T) {
	env := newTestEnv(t, Config{LeaseTTL: 120 * time.Millisecond, RetryBackoff: time.Minute})
	w := env.register(t, "fifo", 1)
	defer w.keepAlive(30 * time.Millisecond)()

	// The worker serves a shard of configuration 1.
	ch0 := runShardAsync(env.c, shardTask(1, 0, nil))
	spec := w.leaseUntil(5 * time.Second)
	w.complete(spec, 0.0)
	waitOutcome(t, ch0)

	// Shard 1 is lost with a worker that vanished holding it: it goes back
	// to the queue, ineligible for a minute.
	chLost := runShardAsync(env.c, shardTask(0, 1, 1.0))
	lost := env.register(t, "lost", 1)
	if spec := lost.leaseUntil(5 * time.Second); spec.Ref.Shard != 1 {
		t.Fatalf("lost worker leased shard %d, want 1", spec.Ref.Shard)
	}
	waitFor(t, "lost worker expiry", func() bool { return env.c.RetriesTotal() == 1 })

	// Queue a configuration-0 shard, then a configuration-1 shard.
	chA := runShardAsync(env.c, shardTask(0, 2, nil))
	waitFor(t, "shard 2 queued", func() bool { return env.c.PendingTasks() == 2 })
	chB := runShardAsync(env.c, shardTask(1, 3, nil))
	waitFor(t, "shard 3 queued", func() bool { return env.c.PendingTasks() == 3 })

	// One poll grants both (the worker may hold 2 × its one slot), oldest
	// eligible first.
	specs := w.leaseBatch(2000)
	if len(specs) != 2 || specs[0].Ref.Shard != 2 || specs[1].Ref.Shard != 3 {
		t.Fatalf("lease granted %+v, want shards 2 then 3 (oldest eligible first)", specs)
	}
	for i := range specs {
		w.complete(&specs[i], float64(specs[i].Ref.Shard))
	}
	waitOutcome(t, chA)
	waitOutcome(t, chB)

	// With the last worker gone, the backed-off shard is reclaimed for
	// local execution.
	w.post("/dist/v1/deregister", deregisterRequest{WorkerID: w.id}, nil, http.StatusOK)
	if o := waitOutcome(t, chLost); o.out != 1.0 || o.origin != "" {
		t.Fatalf("backed-off shard outcome = %+v, want local 1.0", o)
	}
}

func TestWorkersStatusAndCounters(t *testing.T) {
	env := newTestEnv(t, Config{LeaseTTL: time.Minute})
	a := env.register(t, "a", 2)
	env.register(t, "b", 3)
	if got := env.c.WorkersConnected(); got != 2 {
		t.Fatalf("WorkersConnected = %d, want 2", got)
	}
	if got := env.c.PoolSize(4); got != 9 {
		t.Fatalf("PoolSize(4) = %d, want 9 (4 local + 2 + 3)", got)
	}
	ch := runShardAsync(env.c, shardTask(0, 0, nil))
	spec := a.leaseUntil(5 * time.Second)
	a.complete(spec, 1.0)
	waitOutcome(t, ch)

	if got := shardsCompleted(env.c, "a"); got != 1 {
		t.Fatalf("worker a completed %d shards, want 1", got)
	}
	if got := shardsCompleted(env.c, "b"); got != 0 {
		t.Fatalf("worker b completed %d shards, want 0", got)
	}
	if got := env.c.LeasesInflight(); got != 0 {
		t.Fatalf("LeasesInflight = %d after the only lease completed, want 0", got)
	}
}

// shardsCompleted reads the named worker's accepted-completion count, the
// figure the coordinator logs when the worker deregisters.
func shardsCompleted(c *Coordinator, name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.name == name {
			return w.completed
		}
	}
	return 0
}

func TestHandlerRejectsOversizedBody(t *testing.T) {
	env := newTestEnv(t, Config{})
	// A syntactically valid request whose string field runs past the cap:
	// the decoder keeps reading until MaxBytesReader trips, and the
	// handler must answer 413, not a generic 400.
	body := append([]byte(`{"name":"`), bytes.Repeat([]byte("x"), maxBodyBytes)...)
	body = append(body, '"', '}')
	hres, err := http.Post(env.ts.URL+"/dist/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST register: %v", err)
	}
	defer hres.Body.Close()
	if hres.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized register status = %d, want %d", hres.StatusCode, http.StatusRequestEntityTooLarge)
	}
	var er errorResponse
	if err := json.NewDecoder(hres.Body).Decode(&er); err != nil {
		t.Fatalf("decode 413 body: %v", err)
	}
	if !strings.Contains(er.Error, "byte limit") {
		t.Fatalf("413 error = %q, want it to name the byte limit", er.Error)
	}
}

func TestOutputCodecRoundTrip(t *testing.T) {
	cases := []any{
		nil,
		3.141592653589793,
		[]float64{1.5, -2.25, 0},
		&core.Result{ID: "x", Title: "t", Metrics: map[string]float64{"m": 1.5}},
		map[string]float64{"k": 2.5},
	}
	for _, in := range cases {
		enc, err := shardcache.EncodeOutput(in)
		if err != nil {
			t.Fatalf("encode %T: %v", in, err)
		}
		out, err := shardcache.DecodeOutput(enc)
		if err != nil {
			t.Fatalf("decode %T: %v", in, err)
		}
		switch v := in.(type) {
		case *core.Result:
			got, ok := out.(*core.Result)
			if !ok || got.ID != v.ID || got.Metrics["m"] != v.Metrics["m"] {
				t.Fatalf("round trip %T: got %#v", in, out)
			}
		case []float64:
			got, ok := out.([]float64)
			if !ok || len(got) != len(v) {
				t.Fatalf("round trip %T: got %#v", in, out)
			}
			for i := range v {
				if got[i] != v[i] {
					t.Fatalf("round trip []float64[%d]: %v != %v", i, got[i], v[i])
				}
			}
		case map[string]float64:
			got, ok := out.(map[string]float64)
			if !ok || len(got) != len(v) || got["k"] != v["k"] {
				t.Fatalf("round trip %T: got %#v", in, out)
			}
		default:
			if out != in {
				t.Fatalf("round trip %T: got %#v, want %#v", in, out, in)
			}
		}
	}
}

func TestUnregisteredOutputTypeFailsShardLoudly(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := shardcache.EncodeOutput(unregistered{X: 1}); err == nil {
		t.Fatalf("encoding an unregistered type succeeded; want an error")
	}
}
