package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"zen2ee/internal/shardcache"
)

// startWorker runs an in-process Worker against the env and returns a
// cancel function plus a channel closed when Run returns.
func startWorker(t *testing.T, env *testEnv, cfg WorkerConfig) (cancel func(), done <-chan struct{}) {
	t.Helper()
	cfg.Coordinator = env.ts.URL
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	ch := make(chan struct{})
	go func() {
		defer close(ch)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker Run: %v", err)
		}
	}()
	t.Cleanup(func() {
		stop()
		<-ch
	})
	return stop, ch
}

func TestWorkerExecutesLeasedShards(t *testing.T) {
	env := newTestEnv(t, Config{})
	startWorker(t, env, WorkerConfig{
		Name: "stub", Slots: 2,
		Execute: func(ts TaskSpec) (any, error) { return float64(ts.Ref.Shard) * 2, nil },
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	for shard := 0; shard < 4; shard++ {
		o := waitOutcome(t, runShardAsync(h, shardTask(0, shard, nil)))
		if o.err != nil || o.out != float64(shard)*2 || o.origin != "stub" {
			t.Fatalf("shard %d outcome = %+v, want %v from stub", shard, o, float64(shard)*2)
		}
	}
}

func TestWorkerInvalidCoordinatorURL(t *testing.T) {
	if _, err := NewWorker(WorkerConfig{Coordinator: "not a url"}); err == nil {
		t.Fatalf("NewWorker accepted a relative coordinator URL")
	}
}

func TestWorkerGracefulDrainFinishesInflight(t *testing.T) {
	env := newTestEnv(t, Config{LeaseTTL: time.Minute})
	executing := make(chan struct{})
	release := make(chan struct{})
	cancel, done := startWorker(t, env, WorkerConfig{
		Name: "drainer", Slots: 1,
		Execute: func(TaskSpec) (any, error) {
			close(executing)
			<-release
			return 4.5, nil
		},
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	ch := runShardAsync(h, shardTask(0, 0, nil))
	<-executing

	// SIGTERM equivalent: cancel mid-execution. The worker must finish
	// the in-flight shard, complete it, and only then exit.
	cancel()
	select {
	case <-done:
		t.Fatalf("worker exited with a shard still executing")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("worker did not exit after its in-flight shard finished")
	}
	o := waitOutcome(t, ch)
	if o.out != 4.5 || o.origin != "drainer" || o.err != nil {
		t.Fatalf("outcome = %+v, want 4.5 from drainer (drained completion, not a re-queue)", o)
	}
	if got := env.c.WorkersConnected(); got != 0 {
		t.Fatalf("WorkersConnected after drain = %d, want 0 (deregistered)", got)
	}
}

func TestWorkerRelinquishesOnDrainTimeout(t *testing.T) {
	// The shard's local thunk is the fallback that must run after the
	// stuck worker relinquishes; TTL is a minute, so only the immediate
	// re-queue on deregister can unblock it in time.
	env := newTestEnv(t, Config{LeaseTTL: time.Minute})
	executing := make(chan struct{})
	hang := make(chan struct{})
	defer close(hang)
	cancel, done := startWorker(t, env, WorkerConfig{
		Name: "stuck", Slots: 1, DrainTimeout: 50 * time.Millisecond,
		Execute: func(TaskSpec) (any, error) {
			close(executing)
			<-hang
			return nil, nil
		},
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	ch := runShardAsync(h, shardTask(0, 0, 9.75))
	<-executing

	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("worker did not exit after drain timeout")
	}
	// Deregistration relinquished the lease; the pool is now empty, so
	// the waiting scheduler goroutine reclaims and runs the shard locally
	// — long before the one-minute lease TTL could have expired it.
	o := waitOutcome(t, ch)
	if o.out != 9.75 || o.origin != "" || o.err != nil {
		t.Fatalf("outcome = %+v, want local 9.75 after relinquish", o)
	}
	if got := env.c.RetriesTotal(); got != 0 {
		t.Fatalf("RetriesTotal = %d, want 0 (relinquish is not a fault)", got)
	}
}

func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	// A real coordinator restart: the process at the address dies and a
	// fresh one with an empty pool takes over. All four slot loops hit
	// unknown_worker near-simultaneously; the worker must rejoin as ONE
	// pool entry (not four duplicates) and resume executing remotely.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()

	coordA := NewCoordinator(Config{LeaseTTL: time.Minute})
	srvA := &http.Server{Handler: coordA.Handler()}
	go func() { _ = srvA.Serve(ln) }()

	w, err := NewWorker(WorkerConfig{
		Coordinator: "http://" + addr, Name: "phoenix", Slots: 4,
		Execute: func(ts TaskSpec) (any, error) { return float64(ts.Ref.Shard) + 0.5, nil },
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		if err := w.Run(ctx); err != nil {
			t.Errorf("worker Run: %v", err)
		}
	}()
	t.Cleanup(func() {
		stop()
		<-runDone
	})
	waitFor(t, "initial registration", func() bool { return coordA.WorkersConnected() == 1 })

	// Kill A outright, then bind a brand-new coordinator to the same
	// address — nothing of A's pool survives.
	_ = srvA.Close()
	coordA.Close()
	var ln2 net.Listener
	waitFor(t, "rebinding the coordinator address", func() bool {
		ln2, err = net.Listen("tcp", addr)
		return err == nil
	})
	coordB := NewCoordinator(Config{LeaseTTL: time.Minute})
	srvB := &http.Server{Handler: coordB.Handler()}
	go func() { _ = srvB.Serve(ln2) }()
	t.Cleanup(func() {
		stop()
		<-runDone // worker deregisters against B; stop it before B dies
		_ = srvB.Close()
		coordB.Close()
	})

	waitFor(t, "re-registration with the restarted coordinator", func() bool {
		return coordB.WorkersConnected() >= 1
	})

	// Remote execution resumes: run a few shards through B.
	h := coordB.StartRun(nil)
	defer h.Finish()
	for shard := 0; shard < 4; shard++ {
		o := waitOutcome(t, runShardAsync(h, shardTask(0, shard, nil)))
		if o.err != nil || o.out != float64(shard)+0.5 || o.origin != "phoenix" {
			t.Fatalf("shard %d outcome = %+v, want %v from phoenix", shard, o, float64(shard)+0.5)
		}
	}
	// By now every slot loop has cycled through the new identity. The
	// rejoin must have landed exactly once: duplicates would inflate both
	// the worker count and the advertised pool width.
	if got := coordB.WorkersConnected(); got != 1 {
		t.Fatalf("WorkersConnected after restart = %d, want 1 (single re-registration)", got)
	}
	if got := coordB.PoolSize(0); got != 4 {
		t.Fatalf("PoolSize(0) after restart = %d, want 4", got)
	}
}

func TestWorkerReregistersAfterExpiry(t *testing.T) {
	env := newTestEnv(t, Config{LeaseTTL: 150 * time.Millisecond})
	startWorker(t, env, WorkerConfig{
		Name: "lazarus", Slots: 1,
		Execute: func(TaskSpec) (any, error) { return 1.5, nil },
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	// Force-expire the worker server-side (simulates a coordinator that
	// lost this worker's state: restart, expiry, partition). The client's
	// next lease poll gets unknown_worker and must re-register.
	env.c.mu.Lock()
	for _, w := range env.c.workers {
		env.c.dropWorkerLocked(w, true)
	}
	env.c.mu.Unlock()

	waitFor(t, "re-registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	o := waitOutcome(t, runShardAsync(h, shardTask(0, 0, nil)))
	if o.out != 1.5 || o.origin != "lazarus" {
		t.Fatalf("outcome = %+v, want 1.5 from re-registered lazarus", o)
	}
}

// TestWorkerSendsOutputsRaw: a worker posts every completion's output as
// the codec's encoding, large or small, and both arrive as the shard's
// output.
func TestWorkerSendsOutputsRaw(t *testing.T) {
	c := NewCoordinator(Config{})
	inner := c.Handler()
	var mu sync.Mutex
	var wire [][]byte // completion Output fields, in arrival order
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dist/v1/complete" {
			body, _ := io.ReadAll(r.Body)
			var req completeRequest
			if json.Unmarshal(body, &req) == nil {
				mu.Lock()
				wire = append(wire, req.Output)
				mu.Unlock()
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		c.Close()
	})
	env := &testEnv{c: c, ts: ts}

	big := make([]float64, 4096)
	for i := range big {
		big[i] = float64(i % 7)
	}
	startWorker(t, env, WorkerConfig{
		Name: "plain", Slots: 1,
		Execute: func(ts TaskSpec) (any, error) {
			if ts.Ref.Shard == 0 {
				return big, nil
			}
			return 1.5, nil
		},
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	if o := waitOutcome(t, runShardAsync(h, shardTask(0, 0, nil))); o.err != nil || !reflect.DeepEqual(o.out, big) {
		t.Fatalf("large output outcome: err %v, output equal: %v", o.err, reflect.DeepEqual(o.out, big))
	}
	if o := waitOutcome(t, runShardAsync(h, shardTask(0, 1, nil))); o.err != nil || o.out != 1.5 {
		t.Fatalf("small output outcome = %+v", o)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, out := range []any{big, 1.5} {
		enc, err := shardcache.EncodeOutput(out)
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(wire) || !bytes.Equal(wire[i], enc) {
			t.Fatalf("completion %d did not carry the codec encoding of %T on the wire", i, out)
		}
	}
}
