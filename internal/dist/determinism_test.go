// The determinism gate: a sweep split across 1, 2, and N workers — and a
// sweep that loses a worker mid-flight and retries its shards — must
// produce byte-identical sweep documents to the purely local run. These
// tests drive the full wire path (real HTTP, real workers executing
// core.ExecuteShardRef, gob outputs) against the real experiment registry.

package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
	"zen2ee/internal/shardcache"
)

// testSweep is small but representative: tab1 is a 9-shard planned
// experiment (per-shard RNG streams), sec6acpi a one-shard whole
// experiment whose *core.Result output exercises the struct side of the
// codec. Both are seed-free, so the configurations differ in scale: two
// seeds at one scale would share every shard.
func testSweep() core.Sweep {
	return core.Sweep{
		IDs: []string{"tab1", "sec6acpi"},
		Configs: []core.Config{
			{Scale: 0.25, Seed: 1},
			{Scale: 0.5, Seed: 2},
		},
	}
}

func marshalSweep(t *testing.T, sr *core.SweepResult) []byte {
	t.Helper()
	b, err := report.MarshalSweep(sr)
	if err != nil {
		t.Fatalf("MarshalSweep: %v", err)
	}
	return b
}

// localBaseline runs the sweep entirely in-process — the reference bytes.
func localBaseline(t *testing.T) []byte {
	t.Helper()
	sr, err := core.RunSweep(testSweep(), core.RunConfig{Workers: 4}, nil)
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	return marshalSweep(t, sr)
}

// runDistributed executes the sweep through a coordinator with n real
// workers attached, returning the sweep document bytes.
func runDistributed(t *testing.T, n int, tr *obs.Trace) ([]byte, *testEnv) {
	t.Helper()
	env := newTestEnv(t, Config{Trace: tr})
	for i := 0; i < n; i++ {
		startWorker(t, env, WorkerConfig{Name: fmt.Sprintf("fleet-%d", i), Slots: 2})
	}
	waitFor(t, "fleet registration", func() bool { return env.c.WorkersConnected() == n })

	sr, err := core.RunSweep(testSweep(), core.RunConfig{
		Workers: env.c.PoolSize(0), RunShard: env.c.RunShard, Trace: tr,
	}, nil)
	if err != nil {
		t.Fatalf("distributed sweep (%d workers): %v", n, err)
	}
	return marshalSweep(t, sr), env
}

func TestDistributedSweepByteIdenticalAcrossWorkerCounts(t *testing.T) {
	want := localBaseline(t)
	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			got, _ := runDistributed(t, n, nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("sweep document across %d workers differs from local run (%d vs %d bytes)",
					n, len(got), len(want))
			}
		})
	}
}

// victimWorker drives the protocol by hand and dies: it completes
// `completions` shards for real, then vanishes while holding at least one
// more lease — no completion, no heartbeat, no deregister — exactly what
// SIGKILL on a worker host looks like to the coordinator. Until then it
// heartbeats like a real worker, so only its death can expire it. dead
// closes when it stops, however it stops.
func victimWorker(base string, completions int, dead chan<- struct{}) {
	defer close(dead)
	post := func(path string, req, resp any) error {
		body, _ := json.Marshal(req)
		hres, err := http.Post(base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer hres.Body.Close()
		if hres.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", hres.StatusCode)
		}
		if resp != nil {
			return json.NewDecoder(hres.Body).Decode(resp)
		}
		return nil
	}
	var reg registerResponse
	if post("/dist/v1/register", registerRequest{Name: "victim", Slots: 1}, &reg) != nil {
		return
	}
	stopHeartbeat := make(chan struct{})
	defer close(stopHeartbeat)
	go func() {
		tick := time.NewTicker(time.Duration(reg.HeartbeatMillis) * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopHeartbeat:
				return
			case <-tick.C:
				_ = post("/dist/v1/heartbeat", heartbeatRequest{WorkerID: reg.WorkerID}, nil)
			}
		}
	}()
	var held []TaskSpec
	done := 0
	for {
		if len(held) == 0 {
			var lr leaseResponse
			if post("/dist/v1/lease", leaseRequest{WorkerID: reg.WorkerID, WaitMillis: 500}, &lr) != nil {
				return
			}
			held = lr.Tasks
			continue
		}
		if done >= completions {
			return // die holding these leases
		}
		task := held[0]
		held = held[1:]
		out, execErr := core.ExecuteShardRef(task.Ref)
		req := completeRequest{WorkerID: reg.WorkerID, TaskID: task.ID}
		if execErr != nil {
			req.Error = execErr.Error()
		} else {
			req.Output, _ = shardcache.EncodeOutput(out)
		}
		if post("/dist/v1/complete", req, nil) != nil {
			return
		}
		done++
	}
}

func TestDistributedSweepSurvivesWorkerKilledMidSweep(t *testing.T) {
	want := localBaseline(t)

	env := newTestEnv(t, Config{LeaseTTL: 300 * time.Millisecond, RetryBackoff: 10 * time.Millisecond})
	// The survivor is a real worker; the victim completes one shard, then
	// leases another and is "killed" while holding it. Both join before
	// the sweep starts so no shard ever falls back to local execution by
	// way of an empty pool. The survivor executes nothing until the victim
	// is dead: it holds at most 4 of the scheduler's 6 shards in flight,
	// so the victim always finds the leases it needs, however the two
	// race for the queue, and dies holding one.
	victimDead := make(chan struct{})
	startWorker(t, env, WorkerConfig{Name: "survivor", Slots: 2, Execute: func(ts TaskSpec) (any, error) {
		<-victimDead
		return core.ExecuteShardRef(ts.Ref)
	}})
	go victimWorker(env.ts.URL, 1, victimDead)
	waitFor(t, "both workers registered", func() bool { return env.c.WorkersConnected() == 2 })

	sr, err := core.RunSweep(testSweep(), core.RunConfig{
		Workers: 6, RunShard: env.c.RunShard,
	}, nil)
	if err != nil {
		t.Fatalf("distributed sweep with killed worker: %v", err)
	}
	got := marshalSweep(t, sr)
	if !bytes.Equal(got, want) {
		t.Fatalf("sweep document after worker loss differs from local run (%d vs %d bytes)", len(got), len(want))
	}
	if env.c.RetriesTotal() < 1 {
		t.Fatalf("RetriesTotal = %d, want >= 1 — the victim's held lease must have expired and been retried", env.c.RetriesTotal())
	}
}

func TestDistributedTraceOneMergedTimeline(t *testing.T) {
	want := localBaseline(t)
	tr := obs.New(0)
	got, _ := runDistributed(t, 1, tr)
	if !bytes.Equal(got, want) {
		t.Fatalf("traced distributed sweep differs from local run")
	}

	spans, dropped := tr.Snapshot()
	// Exactly one shard span per (configuration, experiment, shard)
	// triple, every one attributed to the remote worker that executed it.
	type key struct {
		config int
		name   string
		shard  int
	}
	shardSpans := map[key]int{}
	remoteSpans := 0
	for _, s := range spans {
		switch s.Cat {
		case obs.CatShard:
			shardSpans[key{s.Config, s.Name, s.Shard}]++
			if s.Origin != "fleet-0" {
				t.Fatalf("shard span %s/%d config %d has origin %q, want fleet-0", s.Name, s.Shard, s.Config, s.Origin)
			}
		case obs.CatRemote:
			remoteSpans++
			if s.Origin != "fleet-0" || s.Dur <= 0 {
				t.Fatalf("remote span %+v lacks attribution or duration", s)
			}
		}
	}
	wantShards := 2 * (9 + 1) // 2 configs × (tab1's 9 shards + sec6acpi's 1)
	if len(shardSpans) != wantShards {
		t.Fatalf("distributed trace has %d distinct shard spans, want %d", len(shardSpans), wantShards)
	}
	for k, n := range shardSpans {
		if n != 1 {
			t.Fatalf("shard span %+v recorded %d times, want exactly once", k, n)
		}
	}
	if remoteSpans != wantShards {
		t.Fatalf("distributed trace has %d remote spans, want %d", remoteSpans, wantShards)
	}

	// The Chrome export renders the remote worker as its own named track
	// with per-event worker attribution.
	doc, err := report.MarshalTrace(spans, dropped)
	if err != nil {
		t.Fatalf("MarshalTrace: %v", err)
	}
	decoded, err := report.UnmarshalTrace(doc)
	if err != nil {
		t.Fatalf("UnmarshalTrace: %v", err)
	}
	foundTrack, foundAttr := false, false
	for _, ev := range decoded.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Args["name"] == "remote fleet-0" {
			foundTrack = true
		}
		if ev.Ph == "X" && ev.Cat == obs.CatShard && ev.Args["worker"] == "fleet-0" {
			foundAttr = true
		}
	}
	if !foundTrack {
		t.Fatalf("trace export lacks the remote worker's named track")
	}
	if !foundAttr {
		t.Fatalf("trace export lacks per-span worker attribution args")
	}
}
