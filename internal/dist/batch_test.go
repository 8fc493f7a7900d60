// Batched leases: one long-poll may grant tasks until the worker holds
// 2 × its registered slots, and the worker pipeline drains a batch across
// its slots.

package dist

import (
	"net/http"
	"sync/atomic"
	"testing"
)

// leaseBatch polls once and returns the whole grant.
func (w *rawWorker) leaseBatch(waitMS int64) []TaskSpec {
	w.t.Helper()
	var resp leaseResponse
	w.post("/dist/v1/lease", leaseRequest{WorkerID: w.id, WaitMillis: waitMS}, &resp, http.StatusOK)
	return resp.Tasks
}

func TestBatchedLeaseGrantsMultipleTasks(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "batcher", 4)

	h := env.c.StartRun(nil)
	defer h.Finish()
	var chans []<-chan shardOutcome
	for shard := 0; shard < 4; shard++ {
		chans = append(chans, runShardAsync(h, shardTask(0, shard, nil)))
	}
	waitFor(t, "all 4 tasks queued", func() bool { return env.c.PendingTasks() == 4 })

	specs := w.leaseBatch(100)
	if len(specs) != 4 {
		t.Fatalf("batch lease granted %d tasks, want all 4", len(specs))
	}
	for i := range specs {
		w.complete(&specs[i], float64(specs[i].Ref.Shard)*10)
	}
	for shard, ch := range chans {
		o := waitOutcome(t, ch)
		if o.err != nil || o.out != float64(shard)*10 || o.origin != "batcher" {
			t.Fatalf("shard %d outcome = %+v, want %v from batcher", shard, o, float64(shard)*10)
		}
	}
}

// TestLeaseGrantBoundedByTwiceSlots: grants are sized from the slots the
// worker registered. A worker holding 2 × slots leases (its executing
// slots plus a slot-deep buffer) is granted nothing more and waits in the
// long-poll; each completion frees room for exactly one more task.
func TestLeaseGrantBoundedByTwiceSlots(t *testing.T) {
	env := newTestEnv(t, Config{})
	const slots = 3
	w := env.register(t, "bounded", slots)

	const tasks = 2*slots + 2
	h := env.c.StartRun(nil)
	defer h.Finish()
	var chans []<-chan shardOutcome
	for shard := 0; shard < tasks; shard++ {
		chans = append(chans, runShardAsync(h, shardTask(0, shard, nil)))
	}
	waitFor(t, "all tasks queued", func() bool { return env.c.PendingTasks() == tasks })

	held := w.leaseBatch(100)
	if len(held) != 2*slots {
		t.Fatalf("first poll granted %d tasks, want 2 × %d slots", len(held), slots)
	}
	if more := w.leaseBatch(50); len(more) != 0 {
		t.Fatalf("poll at the 2 × slots bound granted %d more tasks, want none", len(more))
	}
	for len(held) > 0 {
		w.complete(&held[0], float64(held[0].Ref.Shard))
		held = held[1:]
		if env.c.PendingTasks() == 0 {
			continue
		}
		next := w.leaseBatch(100)
		if len(next) != 1 {
			t.Fatalf("poll after one completion granted %d tasks, want 1", len(next))
		}
		held = append(held, next...)
	}
	for shard, ch := range chans {
		if o := waitOutcome(t, ch); o.err != nil || o.out != float64(shard) {
			t.Fatalf("shard %d outcome = %+v", shard, o)
		}
	}
}

func TestWorkerBatchPipelineExecutesAll(t *testing.T) {
	env := newTestEnv(t, Config{})
	var execs atomic.Int64
	startWorker(t, env, WorkerConfig{
		Name: "pipeline", Slots: 2,
		Execute: func(ts TaskSpec) (any, error) {
			execs.Add(1)
			return float64(ts.Ref.Shard) * 3, nil
		},
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	var chans []<-chan shardOutcome
	for shard := 0; shard < 8; shard++ {
		chans = append(chans, runShardAsync(h, shardTask(0, shard, nil)))
	}
	for shard, ch := range chans {
		o := waitOutcome(t, ch)
		if o.err != nil || o.out != float64(shard)*3 || o.origin != "pipeline" {
			t.Fatalf("shard %d outcome = %+v", shard, o)
		}
	}
	if execs.Load() != 8 {
		t.Fatalf("worker executed %d shards, want 8", execs.Load())
	}
}
