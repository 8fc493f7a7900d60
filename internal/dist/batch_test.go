// Batched leases and the compressed completion path: one long-poll may
// grant up to Max tasks (capped by the coordinator's MaxLeaseBatch), flate
// compression is negotiated at register and bounded at decode, and the
// worker pipeline drains a batch across its slots.

package dist

import (
	"bytes"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zen2ee/internal/shardcache"
	"zen2ee/internal/store"
)

// leaseBatch polls once asking for up to max tasks.
func (w *rawWorker) leaseBatch(waitMS int64, max int) []TaskSpec {
	w.t.Helper()
	var resp leaseResponse
	w.post("/dist/v1/lease", leaseRequest{WorkerID: w.id, WaitMillis: waitMS, Max: max}, &resp, http.StatusOK)
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

	specs := w.leaseBatch(100, 8)
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

func TestBatchedLeaseClampedByMaxLeaseBatch(t *testing.T) {
	env := newTestEnv(t, Config{MaxLeaseBatch: 2})
	w := env.register(t, "clamped", 8)

	h := env.c.StartRun(nil)
	defer h.Finish()
	var chans []<-chan shardOutcome
	for shard := 0; shard < 4; shard++ {
		chans = append(chans, runShardAsync(h, shardTask(0, shard, nil)))
	}
	waitFor(t, "all 4 tasks queued", func() bool { return env.c.PendingTasks() == 4 })

	first := w.leaseBatch(100, 100)
	if len(first) != 2 {
		t.Fatalf("lease with max=100 granted %d tasks, want the MaxLeaseBatch cap of 2", len(first))
	}
	second := w.leaseBatch(100, 100)
	if len(second) != 2 {
		t.Fatalf("second batch granted %d tasks, want the remaining 2", len(second))
	}
	for _, specs := range [][]TaskSpec{first, second} {
		for i := range specs {
			w.complete(&specs[i], float64(specs[i].Ref.Shard))
		}
	}
	for shard, ch := range chans {
		if o := waitOutcome(t, ch); o.err != nil || o.out != float64(shard) {
			t.Fatalf("shard %d outcome = %+v", shard, o)
		}
	}
}

func TestRegisterNegotiatesCompression(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := &rawWorker{t: t, base: env.ts.URL}

	var with registerResponse
	w.post("/dist/v1/register", registerRequest{Name: "zip", Slots: 1, Compression: compressionFlate}, &with, http.StatusOK)
	if with.Compression != compressionFlate {
		t.Fatalf("register offering flate got compression %q, want %q", with.Compression, compressionFlate)
	}
	var without registerResponse
	w.post("/dist/v1/register", registerRequest{Name: "plain", Slots: 1}, &without, http.StatusOK)
	if without.Compression != "" {
		t.Fatalf("register offering nothing got compression %q, want none", without.Compression)
	}
}

func TestCompressedCompletionRoundTrip(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "zipper", 1)

	h := env.c.StartRun(nil)
	defer h.Finish()
	ch := runShardAsync(h, shardTask(0, 0, nil))
	spec := w.leaseUntil(5 * time.Second)

	// A payload comfortably past compressMinBytes, compressible enough
	// that the wire bytes shrink.
	big := make([]float64, 4096)
	for i := range big {
		big[i] = float64(i % 7)
	}
	enc, err := encodeOutput(big)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	cb, err := compressOutput(enc)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	if len(cb) >= len(enc) {
		t.Fatalf("compressed %d bytes to %d — payload did not shrink", len(enc), len(cb))
	}
	w.post("/dist/v1/complete", completeRequest{
		WorkerID: w.id, TaskID: spec.ID, Output: cb, Compressed: true, DurNS: 1000,
	}, nil, http.StatusOK)

	o := waitOutcome(t, ch)
	if o.err != nil || o.origin != "zipper" {
		t.Fatalf("outcome = %+v", o)
	}
	got, ok := o.out.([]float64)
	if !ok || len(got) != len(big) {
		t.Fatalf("decoded %T (len %d), want []float64 len %d", o.out, len(got), len(big))
	}
	for i := range big {
		if got[i] != big[i] {
			t.Fatalf("element %d: %v != %v", i, got[i], big[i])
		}
	}
}

func TestCorruptCompressedCompletionFailsShardLoudly(t *testing.T) {
	env := newTestEnv(t, Config{})
	w := env.register(t, "mangler", 1)

	h := env.c.StartRun(nil)
	defer h.Finish()
	ch := runShardAsync(h, shardTask(0, 0, nil))
	spec := w.leaseUntil(5 * time.Second)

	w.post("/dist/v1/complete", completeRequest{
		WorkerID: w.id, TaskID: spec.ID, Output: []byte("not a flate stream"), Compressed: true,
	}, nil, http.StatusOK)

	o := waitOutcome(t, ch)
	if o.err == nil || !strings.Contains(o.err.Error(), "decoding output") {
		t.Fatalf("corrupt compressed completion outcome = %+v, want a loud decode failure", o)
	}
}

func TestDecompressOutputBoundedByBodyLimit(t *testing.T) {
	small := []byte(strings.Repeat("abcdef", 200))
	cb, err := compressOutput(small)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	back, err := decompressOutput(cb)
	if err != nil {
		t.Fatalf("decompress: %v", err)
	}
	if !bytes.Equal(back, small) {
		t.Fatalf("round trip mangled the payload (%d vs %d bytes)", len(back), len(small))
	}

	// A zip bomb — tiny on the wire, past the body cap inflated — must be
	// rejected at decode, not buffered without bound.
	bomb, err := compressOutput(make([]byte, maxBodyBytes+2))
	if err != nil {
		t.Fatalf("compress bomb: %v", err)
	}
	if _, err := decompressOutput(bomb); err == nil {
		t.Fatalf("decompressOutput accepted a payload inflating past maxBodyBytes")
	}
}

func TestWorkerBatchPipelineExecutesAll(t *testing.T) {
	env := newTestEnv(t, Config{})
	var execs atomic.Int64
	startWorker(t, env, WorkerConfig{
		Name: "pipeline", Slots: 2, LeaseBatch: 4,
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

func TestWorkerShardCacheSkipsRepeatExecution(t *testing.T) {
	env := newTestEnv(t, Config{})
	cache := shardcache.New(store.NewMemory(16, 1<<20), "test-salt")
	var execs atomic.Int64
	startWorker(t, env, WorkerConfig{
		Name: "cached", Slots: 1, Cache: cache,
		Execute: func(ts TaskSpec) (any, error) {
			execs.Add(1)
			return 42.0, nil
		},
	})
	waitFor(t, "worker registration", func() bool { return env.c.WorkersConnected() == 1 })

	h := env.c.StartRun(nil)
	defer h.Finish()
	// The same shard ref dispatched twice — a re-run sweep from the
	// worker's point of view. The second lease must be served from the
	// worker's cache without executing.
	for round := 0; round < 2; round++ {
		o := waitOutcome(t, runShardAsync(h, shardTask(0, 0, nil)))
		if o.err != nil || o.out != 42.0 || o.origin != "cached" {
			t.Fatalf("round %d outcome = %+v", round, o)
		}
	}
	if execs.Load() != 1 {
		t.Fatalf("worker executed %d times for the same ref, want 1 (second served from cache)", execs.Load())
	}
	if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("cache stats = %+v, want exactly 1 hit and 1 miss", s)
	}
}
