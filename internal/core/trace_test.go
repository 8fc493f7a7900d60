package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"zen2ee/internal/obs"
	"zen2ee/internal/sim"
)

// jitterSharded builds a synthetic sharded experiment whose shards sleep a
// seed-derived pseudo-random amount, so under a multi-worker pool the
// completion order is adversarial: late shards finish first, configs
// complete out of request order.
func jitterSharded(id string, n int) Experiment {
	return Experiment{
		ID: id, Title: "jitter " + id, PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			var shards []Shard
			for i := 0; i < n; i++ {
				shards = append(shards, Shard{
					Label: fmt.Sprintf("part-%d", i),
					Run: func(so Options) (any, error) {
						rng := sim.NewRNG(so.Seed)
						time.Sleep(time.Duration(rng.Float64() * float64(2*time.Millisecond)))
						return rng.Float64(), nil
					},
				})
			}
			reduce := func(o Options, outs []any) (*Result, error) {
				r := newResult(id, "jitter "+id, "test")
				for i, out := range outs {
					r.Metrics[fmt.Sprintf("shard%d", i)] = out.(float64)
				}
				return r, nil
			}
			return shards, reduce, nil
		},
	}
}

// failExp is a whole experiment whose single shard always fails.
func failExp(id string) Experiment {
	return fakeExp(id, func(o Options) (*Result, error) {
		return nil, fmt.Errorf("%s deliberately failed", id)
	})
}

// spanKey is a span's scheduling identity — everything but the wall-clock
// fields and the worker that happened to execute it.
func spanKey(s obs.Span) string {
	return fmt.Sprintf("%s|%s|c%d|s%d|%s|%s", s.Cat, s.Name, s.Config, s.Shard, s.Label, s.Err)
}

func sortedSpanKeys(spans []obs.Span) []string {
	keys := make([]string, len(spans))
	for i, s := range spans {
		keys[i] = spanKey(s)
	}
	sort.Strings(keys)
	return keys
}

// TestTraceSpanSetInvariantAcrossWorkers pins the trace contract under
// adversarial completion order: however the pool interleaves, the recorded
// span *set* — one shard span per (config, experiment, shard) task, one
// reduce per (config, experiment) pair, one deliver per config, one plan —
// is identical for every worker count, and each span is well-formed.
func TestTraceSpanSetInvariantAcrossWorkers(t *testing.T) {
	exps := []Experiment{jitterSharded("jit-a", 5), jitterSharded("jit-b", 3), okExp("mono")}
	configs := []Config{{Scale: 1, Seed: 1}, {Scale: 1, Seed: 2}, {Scale: 2, Seed: 1}}
	shardTasks := len(configs) * (5 + 3 + 1)
	wantSpans := 1 + shardTasks + len(configs)*len(exps) + len(configs) // plan + shards + reduces + delivers

	var want []string
	for _, workers := range []int{1, 2, 8} {
		tr := obs.New(0)
		err := runSweep(exps, configs, RunConfig{Workers: workers, Trace: tr},
			func(int, ConfigResult, error) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		spans, dropped := tr.Snapshot()
		if dropped != 0 {
			t.Fatalf("workers=%d: dropped %d spans", workers, dropped)
		}
		if len(spans) != wantSpans {
			t.Fatalf("workers=%d: %d spans, want %d", workers, len(spans), wantSpans)
		}
		for i, s := range spans {
			if s.Start < 0 || s.Dur < 0 || s.Wait < 0 {
				t.Fatalf("workers=%d: span %d has negative timing: %+v", workers, i, s)
			}
			if s.Cat == obs.CatShard && (s.Worker < 0 || s.Worker >= workers) {
				t.Fatalf("workers=%d: shard span attributed to worker %d", workers, s.Worker)
			}
			if i > 0 && spans[i].Start < spans[i-1].Start {
				t.Fatalf("workers=%d: snapshot not monotonic at %d", workers, i)
			}
		}
		got := sortedSpanKeys(spans)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: span set diverged at %d: %q vs %q", workers, i, got[i], want[i])
			}
		}
	}
}

// TestTraceRecordsFailures pins outcome attribution: a failing shard's
// span, its experiment's reduce span, and its config's deliver span all
// carry the error.
func TestTraceRecordsFailures(t *testing.T) {
	exps := []Experiment{failExp("bad"), okExp("good")}
	tr := obs.New(0)
	err := runSweep(exps, []Config{DefaultOptions()}, RunConfig{Workers: 2, Trace: tr},
		func(int, ConfigResult, error) {}, nil)
	if err == nil {
		t.Fatal("failing experiment reported no error")
	}
	spans, _ := tr.Snapshot()
	byCat := map[string][]obs.Span{}
	for _, s := range spans {
		byCat[s.Cat] = append(byCat[s.Cat], s)
	}
	var foundShard, foundReduce, foundDeliver bool
	for _, s := range byCat[obs.CatShard] {
		if s.Name == "bad" && s.Err != "" {
			foundShard = true
		}
	}
	for _, s := range byCat[obs.CatReduce] {
		if s.Name == "bad" && strings.Contains(s.Err, "bad") {
			foundReduce = true
		}
	}
	for _, s := range byCat[obs.CatDeliver] {
		if s.Err != "" {
			foundDeliver = true
		}
	}
	if !foundShard || !foundReduce || !foundDeliver {
		t.Fatalf("failure not attributed (shard %v, reduce %v, deliver %v):\n%+v",
			foundShard, foundReduce, foundDeliver, spans)
	}
}

// TestObserveShardHook pins the histogram feed: every executed shard task
// reports exactly one (wait, run) observation, with sane values, and the
// hook works without a Trace attached.
func TestObserveShardHook(t *testing.T) {
	exps := []Experiment{jitterSharded("jit-a", 4), okExp("mono")}
	configs := []Config{{Scale: 1, Seed: 1}, {Scale: 1, Seed: 2}}
	var mu sync.Mutex
	var waits, runs []time.Duration
	err := runSweep(exps, configs, RunConfig{
		Workers: 3,
		ObserveShard: func(wait, run time.Duration) {
			mu.Lock()
			waits, runs = append(waits, wait), append(runs, run)
			mu.Unlock()
		},
	}, func(int, ConfigResult, error) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := len(configs) * (4 + 1)
	if len(waits) != want {
		t.Fatalf("observed %d shard tasks, want %d", len(waits), want)
	}
	for i := range waits {
		if waits[i] < 0 || runs[i] < 0 {
			t.Fatalf("negative observation: wait %v run %v", waits[i], runs[i])
		}
	}
}

// TestTracedRunStaysDeterministic pins that tracing is observation only:
// the same sweep with and without a Trace produces identical results.
func TestTracedRunStaysDeterministic(t *testing.T) {
	exps := []Experiment{fakeSharded("sh-a", 6), okExp("mono")}
	configs := []Config{{Scale: 1, Seed: 7}, {Scale: 2, Seed: 7}}
	// Keyed by (config index, result index): configs complete in any order,
	// so nothing about the key may depend on what was delivered before.
	type key struct{ config, result int }
	run := func(tr *obs.Trace) map[key]*Result {
		out := map[key]*Result{}
		err := runSweep(exps, configs, RunConfig{Workers: 4, Trace: tr},
			func(i int, cr ConfigResult, err error) {
				for j, r := range cr.Results {
					out[key{i, j}] = r
				}
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := run(nil)
	traced := run(obs.New(0))
	if len(plain) != len(traced) {
		t.Fatalf("result counts diverge: %d vs %d", len(plain), len(traced))
	}
	for k, r := range plain {
		tr := traced[k]
		if tr == nil || tr.ID != r.ID || fmt.Sprint(tr.Metrics) != fmt.Sprint(r.Metrics) {
			t.Fatalf("traced run diverged at %+v: %+v vs %+v", k, r, tr)
		}
	}
}
