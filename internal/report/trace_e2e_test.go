package report

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
)

// TestSweepTraceEndToEnd runs a real sweep through the public scheduler
// API with tracing on and pins the exported trace file: it decodes, its
// complete events are monotonic in ts, every shard task appears exactly
// once with worker attribution, and the exported event *set* is identical
// for every worker count even though the schedulers complete in different
// orders.
func TestSweepTraceEndToEnd(t *testing.T) {
	// Two seed-dependent experiments: a seed-free one's seeds would share
	// one shard task.
	sw := core.Sweep{
		IDs:     []string{"sec5b", "fig10"},
		Configs: []core.Config{{Scale: 0.2, Seed: 1}, {Scale: 0.2, Seed: 2}},
	}
	var want []string
	for _, workers := range []int{1, 4} {
		tr := obs.New(0)
		err := core.RunSweepStream(sw, core.RunConfig{Workers: workers, Trace: tr},
			func(int, core.ConfigResult, error) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		spans, dropped := tr.Snapshot()
		b, err := MarshalTrace(spans, dropped)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := UnmarshalTrace(b)
		if err != nil {
			t.Fatalf("workers=%d: trace does not decode: %v", workers, err)
		}
		events := doc.CompleteEvents()
		if len(events) == 0 {
			t.Fatalf("workers=%d: no complete events", workers)
		}
		var keys []string
		shardTasks := map[string]int{}
		for i, e := range events {
			if i > 0 && e.TS < events[i-1].TS {
				t.Fatalf("workers=%d: ts not monotonic at event %d", workers, i)
			}
			if e.Cat == obs.CatShard {
				if e.TID < 1 || e.TID > workers {
					t.Fatalf("workers=%d: shard event on tid %d", workers, e.TID)
				}
				shardTasks[fmt.Sprintf("c%v/%s/s%v", e.Args["config"], e.Name, e.Args["shard"])]++
			}
			// The identity of an event, minus scheduling accidents (ts,
			// dur, tid, queue wait).
			keys = append(keys, fmt.Sprintf("%s|%s|c%v|s%v", e.Cat, e.Name, e.Args["config"], e.Args["shard"]))
		}
		for task, n := range shardTasks {
			if n != 1 {
				t.Fatalf("workers=%d: shard task %s traced %d times", workers, task, n)
			}
		}
		// One shard task per (config, experiment, shard): 2 configs × 2
		// single-shard experiments here.
		if len(shardTasks) != len(sw.Configs)*len(sw.IDs) {
			t.Fatalf("workers=%d: %d shard tasks, want %d", workers, len(shardTasks), len(sw.Configs)*len(sw.IDs))
		}
		sort.Strings(keys)
		if want == nil {
			want = keys
			continue
		}
		if len(keys) != len(want) {
			t.Fatalf("workers=%d: %d events, want %d", workers, len(keys), len(want))
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("workers=%d: event set diverged at %d: %q vs %q", workers, i, keys[i], want[i])
			}
		}
	}
}

// TestTraceDisabledSweepUnchanged pins the nil-trace fast path at the API
// boundary: a zero-valued RunConfig (no Trace) still produces the exact
// document bytes, and nothing panics on the disabled path.
func TestTraceDisabledSweepUnchanged(t *testing.T) {
	sw := core.Sweep{IDs: []string{"fig1"}, Configs: []core.Config{{Scale: 0.2, Seed: 1}}}
	render := func(cfg core.RunConfig) []byte {
		var buf bytes.Buffer
		sr, err := core.RunSweep(sw, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalSweep(sr)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		return buf.Bytes()
	}
	plain := render(core.RunConfig{Workers: 2})
	traced := render(core.RunConfig{Workers: 2, Trace: obs.New(0)})
	if !bytes.Equal(plain, traced) {
		t.Fatal("tracing changed the sweep document bytes")
	}
}
