package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zen2ee/internal/obs"
	"zen2ee/internal/sim"
)

// fakeSharded builds a synthetic sharded experiment whose shard outputs
// depend on the seed each shard receives, so any deviation in seed
// derivation or output ordering shows up in the reduced Result.
func fakeSharded(id string, n int) Experiment {
	return Experiment{
		ID: id, Title: "fake sharded " + id, PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			var shards []Shard
			for i := 0; i < n; i++ {
				shards = append(shards, Shard{
					Label: fmt.Sprintf("part-%d", i),
					Run: func(so Options) (any, error) {
						// Draw from the shard's stream so the output is a
						// fingerprint of the exact seed it was handed.
						return sim.NewRNG(so.Seed).Float64(), nil
					},
				})
			}
			reduce := func(o Options, outs []any) (*Result, error) {
				r := newResult()
				for i, out := range outs {
					r.Metrics[fmt.Sprintf("shard%d", i)] = out.(float64)
				}
				r.Metrics["seed"] = float64(o.Seed)
				return r, nil
			}
			return shards, reduce, nil
		},
	}
}

// serialRun is the scheduler's serial reference: plan, execute the shards
// in plan order on the calling goroutine with the same derived shard seeds
// the scheduler uses, reduce. o is the experiment-level options.
func serialRun(e Experiment, o Options) (*Result, error) {
	shards, reduce, err := planFor(e, o)
	if err != nil {
		return nil, err
	}
	outs := make([]any, len(shards))
	for i, s := range shards {
		if outs[i], err = s.Run(shardOptions(e.ID, o, i)); err != nil {
			return nil, fmt.Errorf("shard %d/%d (%s): %w", i+1, len(shards), s.Label, err)
		}
	}
	r, err := reduce(o, outs)
	if err == nil && r == nil {
		err = errors.New("reducer returned no result and no error")
	}
	return r, err
}

func TestShardedMatchesMonolithicAcrossWorkers(t *testing.T) {
	exps := []Experiment{fakeSharded("sh-a", 7), okExp("mono"), fakeSharded("sh-b", 3)}
	o := Options{Scale: 1, Seed: 11}

	// Serial reference: each experiment planned, run shard by shard and
	// reduced on the calling goroutine with the per-experiment derived seed.
	var want []*Result
	for _, e := range exps {
		r, err := serialRun(e, o.perExperiment(e.ID))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}

	for _, workers := range []int{1, 2, 8} {
		got, err := runSet(exps, o, RunConfig{Workers: workers}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				t.Fatalf("workers=%d: order differs at %d: %s vs %s", workers, i, got[i].ID, want[i].ID)
			}
			if !reflect.DeepEqual(got[i].Metrics, want[i].Metrics) {
				t.Errorf("workers=%d: %s metrics differ:\nsharded %v\nserial   %v",
					workers, got[i].ID, got[i].Metrics, want[i].Metrics)
			}
		}
	}
}

func TestPerShardSeedsAreIndependentStreams(t *testing.T) {
	e := fakeSharded("sh-seeds", 6)
	o := Options{Scale: 1, Seed: 1}.perExperiment("sh-seeds")
	r, err := serialRun(e, o)
	if err != nil {
		t.Fatal(err)
	}
	// Every shard's fingerprint must be distinct (independent streams) and
	// none may equal the experiment stream's own first draw.
	seen := map[float64]string{}
	expDraw := sim.NewRNG(o.Seed).Float64()
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("shard%d", i)
		v, ok := r.Metric(key)
		if !ok {
			t.Fatalf("missing %s", key)
		}
		if v == expDraw {
			t.Errorf("%s drew from the experiment stream, not its own", key)
		}
		if prev, dup := seen[v]; dup {
			t.Errorf("%s and %s drew identical values: shard streams collide", prev, key)
		}
		seen[v] = key
	}
}

func TestShardProgressEvents(t *testing.T) {
	const n = 5
	exps := []Experiment{fakeSharded("sh-ev", n), okExp("mono")}
	var mu sync.Mutex
	var events []Progress
	if _, err := runSet(exps, DefaultOptions(), RunConfig{Workers: 3}, func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	// n shard events + 2 experiment events; one-shard experiments emit no
	// shard events.
	shardSeen := map[int]bool{}
	expDone := map[string]Progress{}
	for _, p := range events {
		if p.ExperimentDone() {
			if _, dup := expDone[p.ID]; dup {
				t.Fatalf("duplicate completion event for %s", p.ID)
			}
			expDone[p.ID] = p
			continue
		}
		if p.ID != "sh-ev" {
			t.Fatalf("shard event from one-shard experiment: %+v", p)
		}
		if p.Shard < 1 || p.Shard > n || p.Shards != n {
			t.Fatalf("shard event out of range: %+v", p)
		}
		if want := fmt.Sprintf("part-%d", p.Shard-1); p.Label != want {
			t.Fatalf("shard event label %q, want %q", p.Label, want)
		}
		if shardSeen[p.Shard] {
			t.Fatalf("duplicate event for shard %d", p.Shard)
		}
		shardSeen[p.Shard] = true
		if p.Total != len(exps) || p.Done > len(exps) {
			t.Fatalf("shard event carries wrong experiment counts: %+v", p)
		}
	}
	if len(shardSeen) != n {
		t.Fatalf("%d shard events, want %d", len(shardSeen), n)
	}
	if len(expDone) != len(exps) {
		t.Fatalf("%d completion events, want %d", len(expDone), len(exps))
	}
	// The last event must be an experiment completion with Done == Total.
	last := events[len(events)-1]
	if !last.ExperimentDone() || last.Done != len(exps) {
		t.Fatalf("final event %+v, want completion with Done=%d", last, len(exps))
	}
}

func TestShardFailureNamesTheShard(t *testing.T) {
	bad := Experiment{
		ID: "sh-bad", Title: "bad", PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			return []Shard{
					{Label: "fine", Run: func(Options) (any, error) { return 1.0, nil }},
					{Label: "broken", Run: func(Options) (any, error) { return nil, errors.New("synthetic shard failure") }},
				}, func(o Options, outs []any) (*Result, error) {
					t.Error("reduce ran despite a failed shard")
					return newResult(), nil
				}, nil
		},
	}
	results, err := runSet([]Experiment{okExp("a"), bad, okExp("b")}, DefaultOptions(), RunConfig{Workers: 2}, nil)
	if err == nil {
		t.Fatal("shard failure was swallowed")
	}
	for _, want := range []string{"sh-bad", "shard 2/2", "broken", "synthetic shard failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if len(results) != 2 || results[0].ID != "a" || results[1].ID != "b" {
		t.Fatalf("surviving results wrong: %v", results)
	}
}

func TestShardAndReducePanicsBecomeErrors(t *testing.T) {
	panicky := Experiment{
		ID: "sh-panic", Title: "p", PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			return []Shard{
					{Label: "boom", Run: func(Options) (any, error) { panic("shard kaboom") }},
					{Label: "ok", Run: func(Options) (any, error) { return 1.0, nil }},
				},
				func(o Options, outs []any) (*Result, error) { return newResult(), nil }, nil
		},
	}
	if _, err := runSet([]Experiment{panicky}, DefaultOptions(), RunConfig{Workers: 2}, nil); err == nil || !strings.Contains(err.Error(), "shard kaboom") {
		t.Fatalf("shard panic not converted: %v", err)
	}

	badReduce := Experiment{
		ID: "rd-panic", Title: "p", PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			return []Shard{{Label: "ok", Run: func(Options) (any, error) { return 1.0, nil }}, {Label: "ok2", Run: func(Options) (any, error) { return 2.0, nil }}},
				func(o Options, outs []any) (*Result, error) { panic("reduce kaboom") }, nil
		},
	}
	if _, err := runSet([]Experiment{badReduce}, DefaultOptions(), RunConfig{Workers: 2}, nil); err == nil || !strings.Contains(err.Error(), "reduce kaboom") {
		t.Fatalf("reduce panic not converted: %v", err)
	}

	badPlan := Experiment{
		ID: "pl-panic", Title: "p", PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) { panic("plan kaboom") },
	}
	results, err := runSet([]Experiment{badPlan, okExp("a")}, DefaultOptions(), RunConfig{Workers: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "plan kaboom") {
		t.Fatalf("plan panic not converted: %v", err)
	}
	if len(results) != 1 || results[0].ID != "a" {
		t.Fatalf("healthy experiment lost alongside broken plan: %v", results)
	}
}

func TestNilResultReducerBecomesError(t *testing.T) {
	// A (nil, nil) reducer is an experiment bug; it must surface as that
	// experiment's failure, not a nil-deref panic in a worker goroutine.
	nilReduce := Experiment{
		ID: "rd-nil", Title: "n", PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			return []Shard{{Label: "ok", Run: func(Options) (any, error) { return 1.0, nil }}},
				func(o Options, outs []any) (*Result, error) { return nil, nil }, nil
		},
	}
	results, err := runSet([]Experiment{nilReduce, okExp("a")}, DefaultOptions(), RunConfig{Workers: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "no result") {
		t.Fatalf("nil reducer result not converted to an error: %v", err)
	}
	if len(results) != 1 || results[0].ID != "a" {
		t.Fatalf("healthy experiment lost alongside nil reducer: %v", results)
	}
}

func TestEmptyPlanRejected(t *testing.T) {
	empty := Experiment{
		ID: "sh-empty", Title: "e", PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			return nil, func(o Options, outs []any) (*Result, error) { return nil, nil }, nil
		},
	}
	if _, err := runSet([]Experiment{empty}, DefaultOptions(), RunConfig{Workers: 1}, nil); err == nil {
		t.Fatal("empty plan accepted")
	}
}

func TestShardsRunConcurrently(t *testing.T) {
	// Shards gate on each other: none returns until two are in flight at
	// once, so the test hangs (and fails on timeout) unless the scheduler
	// truly overlaps shards of a single experiment.
	const n = 4
	var inFlight atomic.Int32
	var peak atomic.Int32
	barrier := make(chan struct{})
	var once sync.Once
	e := Experiment{
		ID: "sh-conc", Title: "c", PaperRef: "test",
		Plan: func(o Options) ([]Shard, Reduce, error) {
			var shards []Shard
			for i := 0; i < n; i++ {
				shards = append(shards, Shard{
					Label: fmt.Sprintf("s%d", i),
					Run: func(Options) (any, error) {
						cur := inFlight.Add(1)
						defer inFlight.Add(-1)
						for {
							p := peak.Load()
							if cur <= p || peak.CompareAndSwap(p, cur) {
								break
							}
						}
						if cur >= 2 {
							once.Do(func() { close(barrier) })
						}
						<-barrier
						return float64(cur), nil
					},
				})
			}
			return shards, func(o Options, outs []any) (*Result, error) {
				return newResult(), nil
			}, nil
		},
	}
	if _, err := runSet([]Experiment{e}, DefaultOptions(), RunConfig{Workers: n}, nil); err != nil {
		t.Fatal(err)
	}
	if peak.Load() < 2 {
		t.Fatalf("peak shard concurrency %d, want >= 2", peak.Load())
	}
}

func TestRunConfigAcquireGatesEveryShard(t *testing.T) {
	var held, peakHeld, acquires atomic.Int32
	cfg := RunConfig{
		Workers: 8,
		Acquire: func() func() {
			acquires.Add(1)
			cur := held.Add(1)
			for {
				p := peakHeld.Load()
				if cur <= p || peakHeld.CompareAndSwap(p, cur) {
					break
				}
			}
			return func() { held.Add(-1) }
		},
	}
	exps := []Experiment{fakeSharded("sh-gate", 5), okExp("mono")}
	if _, err := runSet(exps, DefaultOptions(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	if got := acquires.Load(); got != 6 {
		t.Fatalf("Acquire called %d times, want 6 (once per shard)", got)
	}
	if held.Load() != 0 {
		t.Fatalf("%d slots still held after the run", held.Load())
	}
}

// TestAcquireGatesOnlyInProcessRuns pins the slot rule with a RunShard
// hook: Acquire gates the task's Run thunk, not the hook call. The hook
// answers the even shards itself (as a cache hit or a remote lease would)
// and runs the rest through st.Run, so Acquire must be called once per
// st.Run call and never for an answered shard. An in-process shard's time
// blocked in Acquire is queue wait, not run time, in both the trace and
// ObserveShard.
func TestAcquireGatesOnlyInProcessRuns(t *testing.T) {
	const block = 30 * time.Millisecond
	var acquires, runs, held atomic.Int32
	var mu sync.Mutex
	var observed []time.Duration // run times
	tr := obs.New(0)
	cfg := RunConfig{
		Workers: 3,
		Acquire: func() func() {
			acquires.Add(1)
			time.Sleep(block)
			held.Add(1)
			return func() { held.Add(-1) }
		},
		RunShard: func(st ShardTask) (any, string, error) {
			if st.Ref.Exp == "sh-hook" && st.Ref.Shard%2 == 0 {
				return 0.5, "remote", nil
			}
			runs.Add(1)
			out, err := st.Run()
			return out, "", err
		},
		Trace: tr,
		ObserveShard: func(wait, run time.Duration) {
			mu.Lock()
			observed = append(observed, run)
			mu.Unlock()
		},
	}
	exps := []Experiment{fakeSharded("sh-hook", 6), okExp("mono")}
	if _, err := runSet(exps, DefaultOptions(), cfg, nil); err != nil {
		t.Fatal(err)
	}
	if got, want := runs.Load(), int32(4); got != want {
		t.Fatalf("hook ran %d shards in-process, want %d", got, want)
	}
	if got := acquires.Load(); got != runs.Load() {
		t.Fatalf("Acquire called %d times for %d st.Run calls, want one per call", got, runs.Load())
	}
	if held.Load() != 0 {
		t.Fatalf("%d slots still held after the run", held.Load())
	}
	if len(observed) != 7 {
		t.Fatalf("ObserveShard saw %d shards, want 7", len(observed))
	}
	for _, run := range observed {
		if run >= block {
			t.Fatalf("observed run time %v includes the %v blocked in Acquire", run, block)
		}
	}
	spans, _ := tr.Snapshot()
	local := 0
	for _, sp := range spans {
		if sp.Cat != obs.CatShard || sp.Origin != "" {
			continue
		}
		local++
		if sp.Wait < block || sp.Dur >= block {
			t.Fatalf("in-process span %s/%d: wait %v, run %v; want the %v Acquire block in the wait",
				sp.Name, sp.Shard, sp.Wait, sp.Dur, block)
		}
	}
	if local != 4 {
		t.Fatalf("traced %d in-process shard spans, want 4", local)
	}
}

func TestOptionsNormalizeAndValidate(t *testing.T) {
	inf := math.Inf(1)
	for _, bad := range []float64{0, -1, inf, -inf, math.NaN()} {
		o := Options{Scale: bad, Seed: 1}
		if err := o.Validate(); err == nil {
			t.Errorf("Validate accepted scale %v", bad)
		}
		if n := o.Normalize(); n.Scale != 1 {
			t.Errorf("Normalize(%v) = %v, want 1", bad, n.Scale)
		}
		if v := o.scaled(10); v != 10 {
			t.Errorf("scaled with scale %v gave %d, want 10 (normalized)", bad, v)
		}
	}
	good := Options{Scale: 2.5, Seed: 0}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate rejected %+v: %v", good, err)
	}
	if n := good.Normalize(); n != good {
		t.Errorf("Normalize changed valid options: %+v", n)
	}
}

// canonicalJSON marshals results with the one nondeterministic field
// (Elapsed) cleared, so equal simulations give equal bytes.
func canonicalJSON(t *testing.T, results ...*Result) []byte {
	t.Helper()
	var clean []Result
	for _, r := range results {
		c := *r
		c.Elapsed = 0
		clean = append(clean, c)
	}
	b, err := json.Marshal(clean)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFig7DeterminismMatrix pins the scheduler against the serial
// reference on the heaviest sharded experiment: every worker count
// computes the same bytes as planning, running and reducing fig7 on one
// goroutine.
func TestFig7DeterminismMatrix(t *testing.T) {
	o := Options{Scale: 2, Seed: 1}
	e, err := ByID("fig7")
	if err != nil {
		t.Fatal(err)
	}
	serial, err := serialRun(e, o.perExperiment(e.ID))
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalJSON(t, serial)
	for _, workers := range []int{1, 2, 8} {
		got, err := RunIDsConfig([]string{"fig7"}, o, RunConfig{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(canonicalJSON(t, got...), want) {
			t.Errorf("fig7 with %d workers differs from the serial run", workers)
		}
	}
}

// TestExecuteShardRefWholeMatchesRun pins the one seed exception on the
// remote path: shard 0 of a whole experiment, executed from its wire
// address and reduced, computes exactly the experiment's section of a
// scheduled run. The reduction stamps the identity onto a copy, so the
// shard output itself stays as the shard returned it.
func TestExecuteShardRefWholeMatchesRun(t *testing.T) {
	cfg := Config{Scale: 0.2, Seed: 4}
	results, err := RunIDsConfig([]string{"sec6b"}, cfg, RunConfig{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ExecuteShardRef(ShardRef{Exp: "sec6b", Config: cfg, Shard: 0})
	if err != nil {
		t.Fatal(err)
	}
	raw, ok := out.(*Result)
	if !ok {
		t.Fatalf("whole shard output is %T, want *Result", out)
	}
	e, err := ByID("sec6b")
	if err != nil {
		t.Fatal(err)
	}
	opts := e.canonical(cfg).perExperiment(e.ID)
	_, reduce, err := planFor(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, err := reduce(opts, []any{out})
	if err != nil {
		t.Fatal(err)
	}
	if r == raw || raw.ID != "" {
		t.Fatalf("reduce stamped the shard output in place (ID %q)", raw.ID)
	}
	if !bytes.Equal(canonicalJSON(t, r), canonicalJSON(t, results...)) {
		t.Fatal("ExecuteShardRef of a whole experiment differs from its scheduled section")
	}
}
