package core

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"zen2ee/internal/sim"
)

func TestGridCrossProduct(t *testing.T) {
	got := Grid([]float64{1, 2}, []uint64{3, 4, 5})
	want := []Config{
		{Scale: 1, Seed: 3}, {Scale: 1, Seed: 4}, {Scale: 1, Seed: 5},
		{Scale: 2, Seed: 3}, {Scale: 2, Seed: 4}, {Scale: 2, Seed: 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("grid %v, want %v", got, want)
	}
	// Empty axes default to the single default value, so one-axis sweeps
	// do not need a placeholder.
	if got := Grid(nil, []uint64{7}); !reflect.DeepEqual(got, []Config{{Scale: 1, Seed: 7}}) {
		t.Fatalf("seed-only grid %v", got)
	}
	if got := Grid([]float64{3}, nil); !reflect.DeepEqual(got, []Config{{Scale: 3, Seed: 1}}) {
		t.Fatalf("scale-only grid %v", got)
	}
}

func TestSweepValidate(t *testing.T) {
	ok := Sweep{Configs: Grid([]float64{1, 2}, []uint64{1, 2})}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, sw := range map[string]Sweep{
		"no configs":       {},
		"bad scale":        {Configs: []Config{{Scale: -1, Seed: 1}}},
		"zero scale":       {Configs: []Config{{Scale: 0, Seed: 1}}},
		"duplicate config": {Configs: []Config{{Scale: 1, Seed: 2}, {Scale: 2, Seed: 1}, {Scale: 1, Seed: 2}}},
	} {
		if err := sw.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestRunSweepRejectsBadRequests(t *testing.T) {
	for name, sw := range map[string]Sweep{
		"unknown id":    {IDs: []string{"nonexistent"}, Configs: []Config{{Scale: 1, Seed: 1}}},
		"duplicate id":  {IDs: []string{"fig1", "fig1"}, Configs: []Config{{Scale: 1, Seed: 1}}},
		"empty configs": {IDs: []string{"fig1"}},
	} {
		if _, err := RunSweep(sw, RunConfig{Workers: 1}, nil); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunSweepMatchesStandaloneRuns is the batching contract at the core
// layer: each configuration's section of a sweep equals the standalone
// single-configuration run, metric for metric, at several worker counts.
func TestRunSweepMatchesStandaloneRuns(t *testing.T) {
	ids := []string{"fig1", "sec5a"}
	configs := Grid([]float64{0.2, 0.4}, []uint64{1, 2})
	for _, workers := range []int{1, 3, 8} {
		sr, err := RunSweep(Sweep{IDs: ids, Configs: configs}, RunConfig{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Runs) != len(configs) {
			t.Fatalf("%d config sections, want %d", len(sr.Runs), len(configs))
		}
		if !reflect.DeepEqual(sr.IDs, ids) {
			t.Fatalf("sweep echoed ids %v, want %v", sr.IDs, ids)
		}
		for i, run := range sr.Runs {
			if run.Config != configs[i] {
				t.Fatalf("section %d keyed by %+v, want %+v", i, run.Config, configs[i])
			}
			alone, err := RunIDsConfig(ids, run.Config, RunConfig{Workers: 1}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(alone) != len(run.Results) {
				t.Fatalf("config %d: %d results in sweep, %d standalone", i, len(run.Results), len(alone))
			}
			for j := range alone {
				a, b := alone[j], run.Results[j]
				if a.ID != b.ID || !reflect.DeepEqual(a.Metrics, b.Metrics) || !reflect.DeepEqual(a.Series, b.Series) {
					t.Errorf("workers %d, config %d, %s: sweep section differs from standalone run", workers, i, a.ID)
				}
			}
		}
	}
}

// TestRunSweepProgressCarriesConfigIndex pins the sweep-level progress
// contract: every event names its configuration, Done/Total count
// (configuration, experiment) pairs, and each pair completes exactly once.
func TestRunSweepProgressCarriesConfigIndex(t *testing.T) {
	exps := []Experiment{okExp("a"), okExp("b"), okExp("c")}
	configs := Grid([]float64{1, 2}, []uint64{1, 2})
	var mu sync.Mutex
	var events []Progress
	if err := runSweep(exps, configs, RunConfig{Workers: 4}, func(int, ConfigResult, error) {}, func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	pairs := len(exps) * len(configs)
	if len(events) != pairs {
		t.Fatalf("%d events for %d (config, experiment) pairs", len(events), pairs)
	}
	seen := map[[2]int]bool{}
	for i, p := range events {
		if p.Done != i+1 || p.Total != pairs {
			t.Errorf("event %d: Done %d / Total %d, want %d / %d", i, p.Done, p.Total, i+1, pairs)
		}
		if p.Config < 0 || p.Config >= len(configs) || p.Configs != len(configs) {
			t.Errorf("event %d: config %d/%d out of range", i, p.Config, p.Configs)
		}
		key := [2]int{p.Config, p.Index}
		if seen[key] {
			t.Errorf("duplicate completion for config %d experiment %d", p.Config, p.Index)
		}
		seen[key] = true
	}
}

// TestRunSweepPartialFailure: one configuration's experiment failing costs
// that section's entry, not the sweep — and the error names the
// configuration.
func TestRunSweepPartialFailure(t *testing.T) {
	// The experiment sees its per-experiment derived seed, so the failing
	// configuration is recognized by deriving the same stream.
	failingSeed := sim.DeriveSeed(2, "boom")
	boom := fakeExp("boom", func(o Options) (*Result, error) {
		if o.Seed == failingSeed {
			return nil, errors.New("synthetic sweep failure")
		}
		return newResult("boom", "fake boom", "test"), nil
	})
	exps := []Experiment{okExp("a"), boom}
	configs := []Config{{Scale: 1, Seed: 1}, {Scale: 1, Seed: 2}}
	perConfig := make([][]*Result, len(configs))
	cfgErrs := make([]error, len(configs))
	err := runSweep(exps, configs, RunConfig{Workers: 2}, func(i int, cr ConfigResult, cerr error) {
		perConfig[i], cfgErrs[i] = cr.Results, cerr
	}, nil)
	if err == nil {
		t.Fatal("failure swallowed")
	}
	// The tag identifies the configuration by scale/seed, never by index —
	// callers run subsets of a request, so an index would mislocate.
	if !strings.Contains(err.Error(), "config (scale 1, seed 2): boom") {
		t.Fatalf("error does not name the failing configuration: %v", err)
	}
	if len(perConfig[0]) != 2 {
		t.Fatalf("healthy config lost results: %v", perConfig[0])
	}
	if len(perConfig[1]) != 1 || perConfig[1][0].ID != "a" {
		t.Fatalf("failing config kept wrong results: %v", perConfig[1])
	}
	// The failing configuration's callback error carries the same failure
	// the joined sweep error does; the healthy configuration's is nil.
	if cfgErrs[0] != nil {
		t.Fatalf("healthy config delivered an error: %v", cfgErrs[0])
	}
	if cfgErrs[1] == nil || !strings.Contains(cfgErrs[1].Error(), "boom") {
		t.Fatalf("failing config error %v does not name the failure", cfgErrs[1])
	}
}

// TestRunSweepStreamMatchesCollector pins the streaming contract:
// RunSweepStream delivers every configuration exactly once, never
// concurrently, and the delivered sections equal what the RunSweep
// collector accumulates for the same request.
func TestRunSweepStreamMatchesCollector(t *testing.T) {
	sw := Sweep{IDs: []string{"fig1", "sec5a"}, Configs: Grid([]float64{0.2}, []uint64{1, 2, 3})}
	want, err := RunSweep(sw, RunConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inFlight := 0
	got := make([]*ConfigResult, len(sw.Configs))
	err = RunSweepStream(sw, RunConfig{Workers: 4}, func(i int, cr ConfigResult, cerr error) {
		mu.Lock()
		inFlight++
		if inFlight != 1 {
			t.Error("onConfig invoked concurrently")
		}
		mu.Unlock()
		if cerr != nil {
			t.Errorf("config %d delivered error: %v", i, cerr)
		}
		if got[i] != nil {
			t.Errorf("config %d delivered twice", i)
		}
		cp := cr
		got[i] = &cp
		mu.Lock()
		inFlight--
		mu.Unlock()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sw.Configs {
		if got[i] == nil {
			t.Fatalf("config %d never delivered", i)
		}
		if got[i].Config != want.Runs[i].Config {
			t.Errorf("config %d keyed by %+v, want %+v", i, got[i].Config, want.Runs[i].Config)
		}
		if len(got[i].Results) != len(want.Runs[i].Results) {
			t.Fatalf("config %d: %d streamed results, %d collected", i, len(got[i].Results), len(want.Runs[i].Results))
		}
		for j, a := range got[i].Results {
			b := want.Runs[i].Results[j]
			if a.ID != b.ID || !reflect.DeepEqual(a.Metrics, b.Metrics) || !reflect.DeepEqual(a.Series, b.Series) {
				t.Errorf("config %d, %s: streamed section differs from collected section", i, a.ID)
			}
		}
	}
}

// TestRunSweepStreamRequiresCallback: the stream entry point without a
// consumer is a programming error, reported before any work starts.
func TestRunSweepStreamRequiresCallback(t *testing.T) {
	sw := Sweep{IDs: []string{"fig1"}, Configs: []Config{{Scale: 0.2, Seed: 1}}}
	if err := RunSweepStream(sw, RunConfig{Workers: 1}, nil, nil); err == nil {
		t.Fatal("nil onConfig accepted")
	}
}
