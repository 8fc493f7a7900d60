package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// seedFreeMismatch runs e unpinned (a copy with SeedFree cleared, so it
// sees each run seed) and pinned over configs, and names the first
// configuration whose result bytes differ; "" means the declaration held.
// Comparing pinned runs with each other would prove nothing: only the
// unpinned run shows what the seed does to the experiment.
func seedFreeMismatch(t *testing.T, e Experiment, configs []Config) string {
	t.Helper()
	unpinned := e
	unpinned.SeedFree = false
	pinned := e
	pinned.SeedFree = true
	sections := func(e Experiment) [][]byte {
		out := make([][]byte, len(configs))
		err := runSweep([]Experiment{e}, configs, RunConfig{Workers: 2}, func(i int, cr ConfigResult, _ error) {
			out[i] = canonicalJSON(t, cr.Results...)
		}, nil)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		return out
	}
	want, got := sections(pinned), sections(unpinned)
	for i, c := range configs {
		if !bytes.Equal(got[i], want[i]) {
			return fmt.Sprintf("scale %g seed %d", c.Scale, c.Seed)
		}
	}
	return ""
}

// seedFreeGrid holds the seeds and scales a declaration is checked at.
var seedFreeGrid = Grid([]float64{0.3, 1}, []uint64{2, 3, 7, 1234567})

// TestSeedFreeDeclarationsHold guards every SeedFree declaration: each
// declared experiment, run unpinned at several seeds and scales, must give
// the bytes of its pinned run. A wrong declaration would silently replace
// a seed's result with the default seed's.
func TestSeedFreeDeclarationsHold(t *testing.T) {
	declared := 0
	for _, e := range Registry() {
		if !e.SeedFree {
			continue
		}
		declared++
		if at := seedFreeMismatch(t, e, seedFreeGrid); at != "" {
			t.Errorf("%s is declared seed-free but its unpinned result differs at %s", e.ID, at)
		}
	}
	if declared != 10 {
		t.Errorf("%d experiments declared seed-free, want the 10 measured ones", declared)
	}
}

// TestSeedFreeDeclarationCheckCatches is the negative control: fig3's
// transition-time histogram draws from the seed, so declaring it seed-free
// must fail the same comparison.
func TestSeedFreeDeclarationCheckCatches(t *testing.T) {
	e, err := ByID("fig3")
	if err != nil {
		t.Fatal(err)
	}
	if e.SeedFree {
		t.Fatal("fig3 is declared seed-free")
	}
	if at := seedFreeMismatch(t, e, seedFreeGrid); at == "" {
		t.Fatal("fig3 pinned to the default seed matched its unpinned runs: the check cannot catch a wrong declaration")
	}
}

// TestSweepSharesSeedFreeShards counts shard executions through a RunShard
// hook for a sweep of fig3 (seed-dependent) and fig4 (seed-free) over four
// seeds: fig4's shards run once for all four configurations, fig3's once
// per configuration, and every section still equals its standalone run.
func TestSweepSharesSeedFreeShards(t *testing.T) {
	exps, err := ResolveIDs([]string{"fig3", "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	configs := Grid([]float64{0.3}, []uint64{1, 2, 3, 4})
	var mu sync.Mutex
	runs := map[ShardRef]int{}
	perShard := map[string]int{} // "exp/shard" → runs over all refs
	var events []Progress
	sections := make([][]byte, len(configs))
	cfg := RunConfig{
		Workers: 3,
		RunShard: func(st ShardTask) (any, string, error) {
			mu.Lock()
			runs[st.Ref]++
			perShard[fmt.Sprintf("%s/%d", st.Ref.Exp, st.Ref.Shard)]++
			mu.Unlock()
			out, err := st.Run()
			return out, "", err
		},
	}
	err = runSweep(exps, configs, cfg, func(i int, cr ConfigResult, _ error) {
		sections[i] = canonicalJSON(t, cr.Results...)
	}, func(p Progress) { events = append(events, p) })
	if err != nil {
		t.Fatal(err)
	}

	for ref, n := range runs {
		if n != 1 {
			t.Errorf("ref %s ran %d times", ref, n)
		}
	}
	for i := 0; i < 9; i++ {
		if n := perShard[fmt.Sprintf("fig4/%d", i)]; n != 1 {
			t.Errorf("fig4 shard %d ran %d times, want once for the whole sweep", i, n)
		}
	}
	if n := perShard["fig3/0"]; n != len(configs) {
		t.Errorf("fig3 shard 0 ran %d times, want once per configuration (%d)", n, len(configs))
	}
	if len(perShard) != 10 {
		t.Errorf("%d distinct shards ran, want fig3's 1 and fig4's 9", len(perShard))
	}

	for i, c := range configs {
		alone, err := runSet(exps, c, RunConfig{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sections[i], canonicalJSON(t, alone...)) {
			t.Errorf("seed %d: sweep section differs from its standalone run", c.Seed)
		}
	}

	pairs := len(configs) * len(exps)
	completions := map[[2]int]int{}
	last := Progress{}
	for _, p := range events {
		if p.ExperimentDone() {
			completions[[2]int{p.Config, p.Index}]++
		}
		last = p
	}
	if last.Done != pairs || last.Total != pairs {
		t.Errorf("last event Done %d / Total %d, want %d / %d", last.Done, last.Total, pairs, pairs)
	}
	if len(completions) != pairs {
		t.Errorf("%d (configuration, experiment) pairs completed, want %d", len(completions), pairs)
	}
	for k, n := range completions {
		if n != 1 {
			t.Errorf("config %d experiment %d completed %d times", k[0], k[1], n)
		}
	}
}

// TestSeedFreeShardRefsAreCanonical: the wire address of a seed-free
// experiment's shard carries the default seed at any run seed, so the
// shard cache and dist leases see equal work under equal refs; a
// seed-dependent experiment's ref keeps the run seed.
func TestSeedFreeShardRefsAreCanonical(t *testing.T) {
	var mu sync.Mutex
	seeds := map[string]uint64{}
	cfg := RunConfig{Workers: 2, RunShard: func(st ShardTask) (any, string, error) {
		mu.Lock()
		seeds[st.Ref.Exp] = st.Ref.Config.Seed
		mu.Unlock()
		out, err := st.Run()
		return out, "", err
	}}
	if _, err := RunIDsConfig([]string{"fig3", "fig4"}, Config{Scale: 0.3, Seed: 3}, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if seeds["fig4"] != DefaultOptions().Seed || seeds["fig3"] != 3 {
		t.Fatalf("ref seeds %v, want fig4 at the default seed and fig3 at the run seed 3", seeds)
	}
}

// TestSharedSeedFreeFailureReachesEveryConfig: a seed-free experiment whose
// shard fails runs once for a three-seed sweep, and the failure, named
// with each configuration's scale and seed, reaches all three sections.
func TestSharedSeedFreeFailureReachesEveryConfig(t *testing.T) {
	var calls atomic.Int32
	bad := fakeSharded("sf-bad", 3)
	bad.SeedFree = true
	plan := bad.Plan
	bad.Plan = func(o Options) ([]Shard, Reduce, error) {
		shards, reduce, err := plan(o)
		shards[1].Run = func(Options) (any, error) {
			calls.Add(1)
			return nil, errors.New("shared shard failed")
		}
		return shards, reduce, err
	}
	configs := Grid(nil, []uint64{5, 6, 7})
	cfgErrs := make([]error, len(configs))
	kept := make([]int, len(configs))
	err := runSweep([]Experiment{bad, okExp("fine")}, configs, RunConfig{Workers: 2}, func(i int, cr ConfigResult, err error) {
		cfgErrs[i] = err
		kept[i] = len(cr.Results)
	}, nil)
	if err == nil {
		t.Fatal("sweep with a failing shared shard succeeded")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("failing shared shard ran %d times, want 1", n)
	}
	for i, c := range configs {
		tag := fmt.Sprintf("config (scale 1, seed %d): sf-bad", c.Seed)
		if cfgErrs[i] == nil || !strings.Contains(cfgErrs[i].Error(), tag) || !strings.Contains(cfgErrs[i].Error(), "shared shard failed") {
			t.Errorf("config %d error %v, want it to name %q and the shard failure", i, cfgErrs[i], tag)
		}
		if !strings.Contains(err.Error(), tag) {
			t.Errorf("joined error does not name %q", tag)
		}
		if kept[i] != 1 {
			t.Errorf("config %d kept %d results, want the surviving one", i, kept[i])
		}
	}
}
