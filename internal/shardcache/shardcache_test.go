// The memoization gate: a warm cache must serve every shard of a repeat
// run without executing anything, and the resulting sweep document must be
// byte-identical to a cold run's — across worker counts, with and without
// tracing, and under partial warmth (only the missing shards execute).
// These run the real scheduler over the real experiment registry.

package shardcache

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
	"zen2ee/internal/store"
)

// testSweep mirrors the dist determinism suite: tab1 is a 9-shard planned
// experiment, sec6acpi a one-shard whole plan whose *core.Result output
// exercises the struct side of the codec. Both are seed-free, so the
// configurations differ in scale (two seeds at one scale would share every
// shard): 2 configs × (9+1) = 20 shards.
func testSweep() core.Sweep {
	return core.Sweep{
		IDs: []string{"tab1", "sec6acpi"},
		Configs: []core.Config{
			{Scale: 0.25, Seed: 1},
			{Scale: 0.5, Seed: 2},
		},
	}
}

const testSweepShards = 2 * (9 + 1)

func marshalSweep(t *testing.T, sr *core.SweepResult) []byte {
	t.Helper()
	b, err := report.MarshalSweep(sr)
	if err != nil {
		t.Fatalf("MarshalSweep: %v", err)
	}
	return b
}

// countingNext is a RunShard hook that executes locally and counts how
// many shards actually ran — the proof that a warm cache skips execution.
func countingNext(n *atomic.Int64) func(core.ShardTask) (any, string, error) {
	return func(st core.ShardTask) (any, string, error) {
		n.Add(1)
		out, err := st.Run()
		return out, "", err
	}
}

func TestKeyDistinguishesEveryField(t *testing.T) {
	base := core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0}
	variants := []core.ShardRef{
		{Exp: "tab2", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0},
		{Exp: "tab1", Config: core.Config{Scale: 2, Seed: 1}, Shard: 0},
		{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 2}, Shard: 0},
		{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 1},
	}
	seen := map[string]core.ShardRef{Key(base, "s"): base}
	for _, v := range variants {
		k := Key(v, "s")
		if prev, dup := seen[k]; dup {
			t.Fatalf("refs %+v and %+v share key %s", prev, v, k)
		}
		seen[k] = v
	}
	if Key(base, "s") != Key(base, "s") {
		t.Fatalf("Key is not deterministic")
	}
	if Key(base, "s") == Key(base, "other-salt") {
		t.Fatalf("salt does not change the key")
	}
	if got := Key(base, "s"); len(got) != 64 {
		t.Fatalf("key %q is not 64 hex chars", got)
	}
}

func TestDefaultSaltCoversRegistry(t *testing.T) {
	salt := DefaultSalt()
	for _, e := range core.Registry() {
		if !bytes.Contains([]byte(salt), []byte(e.ID)) {
			t.Fatalf("DefaultSalt %q omits registered experiment %s — removing it would not invalidate the cache", salt, e.ID)
		}
	}
}

// TestVersionOneEntriesMiss: an entry stored under the version-1 salt,
// as builds before the bump wrote it, is not served.
func TestVersionOneEntriesMiss(t *testing.T) {
	v1 := "1" + strings.TrimPrefix(DefaultSalt(), keyVersion)
	if v1 == DefaultSalt() {
		t.Fatalf("salt %q still carries key version 1", DefaultSalt())
	}
	st := store.NewMemory(16, 1<<20)
	ref := core.ShardRef{Exp: "sec6acpi", Config: core.Config{Scale: 1, Seed: 1}}
	payload, err := EncodeOutput([]float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	st.Put(Key(ref, v1), payload)
	c := New(st, "")
	if out, ok := c.Lookup(ref); ok {
		t.Fatalf("version-1 entry served: %#v", out)
	}
	c.Store(ref, []float64{4})
	if out, ok := c.Lookup(ref); !ok || !reflect.DeepEqual(out, []float64{4}) {
		t.Fatalf("current entry: %#v, %v", out, ok)
	}
}

func TestCodecRoundTripsFloatsBitExact(t *testing.T) {
	in := [][]float64{
		{0, math.Copysign(0, -1), 1.0 / 3.0, math.Nextafter(1, 2)},
		{math.MaxFloat64, math.SmallestNonzeroFloat64, -math.Pi},
	}
	enc, err := EncodeOutput(in)
	if err != nil {
		t.Fatalf("EncodeOutput: %v", err)
	}
	dec, err := DecodeOutput(enc)
	if err != nil {
		t.Fatalf("DecodeOutput: %v", err)
	}
	out, ok := dec.([][]float64)
	if !ok {
		t.Fatalf("decoded type %T, want [][]float64", dec)
	}
	for i := range in {
		for j := range in[i] {
			if math.Float64bits(in[i][j]) != math.Float64bits(out[i][j]) {
				t.Fatalf("element [%d][%d]: bits %016x != %016x", i, j,
					math.Float64bits(in[i][j]), math.Float64bits(out[i][j]))
			}
		}
	}
}

func TestLookupStoreRoundTripAndStats(t *testing.T) {
	c := New(store.NewMemory(16, 1<<20), "")
	ref := core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 0.25, Seed: 1}, Shard: 3}

	if _, ok := c.Lookup(ref); ok {
		t.Fatalf("Lookup hit on an empty cache")
	}
	c.Store(ref, []float64{1, 2, 3})
	out, ok := c.Lookup(ref)
	if !ok {
		t.Fatalf("Lookup missed a just-stored entry")
	}
	if !reflect.DeepEqual(out, []float64{1, 2, 3}) {
		t.Fatalf("Lookup returned %#v", out)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("Stats = %+v, want 1 hit / 1 miss", s)
	}
	if s.BytesServed == 0 {
		t.Fatalf("Stats.BytesServed = 0 after a hit")
	}
}

func TestCorruptEntryDegradesToMiss(t *testing.T) {
	st := store.NewMemory(16, 1<<20)
	c := New(st, "salt")
	ref := core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0}
	st.Put(Key(ref, "salt"), []byte("not gob"))
	if _, ok := c.Lookup(ref); ok {
		t.Fatalf("corrupt payload decoded as a hit")
	}
	if s := c.Stats(); s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("Stats = %+v after corrupt entry, want a recorded miss", s)
	}
}

func TestStoreSkipsUncacheableOutput(t *testing.T) {
	c := New(store.NewMemory(16, 1<<20), "")
	ref := core.ShardRef{Exp: "tab1", Config: core.Config{Scale: 1, Seed: 1}, Shard: 0}
	c.Store(ref, func() {}) // gob cannot encode funcs; must not panic or store
	if _, ok := c.Lookup(ref); ok {
		t.Fatalf("uncacheable output was served back")
	}
}

// TestWarmSweepByteIdenticalAcrossWorkersAndTracing is the determinism
// matrix: one cold run populates the cache (all shards execute), then warm
// runs across 1/2/4 workers, traced and untraced, must execute zero shards
// and reproduce the cold document byte for byte.
func TestWarmSweepByteIdenticalAcrossWorkersAndTracing(t *testing.T) {
	baseline, err := core.RunSweep(testSweep(), core.RunConfig{Workers: 4}, nil)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	want := marshalSweep(t, baseline)

	cache := New(store.NewMemory(64, 8<<20), "")
	var coldExecs atomic.Int64
	sr, err := core.RunSweep(testSweep(), core.RunConfig{
		Workers: 4, RunShard: cache.WrapRunShard(countingNext(&coldExecs), nil),
	}, nil)
	if err != nil {
		t.Fatalf("cold cached sweep: %v", err)
	}
	if got := marshalSweep(t, sr); !bytes.Equal(got, want) {
		t.Fatalf("cold cached sweep differs from plain run (%d vs %d bytes)", len(got), len(want))
	}
	if coldExecs.Load() != testSweepShards {
		t.Fatalf("cold run executed %d shards, want %d", coldExecs.Load(), testSweepShards)
	}

	for _, workers := range []int{1, 2, 4} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/traced=%v", workers, traced), func(t *testing.T) {
				var tr *obs.Trace
				if traced {
					tr = obs.New(0)
				}
				var execs atomic.Int64
				sr, err := core.RunSweep(testSweep(), core.RunConfig{
					Workers: workers, Trace: tr,
					RunShard: cache.WrapRunShard(countingNext(&execs), tr),
				}, nil)
				if err != nil {
					t.Fatalf("warm sweep: %v", err)
				}
				if got := marshalSweep(t, sr); !bytes.Equal(got, want) {
					t.Fatalf("warm sweep differs from cold run (%d vs %d bytes)", len(got), len(want))
				}
				if execs.Load() != 0 {
					t.Fatalf("warm sweep executed %d shards, want 0", execs.Load())
				}
				if traced {
					spans, _ := tr.Snapshot()
					cacheSpans := 0
					for _, s := range spans {
						if s.Cat == obs.CatCache {
							cacheSpans++
							if s.Origin != OriginCache {
								t.Fatalf("cache span %+v has origin %q, want %q", s, s.Origin, OriginCache)
							}
						}
					}
					if cacheSpans != testSweepShards {
						t.Fatalf("traced warm run recorded %d cache spans, want %d", cacheSpans, testSweepShards)
					}
				}
			})
		}
	}
}

// TestPartialWarmExecutesOnlyMissingShards proves shard granularity: after
// warming one configuration of one experiment, a full sweep executes
// exactly the shards the cache has never seen.
func TestPartialWarmExecutesOnlyMissingShards(t *testing.T) {
	cache := New(store.NewMemory(64, 8<<20), "")

	warm := core.Sweep{IDs: []string{"tab1"}, Configs: []core.Config{{Scale: 0.25, Seed: 1}}}
	var warmExecs atomic.Int64
	if _, err := core.RunSweep(warm, core.RunConfig{
		Workers: 2, RunShard: cache.WrapRunShard(countingNext(&warmExecs), nil),
	}, nil); err != nil {
		t.Fatalf("warming sweep: %v", err)
	}
	if warmExecs.Load() != 9 {
		t.Fatalf("warming sweep executed %d shards, want tab1's 9", warmExecs.Load())
	}

	baseline, err := core.RunSweep(testSweep(), core.RunConfig{Workers: 4}, nil)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}
	var execs atomic.Int64
	sr, err := core.RunSweep(testSweep(), core.RunConfig{
		Workers: 4, RunShard: cache.WrapRunShard(countingNext(&execs), nil),
	}, nil)
	if err != nil {
		t.Fatalf("partially warm sweep: %v", err)
	}
	if got, want := marshalSweep(t, sr), marshalSweep(t, baseline); !bytes.Equal(got, want) {
		t.Fatalf("partially warm sweep differs from plain run")
	}
	if got, want := execs.Load(), int64(testSweepShards-9); got != want {
		t.Fatalf("partially warm sweep executed %d shards, want exactly the %d uncached ones", got, want)
	}
}
