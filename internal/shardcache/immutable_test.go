package shardcache

import (
	"bytes"
	"fmt"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

// dumpOutput renders a shard output through the codec as a canonical
// string. gob writes maps in iteration order, so two encodings of one
// value need not be equal bytes; decoding and printing with %#v (maps in
// key order, floats in their shortest exact form) gives one rendering per
// value.
func dumpOutput(t *testing.T, payload []byte) string {
	t.Helper()
	v, err := DecodeOutput(payload)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%#v", v)
}

// TestReducersLeaveOutputsUnchanged: one computed shard output may feed
// several reductions (every configuration a shared run serves, every job
// that hits the cache), so no reducer may change its outs. For every
// registered experiment the shard outputs must encode the same after two
// reductions as before, and the two results must marshal equal.
func TestReducersLeaveOutputsUnchanged(t *testing.T) {
	cfg := core.Config{Scale: 0.1, Seed: 1}
	for _, e := range core.Registry() {
		shards, reduce, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", e.ID, err)
		}
		outs := make([]any, len(shards))
		before := make([]string, len(shards))
		for i := range shards {
			if outs[i], err = core.ExecuteShardRef(core.ShardRef{Exp: e.ID, Config: cfg, Shard: i}); err != nil {
				t.Fatalf("%s shard %d: %v", e.ID, i, err)
			}
			payload, err := EncodeOutput(outs[i])
			if err != nil {
				t.Fatalf("%s shard %d: encode: %v", e.ID, i, err)
			}
			before[i] = dumpOutput(t, payload)
		}
		var docs [2][]byte
		for k := range docs {
			r, err := reduce(cfg, outs)
			if err != nil {
				t.Fatalf("%s: reduce %d: %v", e.ID, k+1, err)
			}
			if docs[k], err = report.MarshalResults([]*core.Result{r}, cfg); err != nil {
				t.Fatalf("%s: marshal: %v", e.ID, err)
			}
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Errorf("%s: a second reduction over the same outputs gives different bytes", e.ID)
		}
		for i, out := range outs {
			payload, err := EncodeOutput(out)
			if err != nil {
				t.Fatalf("%s shard %d: re-encode: %v", e.ID, i, err)
			}
			if dumpOutput(t, payload) != before[i] {
				t.Errorf("%s: reducing changed shard %d's output", e.ID, i)
			}
		}
	}
}
