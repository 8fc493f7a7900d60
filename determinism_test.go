package zen2ee

// The cross-worker-count determinism matrix: the scheduling-model contract
// is that every worker count and shard interleaving of the same (ids,
// scale, seed) produces byte-identical canonical JSON
// (report.MarshalResults). These tests pin that contract on the heavy
// sharded experiments; internal/core pins the scheduler against its serial
// reference.

import (
	"bytes"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

// marshalSet runs the named experiments through the shard scheduler at the
// given worker count and returns the canonical JSON document.
func marshalSet(t *testing.T, ids []string, o core.Options, workers int) []byte {
	t.Helper()
	results, err := core.RunIDsConfig(ids, o, core.RunConfig{Workers: workers}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := report.MarshalResults(results, o)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestShardedSuiteDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sharded heavy set three times")
	}
	// All four converted experiments at once, so cross-experiment shard
	// interleaving is exercised too.
	ids := []string{"tab1", "fig4", "fig7", "fig8"}
	o := core.Options{Scale: 0.5, Seed: 42}
	want := marshalSet(t, ids, o, 1)
	for _, workers := range []int{2, 8} {
		if got := marshalSet(t, ids, o, workers); !bytes.Equal(got, want) {
			t.Errorf("worker count %d changed the canonical JSON document", workers)
		}
	}
}
