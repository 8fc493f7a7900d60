package zen2ee

// The cross-worker-count determinism matrix: the scheduling-model contract
// is that every worker count and shard interleaving of the same (ids,
// scale, seed) produces byte-identical canonical JSON
// (report.MarshalResults). These tests pin that contract on the heavy
// sharded experiments; internal/core pins the scheduler against its serial
// reference.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// TestRunAllDigest is CI's output-digest gate in tier-1: the SHA-256 of
// `zen2ee run all -json` at scale 1, seed 1 (report.MarshalResults over
// the whole registry) must equal the digest bench/golden.json holds for
// that run. It runs under -short too: one suite at two workers.
func TestRunAllDigest(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("bench", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("bench/golden.json: %v", err)
	}
	const key = "run;ids=;scale=1;seed=1"
	want, ok := golden[key]
	if !ok {
		t.Fatalf("bench/golden.json holds no %q", key)
	}
	doc := marshalSet(t, nil, core.Options{Scale: 1, Seed: 1}, 2)
	if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != want {
		t.Fatalf("run all -json (%d bytes) hashes to %s; bench/golden.json holds %s", len(doc), got, want)
	}
}
