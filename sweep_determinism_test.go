package zen2ee

// The sweep determinism matrix: the sweep-first API's contract is that
// batching (Scale, Seed) configurations changes scheduling, never bytes.
// For a sweep over a scales × seeds grid, each per-config section of the
// canonical sweep document must be byte-identical to the standalone run's
// document for that configuration, at every worker count. CI runs these
// under -race as well (go test -race -short ./...), covering the merged
// multi-config task set's synchronization.

import (
	"bytes"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

func TestSweepDeterminismMatrix(t *testing.T) {
	ids := []string{"fig1", "sec5a"}
	configs := core.Grid([]float64{0.2, 0.4}, []uint64{1, 2})
	sw := core.Sweep{IDs: ids, Configs: configs}

	// Standalone references: one single-configuration document per grid
	// point, computed serially.
	refs := make([][]byte, len(configs))
	for i, c := range configs {
		refs[i] = marshalSet(t, ids, c, 1)
	}

	for _, workers := range []int{1, 2, 8} {
		sr, err := core.RunSweep(sw, core.RunConfig{Workers: workers}, nil)
		if err != nil {
			t.Fatal(err)
		}
		doc, err := report.MarshalSweep(sr)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := report.UnmarshalSweep(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(parsed.Configs) != len(configs) {
			t.Fatalf("workers %d: sweep document has %d sections, want %d", workers, len(parsed.Configs), len(configs))
		}
		for i, section := range parsed.Configs {
			if section.Config != configs[i] {
				t.Fatalf("workers %d: section %d keyed by %+v, want %+v", workers, i, section.Config, configs[i])
			}
			got, err := section.Document()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, refs[i]) {
				t.Errorf("workers %d: sweep section for scale %g seed %d differs from the standalone document",
					workers, configs[i].Scale, configs[i].Seed)
			}
		}
	}
}

// TestSweepPublicAPI runs a Grid-built sweep through core.RunSweep and
// checks that each section's document is byte-identical to a lone
// core.RunOne run at that configuration.
func TestSweepPublicAPI(t *testing.T) {
	sw := core.Sweep{IDs: []string{"fig1"}, Configs: core.Grid([]float64{0.2}, []uint64{1, 2})}
	sr, err := core.RunSweep(sw, core.RunConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sr.Runs) != 2 {
		t.Fatalf("%d sections, want 2", len(sr.Runs))
	}
	for _, run := range sr.Runs {
		alone, err := core.RunOne("fig1", run.Config)
		if err != nil {
			t.Fatal(err)
		}
		want, err := report.MarshalResults([]*core.Result{alone}, run.Config)
		if err != nil {
			t.Fatal(err)
		}
		got, err := report.MarshalResults(run.Results, run.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("config %+v: sweep section differs from RunOne bytes", run.Config)
		}
	}
}
