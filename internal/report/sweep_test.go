package report

import (
	"bytes"
	"testing"

	"zen2ee/internal/core"
)

// fakeResults builds a small deterministic result set without running any
// simulation, so the document round-trip tests stay microsecond-fast. Its
// strings need escaping (HTML characters, a newline, U+2028), so the
// encoders are compared on the bytes encoding/json rewrites.
func fakeResults(seed uint64) []*core.Result {
	return []*core.Result{
		{
			ID: "fig1", Title: "synthetic", PaperRef: "test",
			Columns: []string{"k", "v"},
			Rows:    [][]string{{"seed", "x"}, {"<a&b>", "line\nbreak\u2028"}},
			Metrics: map[string]float64{"seed": float64(seed)},
		},
		{
			ID: "sec5a", Title: "synthetic 2", PaperRef: "test",
			Metrics: map[string]float64{"twice": float64(2 * seed)},
			Series:  map[string][]float64{"s": {1, 2, float64(seed)}},
		},
	}
}

// TestSweepSectionDocumentRoundTrip is the byte-identity contract: a
// section extracted from the marshaled sweep document re-derives the exact
// standalone MarshalResults bytes for its configuration.
func TestSweepSectionDocumentRoundTrip(t *testing.T) {
	ids := []string{"fig1", "sec5a"}
	configs := []core.Config{{Scale: 1, Seed: 1}, {Scale: 2, Seed: 7}}
	standalone := make([][]byte, len(configs))
	for i, c := range configs {
		var err error
		if standalone[i], err = MarshalResults(fakeResults(c.Seed), c); err != nil {
			t.Fatal(err)
		}
	}

	doc, err := MarshalSweepSections(ids, configs, standalone)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := UnmarshalSweep(doc)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Schema != SweepSchemaVersion || len(parsed.Configs) != len(configs) {
		t.Fatalf("parsed document wrong: schema %d, %d sections", parsed.Schema, len(parsed.Configs))
	}
	for i, section := range parsed.Configs {
		if section.Config != configs[i] {
			t.Fatalf("section %d keyed by %+v, want %+v", i, section.Config, configs[i])
		}
		got, err := section.Document()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, standalone[i]) {
			t.Errorf("section %d document differs from standalone MarshalResults bytes:\n got %q\nwant %q",
				i, got, standalone[i])
		}
	}

	// The sweep document itself must be deterministic.
	again, err := MarshalSweepSections(ids, configs, standalone)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, again) {
		t.Error("sweep document is not byte-stable across marshals")
	}
}

func TestMarshalSweepFromResults(t *testing.T) {
	sr := &core.SweepResult{
		IDs: []string{"fig1", "sec5a"},
		Runs: []core.ConfigResult{
			{Config: core.Config{Scale: 1, Seed: 3}, Results: fakeResults(3)},
			{Config: core.Config{Scale: 1, Seed: 4}, Results: fakeResults(4)},
		},
	}
	doc, err := MarshalSweep(sr)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := UnmarshalSweep(doc)
	if err != nil {
		t.Fatal(err)
	}
	for i, run := range sr.Runs {
		want, err := MarshalResults(run.Results, run.Config)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parsed.Configs[i].Document()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("config %d: sweep section diverges from MarshalResults", i)
		}
	}
}

func TestMarshalSweepSectionsErrors(t *testing.T) {
	c := []core.Config{{Scale: 1, Seed: 1}}
	if _, err := MarshalSweepSections(nil, c, nil); err == nil {
		t.Error("mismatched config/document lengths accepted")
	}
	if _, err := MarshalSweepSections(nil, c, [][]byte{nil}); err == nil {
		t.Error("empty per-config document accepted")
	}
	if _, err := UnmarshalSweep([]byte(`{"schema":99,"configs":[]}`)); err == nil {
		t.Error("future schema accepted silently")
	}
}
