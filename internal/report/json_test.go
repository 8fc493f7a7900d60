package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"zen2ee/internal/core"
)

func TestMarshalResultsDeterministic(t *testing.T) {
	// Two separate runs of the same spec must produce byte-identical
	// documents: wall-clock timing is the only nondeterministic field and
	// must not leak into the encoding.
	o := core.Options{Scale: 0.2, Seed: 4}
	run := func() []byte {
		results, err := core.RunIDsConfig([]string{"fig1", "sec5a"}, o, core.RunConfig{Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MarshalResults(results, o)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical specs produced different JSON documents")
	}
	if strings.Contains(string(a), "elapsed_ns") {
		t.Fatal("wall-clock elapsed leaked into the canonical document")
	}
}

func TestMarshalResultsDoesNotMutateInput(t *testing.T) {
	results, err := core.RunIDsConfig([]string{"fig1"}, core.Options{Scale: 0.2, Seed: 1}, core.RunConfig{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Elapsed <= 0 {
		t.Fatal("scheduler did not record wall time")
	}
	if _, err := MarshalResults(results, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if results[0].Elapsed <= 0 {
		t.Fatal("MarshalResults cleared the caller's Elapsed")
	}
}

func TestMarshalResultsDecodes(t *testing.T) {
	o := core.Options{Scale: 0.2, Seed: 2}
	results, err := core.RunIDsConfig([]string{"fig1"}, o, core.RunConfig{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalResults(results, o)
	if err != nil {
		t.Fatal(err)
	}
	var doc JSONReport
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("document does not decode: %v", err)
	}
	if doc.Schema != JSONSchemaVersion {
		t.Errorf("schema %d, want %d", doc.Schema, JSONSchemaVersion)
	}
	if doc.Options != o {
		t.Errorf("options %+v, want %+v", doc.Options, o)
	}
	if len(doc.Results) != 1 || doc.Results[0].ID != "fig1" {
		t.Fatalf("results wrong: %+v", doc.Results)
	}
	if len(doc.Results[0].Comparisons) == 0 {
		t.Error("comparisons lost in the round trip")
	}
}
