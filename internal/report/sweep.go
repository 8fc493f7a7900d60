// The canonical sweep document: one JSON report per sweep, holding one
// section per (Scale, Seed) configuration. Each section embeds the exact
// canonical single-configuration document (MarshalResults bytes) for its
// configuration — SweepSection.Document re-derives those bytes verbatim —
// so a sweep response and N single-configuration responses are directly
// diffable, and the daemon can assemble a sweep document from its
// per-config content-addressed cache without touching the simulator.

package report

import (
	"bytes"
	"encoding/json"
	"fmt"

	"zen2ee/internal/core"
)

// JSONSweep is the top-level sweep document.
type JSONSweep struct {
	// Schema versions the sweep document layout for long-lived clients
	// (independent of the per-config JSONReport schema, which each section
	// carries itself).
	Schema int `json:"schema"`
	// IDs is the canonical experiment set (paper order; omitted when the
	// sweep covers the full registry).
	IDs []string `json:"ids,omitempty"`
	// Configs holds one section per configuration, in request order.
	Configs []SweepSection `json:"configs"`
}

// SweepSchemaVersion is the current JSONSweep layout version.
const SweepSchemaVersion = 1

// SweepSection is one configuration's slice of a sweep document.
type SweepSection struct {
	Config core.Config `json:"config"`
	// Report is the configuration's canonical JSONReport. Its bytes are
	// re-indented to sit inside the sweep document; Document recovers the
	// standalone form.
	Report json.RawMessage `json:"report"`
}

// Document returns the section's canonical standalone document — byte-
// identical to MarshalResults for the same (experiment set, Scale, Seed),
// and therefore to what a single-configuration run (CLI -json, daemon job)
// produces. encoding/json discards source whitespace when re-indenting, so
// the round trip through the sweep document is exact.
func (s SweepSection) Document() ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Indent(&buf, s.Report, "", "  "); err != nil {
		return nil, err
	}
	buf.WriteByte('\n')
	return buf.Bytes(), nil
}

// MarshalSweepSections renders the canonical sweep document from already-
// marshaled per-configuration payloads (each the MarshalResults bytes for
// its configuration). documents[i] belongs to configs[i]. This is the
// entry point for callers holding cached payload bytes; MarshalSweep is
// the convenience form over a core.SweepResult. It is a SweepWriter loop
// into a pooled buffer, so the document holds each payload's bytes as
// stored instead of re-encoding them.
func MarshalSweepSections(ids []string, configs []core.Config, documents [][]byte) ([]byte, error) {
	if len(configs) != len(documents) {
		return nil, fmt.Errorf("report: %d configs but %d documents", len(configs), len(documents))
	}
	p := marshalBufs.Get().(*[]byte)
	defer marshalBufs.Put(p)
	buf := bytes.NewBuffer((*p)[:0])
	sw, err := NewSweepWriter(buf, ids, configs)
	if err != nil {
		return nil, err
	}
	for _, doc := range documents {
		if err := sw.WriteSection(doc); err != nil {
			return nil, err
		}
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	*p = buf.Bytes()[:0]
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...), nil
}

// MarshalSweep renders a sweep outcome as the canonical sweep document.
// Every per-configuration section carries the same bytes MarshalResults
// produces for that configuration alone.
func MarshalSweep(sr *core.SweepResult) ([]byte, error) {
	configs := make([]core.Config, len(sr.Runs))
	documents := make([][]byte, len(sr.Runs))
	for i, run := range sr.Runs {
		configs[i] = run.Config
		var err error
		if documents[i], err = MarshalResults(run.Results, run.Config); err != nil {
			return nil, err
		}
	}
	return MarshalSweepSections(sr.IDs, configs, documents)
}

// UnmarshalSweep parses a canonical sweep document.
func UnmarshalSweep(data []byte) (JSONSweep, error) {
	var doc JSONSweep
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, err
	}
	if doc.Schema != SweepSchemaVersion {
		return doc, fmt.Errorf("report: sweep document schema %d, this build reads %d", doc.Schema, SweepSchemaVersion)
	}
	return doc, nil
}
