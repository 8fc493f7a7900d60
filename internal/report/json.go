// The canonical JSON document shared by the zen2ee CLI (-json) and the
// zen2eed daemon. The encoding is deterministic for a given (experiment
// set, Scale, Seed): encoding/json sorts map keys, and the one wall-clock
// field (Result.Elapsed) is cleared before encoding — so two runs of the
// same spec produce byte-identical documents. The daemon's
// content-addressed cache and the CLI-vs-daemon diffability both rest on
// that property.

package report

import (
	"bytes"
	"encoding/json"
	"slices"
	"sync"

	"zen2ee/internal/core"
)

// marshalBufs pools the scratch buffers behind MarshalResults,
// MarshalSweepSections, and SweepWriter, so steady-state marshaling (a
// daemon encoding one section per completed sweep configuration) reuses
// one buffer instead of growing a fresh one per document.
var marshalBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getMarshalBuf() *bytes.Buffer {
	buf := marshalBufs.Get().(*bytes.Buffer)
	buf.Reset()
	return buf
}

// encodeIndented renders v into buf as json.MarshalIndent(v, prefix,
// indent) would, plus the trailing newline every canonical document
// carries. Byte-identity with MarshalIndent is relied on by the golden
// tests pinning streamed output against the batch marshalers.
func encodeIndented(buf *bytes.Buffer, v any, prefix, indent string) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent(prefix, indent)
	return enc.Encode(v)
}

// AppendEmbedded appends a canonical document to dst exactly as
// encoding/json writes it for a json.RawMessage value whose lines start
// with prefix (the encoder's prefix plus its "  " indent once per level of
// nesting). A canonical document is encodeIndented(v, "", "  ") output —
// MarshalResults, MarshalSweep, SweepSection.Document — which is
// HTML-escaped, holds no raw newline inside a string, and ends in a
// newline. encoding/json compacts such a value and re-indents it one
// level deeper; for canonical input that is the document minus its final
// newline with prefix after every newline, which is what this writes,
// without scanning the JSON (DESIGN.md "Embedding stored documents").
func AppendEmbedded(dst, doc []byte, prefix string) []byte {
	doc = bytes.TrimSuffix(doc, []byte("\n"))
	dst = slices.Grow(dst, len(doc)+bytes.Count(doc, []byte("\n"))*len(prefix))
	for {
		i := bytes.IndexByte(doc, '\n')
		if i < 0 {
			return append(dst, doc...)
		}
		dst = append(dst, doc[:i+1]...)
		dst = append(dst, prefix...)
		doc = doc[i+1:]
	}
}

// JSONReport is the top-level JSON document.
type JSONReport struct {
	// Schema versions the document layout for long-lived clients.
	Schema  int            `json:"schema"`
	Options core.Options   `json:"options"`
	Results []*core.Result `json:"results"`
}

// JSONSchemaVersion is the current JSONReport layout version.
const JSONSchemaVersion = 1

// MarshalResults renders a result set as the canonical indented JSON
// document, clearing per-run wall-clock timing so the bytes depend only on
// the spec.
func MarshalResults(results []*core.Result, opts core.Options) ([]byte, error) {
	doc := JSONReport{
		Schema:  JSONSchemaVersion,
		Options: opts,
		Results: make([]*core.Result, len(results)),
	}
	for i, r := range results {
		// Shallow copy: only the Elapsed scalar changes, the slices and
		// maps stay shared with the caller's result.
		c := *r
		c.Elapsed = 0
		doc.Results[i] = &c
	}
	buf := getMarshalBuf()
	defer marshalBufs.Put(buf)
	if err := encodeIndented(buf, doc, "", "  "); err != nil {
		return nil, err
	}
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...), nil
}
