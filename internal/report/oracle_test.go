package report

import (
	"bytes"
	"encoding/json"

	"zen2ee/internal/core"
)

// encodeIndented renders v into buf as json.MarshalIndent(v, prefix,
// indent) would, plus the trailing newline every canonical document
// carries. It is the encoding/json oracle the appenders in json.go are
// tested against; production never calls encoding/json on a document.
func encodeIndented(buf *bytes.Buffer, v any, prefix, indent string) error {
	enc := json.NewEncoder(buf)
	enc.SetIndent(prefix, indent)
	return enc.Encode(v)
}

// oracleResults is what MarshalResults wrote through encoding/json: the
// JSONReport with every Result's Elapsed cleared on a shallow copy.
func oracleResults(results []*core.Result, opts core.Options) ([]byte, error) {
	doc := JSONReport{Schema: JSONSchemaVersion, Options: opts, Results: make([]*core.Result, len(results))}
	for i, r := range results {
		c := *r
		c.Elapsed = 0
		doc.Results[i] = &c
	}
	var buf bytes.Buffer
	if err := encodeIndented(&buf, doc, "", "  "); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
