package report

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// embedReference encodes doc as a json.RawMessage nested depth objects
// deep, with encoder prefix pre, and the bytes that AppendEmbedded must
// reproduce: the same wrapper written by hand around the splice at prefix
// pre + depth indents.
func embedReference(t *testing.T, doc []byte, pre string, depth int) (want, got []byte) {
	t.Helper()
	var v any = json.RawMessage(doc)
	for range depth {
		v = map[string]any{"k": v}
	}
	var buf bytes.Buffer
	if err := encodeIndented(&buf, v, pre, "  "); err != nil {
		t.Fatal(err)
	}
	for l := 1; l <= depth; l++ {
		got = append(got, "{\n"+pre+strings.Repeat("  ", l)+`"k": `...)
	}
	got = AppendEmbedded(got, doc, pre+strings.Repeat("  ", depth))
	for l := depth - 1; l >= 0; l-- {
		got = append(got, "\n"+pre+strings.Repeat("  ", l)+"}"...)
	}
	return buf.Bytes(), append(got, '\n')
}

// FuzzEmbedded: for any JSON value, the splice of its canonical encoding
// at depths 1–3 (under no encoder prefix and under a sweep section's) is
// byte for byte what encoding/json writes for it as a json.RawMessage.
// Seeds (testdata/fuzz/FuzzEmbedded) cover empty objects and arrays,
// HTML characters, U+2028/U+2029, escaped newlines and deep nesting.
func FuzzEmbedded(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var v any
		if json.Unmarshal(data, &v) != nil {
			t.Skip()
		}
		var canon bytes.Buffer
		if err := encodeIndented(&canon, v, "", "  "); err != nil {
			t.Fatal(err)
		}
		for _, pre := range []string{"", "    "} {
			for depth := 1; depth <= 3; depth++ {
				want, got := embedReference(t, canon.Bytes(), pre, depth)
				if !bytes.Equal(got, want) {
					t.Fatalf("prefix %q depth %d:\n got %q\nwant %q", pre, depth, got, want)
				}
			}
		}
	})
}
