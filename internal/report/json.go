// The canonical JSON document shared by the zen2ee CLI (-json) and the
// zen2eed daemon. The encoding is deterministic for a given (experiment
// set, Scale, Seed): map keys are written in sorted order, and the one
// wall-clock field (Result.Elapsed) is never written — so two runs of the
// same spec produce byte-identical documents. The daemon's
// content-addressed cache and the CLI-vs-daemon diffability both rest on
// that property.
//
// A docWriter appends the document field by field rather than through
// encoding/json's reflection, compaction and re-indent passes. Its bytes
// are exactly what json.MarshalIndent(v, "", "  ") plus a newline writes
// for the JSONReport (and for a sweep's header and section configs), a
// property pinned by tests against the encoding/json oracle kept in
// oracle_test.go, and by FuzzMarshalResults.

package report

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"zen2ee/internal/core"
)

// marshalBufs pools the scratch buffers behind MarshalResults,
// MarshalSweepSections, and SweepWriter, so steady-state marshaling (a
// daemon encoding one section per completed sweep configuration) appends
// into one grown buffer instead of growing a fresh one per document.
var marshalBufs = sync.Pool{New: func() any { return new([]byte) }}

// AppendEmbedded appends a canonical document to dst exactly as
// encoding/json writes it for a json.RawMessage value whose lines start
// with prefix (the encoder's prefix plus its "  " indent once per level of
// nesting). A canonical document is what json.MarshalIndent(v, "", "  ")
// plus a newline writes — MarshalResults, MarshalSweep,
// SweepSection.Document — which is HTML-escaped, holds no raw newline
// inside a string, and ends in a newline. encoding/json compacts such a
// value and re-indents it one level deeper; for canonical input that is
// the document minus its final newline with prefix after every newline,
// which is what this writes, without scanning the JSON (DESIGN.md
// "Embedding stored documents").
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
// document, leaving out per-run wall-clock timing so the bytes depend only
// on the spec. A NaN or infinite value anywhere in results or opts is an
// error: JSON cannot encode it.
func MarshalResults(results []*core.Result, opts core.Options) ([]byte, error) {
	p := marshalBufs.Get().(*[]byte)
	defer marshalBufs.Put(p)
	w := docWriter{b: (*p)[:0]}
	w.report(&JSONReport{Schema: JSONSchemaVersion, Options: opts, Results: results})
	*p = w.b[:0]
	if w.err != nil {
		return nil, w.err
	}
	return append(make([]byte, 0, len(w.b)), w.b...), nil
}

// docWriter appends canonical JSON to b, with the indentation and escaping
// json.MarshalIndent(v, "", "  ") writes. A float JSON cannot hold sets
// err; the bytes written after it are to be discarded.
type docWriter struct {
	b    []byte
	keys []string // scratch for sorting map keys
	err  error
}

// report writes doc, each Result's fields in struct order under
// encoding/json's omitempty rules with Elapsed never written, and each
// Comparison in its MarshalJSON wire form.
func (w *docWriter) report(doc *JSONReport) {
	w.raw("{\n  \"schema\": ")
	w.b = strconv.AppendInt(w.b, int64(doc.Schema), 10)
	w.raw(",\n  \"options\": ")
	w.options(doc.Options, 1)
	w.raw(",\n  \"results\": [")
	for i, r := range doc.Results {
		w.grow(16 << 10)
		w.elem(i, 2)
		w.result(r)
	}
	w.closeArray(len(doc.Results), 1)
	w.raw("\n}\n")
}

// result writes one Result object whose opening brace sits at depth 2.
func (w *docWriter) result(r *core.Result) {
	w.raw("{\n      \"id\": ")
	w.str(r.ID)
	w.raw(",\n      \"title\": ")
	w.str(r.Title)
	w.raw(",\n      \"paper_ref\": ")
	w.str(r.PaperRef)
	if len(r.Columns) > 0 {
		w.raw(",\n      \"columns\": ")
		w.strs(r.Columns, 3)
	}
	if len(r.Rows) > 0 {
		w.raw(",\n      \"rows\": [")
		for i, row := range r.Rows {
			w.elem(i, 4)
			w.strs(row, 4)
		}
		w.raw("\n      ]")
	}
	if len(r.Notes) > 0 {
		w.raw(",\n      \"notes\": ")
		w.strs(r.Notes, 3)
	}
	if len(r.Metrics) > 0 {
		w.raw(",\n      \"metrics\": {")
		for i, k := range sortedKeys(w, r.Metrics) {
			w.elem(i, 4)
			w.str(k)
			w.raw(": ")
			w.float(r.Metrics[k])
		}
		w.raw("\n      }")
	}
	if len(r.Series) > 0 {
		w.raw(",\n      \"series\": {")
		for i, k := range sortedKeys(w, r.Series) {
			w.elem(i, 4)
			w.str(k)
			w.raw(": ")
			w.floats(r.Series[k], 4)
		}
		w.raw("\n      }")
	}
	if len(r.Comparisons) > 0 {
		w.raw(",\n      \"comparisons\": [")
		for i, c := range r.Comparisons {
			w.elem(i, 4)
			w.comparison(c)
		}
		w.raw("\n      ]")
	}
	w.raw("\n    }")
}

// comparison writes the Comparison wire form (core's comparisonJSON, as
// Comparison.MarshalJSON writes it) whose opening brace sits at depth 4.
func (w *docWriter) comparison(c core.Comparison) {
	const field = ",\n          \""
	w.raw("{\n          \"name\": ")
	w.str(c.Name)
	if c.Unit != "" {
		w.raw(field + `unit": `)
		w.str(c.Unit)
	}
	w.raw(field + `paper": `)
	w.float(c.Paper)
	w.raw(field + `measured": `)
	w.float(c.Measured)
	if c.RelTol != 0 {
		w.raw(field + `rel_tol": `)
		w.float(c.RelTol)
	}
	if c.AbsTol != 0 {
		w.raw(field + `abs_tol": `)
		w.float(c.AbsTol)
	}
	w.raw(field + `deviation": `)
	w.str(c.DeviationCell())
	w.raw(field + `ok": `)
	w.b = strconv.AppendBool(w.b, c.OK())
	w.raw("\n        }")
}

// options writes an Options object whose opening brace sits at depth: the
// report's "options" and a sweep section's "config".
func (w *docWriter) options(o core.Options, depth int) {
	w.raw("{")
	w.newline(depth + 1)
	w.raw(`"scale": `)
	w.float(o.Scale)
	w.raw(",")
	w.newline(depth + 1)
	w.raw(`"seed": `)
	w.b = strconv.AppendUint(w.b, o.Seed, 10)
	w.newline(depth)
	w.raw("}")
}

// sweepHeader writes a JSONSweep document up to the opening bracket of its
// configs array.
func (w *docWriter) sweepHeader(ids []string) {
	w.raw("{\n  \"schema\": ")
	w.b = strconv.AppendInt(w.b, SweepSchemaVersion, 10)
	if len(ids) > 0 {
		w.raw(",\n  \"ids\": ")
		w.strs(ids, 1)
	}
	w.raw(",\n  \"configs\": [")
}

// strs writes a string array whose opening bracket sits at depth: null
// when nil, [] when empty.
func (w *docWriter) strs(ss []string, depth int) {
	if ss == nil {
		w.raw("null")
		return
	}
	w.raw("[")
	for i, s := range ss {
		w.elem(i, depth+1)
		w.str(s)
	}
	w.closeArray(len(ss), depth)
}

// floats is strs for a float array.
func (w *docWriter) floats(vs []float64, depth int) {
	if vs == nil {
		w.raw("null")
		return
	}
	w.raw("[")
	for i, v := range vs {
		w.elem(i, depth+1)
		w.float(v)
	}
	w.closeArray(len(vs), depth)
}

// closeArray ends an array of n elements whose opening bracket sits at
// depth.
func (w *docWriter) closeArray(n, depth int) {
	if n > 0 {
		w.newline(depth)
	}
	w.raw("]")
}

// nlIndent is a newline and the deepest indent of any canonical line.
const nlIndent = "\n          "

// newline starts a line indented depth levels of two spaces.
func (w *docWriter) newline(depth int) { w.raw(nlIndent[:1+2*depth]) }

// elem starts the i-th member of an array or object whose members sit at
// depth.
func (w *docWriter) elem(i, depth int) {
	if i > 0 {
		w.raw(",")
	}
	w.newline(depth)
}

func (w *docWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *docWriter) str(s string) { w.b = appendString(w.b, s) }

// float writes v as encoding/json writes a float64: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 on, with the
// exponent unpadded (1e-7, not 1e-07). A NaN or infinity sets err.
func (w *docWriter) float(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		if w.err == nil {
			w.err = fmt.Errorf("report: unsupported value %v: JSON has no NaN or infinity", v)
		}
		return
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(w.b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	w.b = b
}

// sortedKeys returns m's keys in encoding/json's order (byte-wise), in the
// writer's scratch slice.
func sortedKeys[V any](w *docWriter, m map[string]V) []string {
	w.keys = w.keys[:0]
	for k := range m {
		w.keys = append(w.keys, k)
	}
	slices.Sort(w.keys)
	return w.keys
}

// grow makes room for n more bytes, doubling the capacity as bytes.Buffer
// does: append alone grows a large slice by about a quarter at a time,
// which for a fresh 100 KB document allocates several times its size.
func (w *docWriter) grow(n int) {
	if cap(w.b)-len(w.b) < n {
		w.b = append(make([]byte, 0, 2*cap(w.b)+n), w.b...)
	}
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json's
// default encoder writes it: quotes, backslashes and control bytes
// escaped (\b \f \n \r \t short, the rest \u00XX), <, > and & escaped
// for HTML, invalid UTF-8 bytes replaced by \ufffd, and U+2028/U+2029
// escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		var esc string
		switch {
		case r == utf8.RuneError && size == 1:
			esc = `\ufffd`
		case r == '\u2028':
			esc = `\u2028`
		case r == '\u2029':
			esc = `\u2029`
		default:
			i += size
			continue
		}
		b = append(b, s[start:i]...)
		b = append(b, esc...)
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
