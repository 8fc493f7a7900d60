package report

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

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

// TestMarshalResultsMatchesEncodingJSON: the whole registry's documents
// at two seeds are byte for byte what encoding/json writes for them.
func TestMarshalResultsMatchesEncodingJSON(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		o := core.Options{Scale: 0.3, Seed: seed}
		results, err := core.RunIDsConfig(nil, o, core.RunConfig{Workers: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MarshalResults(results, o)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleResults(results, o)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Errorf("seed %d: document differs from encoding/json at byte %d:\n got …%q\nwant …%q",
				seed, i, got[max(0, i-80):min(len(got), i+80)], want[max(0, i-80):min(len(want), i+80)])
		}
	}
}

// TestMarshalResultsRejectsNonFinite: JSON has no NaN or infinity, so a
// non-finite value in any float field, or in the options' scale, fails
// the document as encoding/json did.
func TestMarshalResultsRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, tc := range []struct {
			field string
			set   func(r *core.Result, o *core.Options)
		}{
			{"options.scale", func(_ *core.Result, o *core.Options) { o.Scale = bad }},
			{"metrics", func(r *core.Result, _ *core.Options) { r.Metrics["m"] = bad }},
			{"series", func(r *core.Result, _ *core.Options) { r.Series["s"][1] = bad }},
			{"comparison.paper", func(r *core.Result, _ *core.Options) { r.Comparisons[0].Paper = bad }},
			{"comparison.measured", func(r *core.Result, _ *core.Options) { r.Comparisons[0].Measured = bad }},
			{"comparison.rel_tol", func(r *core.Result, _ *core.Options) { r.Comparisons[0].RelTol = bad }},
			{"comparison.abs_tol", func(r *core.Result, _ *core.Options) { r.Comparisons[0].AbsTol = bad }},
		} {
			r := &core.Result{
				ID: "fig1", Title: "t", PaperRef: "p",
				Metrics:     map[string]float64{"m": 1},
				Series:      map[string][]float64{"s": {1, 2, 3}},
				Comparisons: []core.Comparison{{Name: "c", Unit: "W", Paper: 2, Measured: 2.1, RelTol: 0.1, AbsTol: 0.5}},
			}
			o := core.Options{Scale: 1, Seed: 1}
			tc.set(r, &o)
			doc, err := MarshalResults([]*core.Result{r}, o)
			if err == nil || doc != nil {
				t.Errorf("%s = %v: got a %d-byte document and error %v, want no document and an error",
					tc.field, bad, len(doc), err)
			}
			if _, oerr := oracleResults([]*core.Result{r}, o); oerr == nil {
				t.Errorf("%s = %v: encoding/json accepted it", tc.field, bad)
			}
		}
	}
}

// fuzzInput reads a result set from fuzz bytes; reads past the end yield
// zeros.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	c := (*in)[0]
	*in = (*in)[1:]
	return c
}

func (in *fuzzInput) bytes(n int) []byte {
	n = min(n, len(*in))
	b := (*in)[:n]
	*in = (*in)[n:]
	return b
}

// str takes a length byte (mod 32) and that many raw bytes: HTML
// characters, control bytes, invalid UTF-8 and U+2028/U+2029 all pass.
func (in *fuzzInput) str() string { return string(in.bytes(int(in.byte() % 32))) }

// floatEdges are the values a selector byte below len(floatEdges) picks:
// signed zeros, the exponent-form cutoffs and their neighbours,
// subnormals, the extremes and the three values JSON cannot encode.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 1e-6, math.Nextafter(1e-6, 0), -1e-6,
	1e21, math.Nextafter(1e21, 0), -1e21, 5e-324, 2.2250738585072014e-308,
	1e-7, 1.5, -123.456, 1e300, math.MaxFloat64,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// float takes a selector byte: an edge value, or else a float64 from the
// next 8 bytes' raw bits.
func (in *fuzzInput) float() float64 {
	if sel := int(in.byte()); sel < len(floatEdges) {
		return floatEdges[sel]
	}
	var bits [8]byte
	copy(bits[:], in.bytes(8))
	return math.Float64frombits(binary.LittleEndian.Uint64(bits[:]))
}

// count takes a length byte: 0xFF is a nil slice or map, anything else
// n mod 5 elements (0 an empty, non-nil one).
func (in *fuzzInput) count() (n int, isNil bool) {
	c := in.byte()
	return int(c % 5), c == 0xFF
}

func (in *fuzzInput) strs() []string {
	n, isNil := in.count()
	if isNil {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = in.str()
	}
	return ss
}

func (in *fuzzInput) floats() []float64 {
	n, isNil := in.count()
	if isNil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = in.float()
	}
	return vs
}

func (in *fuzzInput) result() *core.Result {
	r := &core.Result{ID: in.str(), Title: in.str(), PaperRef: in.str(), Columns: in.strs()}
	if n, isNil := in.count(); !isNil {
		r.Rows = make([][]string, n)
		for i := range r.Rows {
			r.Rows[i] = in.strs()
		}
	}
	r.Notes = in.strs()
	if n, isNil := in.count(); !isNil {
		r.Metrics = map[string]float64{}
		for range n {
			r.Metrics[in.str()] = in.float()
		}
	}
	if n, isNil := in.count(); !isNil {
		r.Series = map[string][]float64{}
		for range n {
			r.Series[in.str()] = in.floats()
		}
	}
	if n, isNil := in.count(); !isNil {
		r.Comparisons = make([]core.Comparison, n)
		for i := range r.Comparisons {
			r.Comparisons[i] = core.Comparison{
				Name: in.str(), Unit: in.str(), Paper: in.float(), Measured: in.float(),
				RelTol: in.float(), AbsTol: in.float(),
			}
		}
	}
	r.Elapsed = time.Duration(in.byte()) * time.Millisecond
	return r
}

// FuzzMarshalResults: for any result set and options the fuzz bytes
// describe (arbitrary string bytes, floats from edge values or raw bits,
// nil and empty slices and maps, zero and nonzero tolerances),
// MarshalResults writes exactly what encoding/json writes for the
// JSONReport with Elapsed cleared, or both refuse a non-finite value.
// Seeds live in testdata/fuzz/FuzzMarshalResults.
func FuzzMarshalResults(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		opts := core.Options{Scale: in.float()}
		var seed [8]byte
		copy(seed[:], in.bytes(8))
		opts.Seed = binary.LittleEndian.Uint64(seed[:])
		results := make([]*core.Result, in.byte()%4)
		for i := range results {
			results[i] = in.result()
		}
		want, werr := oracleResults(results, opts)
		got, err := MarshalResults(results, opts)
		switch {
		case werr != nil && err != nil:
			if got != nil {
				t.Fatalf("error %v with a %d-byte document", err, len(got))
			}
		case werr != nil:
			t.Fatalf("encoding/json failed (%v) but MarshalResults wrote %q", werr, got)
		case err != nil:
			t.Fatalf("MarshalResults failed (%v) but encoding/json wrote %q", err, want)
		case !bytes.Equal(got, want):
			t.Fatalf("documents differ:\n got %q\nwant %q", got, want)
		}
	})
}

// BenchmarkMarshalResults marshals the scale-1, seed-1 full-suite
// document, the one `zen2ee run all -json` writes; the suite is simulated
// once, before the timer starts.
func BenchmarkMarshalResults(b *testing.B) {
	o := core.DefaultOptions()
	results, err := core.RunIDsConfig(nil, o, core.RunConfig{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	var n int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		doc, err := MarshalResults(results, o)
		if err != nil {
			b.Fatal(err)
		}
		n = len(doc)
	}
	b.SetBytes(int64(n))
}
