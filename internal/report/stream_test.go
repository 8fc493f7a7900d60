package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"zen2ee/internal/core"
)

// marshalSweepReference is the whole-document encoding/json marshal of a
// sweep: the independent reference encoder that SweepWriter, and
// MarshalSweepSections over it, must match byte for byte. Production
// keeps only the streaming encoder.
func marshalSweepReference(t testing.TB, ids []string, configs []core.Config, documents [][]byte) []byte {
	t.Helper()
	doc := JSONSweep{Schema: SweepSchemaVersion, IDs: ids, Configs: make([]SweepSection, len(configs))}
	for i, c := range configs {
		doc.Configs[i] = SweepSection{Config: c, Report: json.RawMessage(documents[i])}
	}
	var buf bytes.Buffer
	if err := encodeIndented(&buf, doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sweepCase builds the inputs and the reference document for n synthetic
// configurations.
func sweepCase(t *testing.T, ids []string, n int) ([]core.Config, [][]byte, []byte) {
	t.Helper()
	configs := make([]core.Config, n)
	documents := make([][]byte, n)
	for i := range configs {
		configs[i] = core.Config{Scale: float64(i%3) + 1, Seed: uint64(i + 1)}
		var err error
		if documents[i], err = MarshalResults(fakeResults(configs[i].Seed), configs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return configs, documents, marshalSweepReference(t, ids, configs, documents)
}

func streamSweep(t *testing.T, ids []string, configs []core.Config, documents [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewSweepWriter(&buf, ids, configs)
	if err != nil {
		t.Fatal(err)
	}
	for i, doc := range documents {
		if err := sw.WriteSection(doc); err != nil {
			t.Fatalf("section %d: %v", i, err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSweepWriterGolden is the streaming byte-identity gate: for 0, 1, 2,
// and N configurations — with explicit IDs and with nil IDs (full
// registry) — the concatenated SweepWriter output, and the buffered
// MarshalSweepSections document, equal the whole-document reference
// marshal.
func TestSweepWriterGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		ids  []string
		n    int
	}{
		{"one-config", []string{"fig1", "sec5a"}, 1},
		{"two-configs", []string{"fig1", "sec5a"}, 2},
		{"many-configs", []string{"fig1", "sec5a"}, 9},
		{"full-registry-nil-ids", nil, 3},
		{"zero-configs", []string{"fig1"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			configs, documents, want := sweepCase(t, tc.ids, tc.n)
			if got := streamSweep(t, tc.ids, configs, documents); !bytes.Equal(got, want) {
				t.Errorf("streamed document differs from the reference:\n got %q\nwant %q", got, want)
			}
			if got, err := MarshalSweepSections(tc.ids, configs, documents); err != nil || !bytes.Equal(got, want) {
				t.Errorf("MarshalSweepSections differs from the reference (err %v):\n got %q\nwant %q", err, got, want)
			}
		})
	}
}

// TestSweepWriterAgainstRunSweepStream pins the byte-identity end to end:
// sections marshaled inside a real RunSweepStream run — which delivers
// them in request order — stream into the exact reference document of the
// collected RunSweep for the same request, which MarshalSweep also
// produces.
func TestSweepWriterAgainstRunSweepStream(t *testing.T) {
	sw := core.Sweep{IDs: []string{"fig1", "sec5a"}, Configs: core.Grid([]float64{0.2}, []uint64{1, 2, 3, 4})}
	sr, err := core.RunSweep(sw, core.RunConfig{Workers: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	documents := make([][]byte, len(sr.Runs))
	for i, run := range sr.Runs {
		if documents[i], err = MarshalResults(run.Results, run.Config); err != nil {
			t.Fatal(err)
		}
	}
	want := marshalSweepReference(t, sr.IDs, sw.Configs, documents)
	if got, err := MarshalSweep(sr); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("MarshalSweep differs from the reference (err %v)", err)
	}

	ids, err := core.CanonicalIDs(sw.IDs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewSweepWriter(&buf, ids, sw.Configs)
	if err != nil {
		t.Fatal(err)
	}
	var streamErr error
	err = core.RunSweepStream(sw, core.RunConfig{Workers: 4}, func(_ int, cr core.ConfigResult, cerr error) {
		if cerr != nil {
			streamErr = cerr
			return
		}
		doc, merr := MarshalResults(cr.Results, cr.Config)
		if merr != nil {
			streamErr = merr
			return
		}
		if werr := w.WriteSection(doc); werr != nil {
			streamErr = werr
		}
	}, nil)
	if err != nil || streamErr != nil {
		t.Fatal(err, streamErr)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Error("streamed sweep document differs from the reference over the collected run")
	}
}

// TestSweepWriterErrors covers the misuse surface: a section past the last
// configuration, empty documents, premature Close, writes after Close, and
// the sticky-error contract.
func TestSweepWriterErrors(t *testing.T) {
	configs, documents, _ := sweepCase(t, nil, 3)

	newWriter := func(t *testing.T) (*bytes.Buffer, *SweepWriter) {
		var buf bytes.Buffer
		sw, err := NewSweepWriter(&buf, nil, configs)
		if err != nil {
			t.Fatal(err)
		}
		return &buf, sw
	}
	writeAll := func(t *testing.T, sw *SweepWriter) {
		for i, doc := range documents {
			if err := sw.WriteSection(doc); err != nil {
				t.Fatalf("section %d: %v", i, err)
			}
		}
	}

	t.Run("out-of-range", func(t *testing.T) {
		_, sw := newWriter(t)
		writeAll(t, sw)
		if err := sw.WriteSection(documents[0]); err == nil {
			t.Fatal("section past the last configuration accepted")
		}
		if err := sw.Close(); err == nil {
			t.Fatal("writer not poisoned after failure")
		}
	})
	t.Run("empty-document", func(t *testing.T) {
		_, sw := newWriter(t)
		if err := sw.WriteSection(nil); err == nil {
			t.Fatal("empty document accepted")
		}
		if err := sw.WriteSection(documents[0]); err == nil {
			t.Fatal("writer not poisoned after failure")
		}
	})
	t.Run("incomplete-close", func(t *testing.T) {
		buf, sw := newWriter(t)
		if err := sw.WriteSection(documents[0]); err != nil {
			t.Fatal(err)
		}
		before := buf.Len()
		if err := sw.Close(); err == nil {
			t.Fatal("incomplete document closed")
		}
		if buf.Len() != before {
			t.Error("failed Close still wrote the document tail")
		}
		// The truncated output must not parse as a sweep document.
		if _, err := UnmarshalSweep(buf.Bytes()); err == nil {
			t.Error("interrupted stream parses as a complete document")
		}
	})
	t.Run("write-after-close", func(t *testing.T) {
		_, sw := newWriter(t)
		writeAll(t, sw)
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteSection(documents[0]); err == nil {
			t.Fatal("write after Close accepted")
		}
	})
}

// BenchmarkSweepWriter streams a four-configuration sweep of whole
// scale-1 suite documents (seeds 1–4), the shape `zen2ee sweep` and a
// sweep's /result write. It times the encoder only: the documents are
// simulated once, before the timer starts.
func BenchmarkSweepWriter(b *testing.B) {
	configs := core.Grid([]float64{1}, []uint64{1, 2, 3, 4})
	documents := make([][]byte, len(configs))
	for i, c := range configs {
		results, err := core.RunIDsConfig(nil, c, core.RunConfig{}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if documents[i], err = MarshalResults(results, c); err != nil {
			b.Fatal(err)
		}
	}
	ids, err := core.CanonicalIDs(nil)
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Reset()
		sw, err := NewSweepWriter(&out, ids, configs)
		if err != nil {
			b.Fatal(err)
		}
		for _, doc := range documents {
			if err := sw.WriteSection(doc); err != nil {
				b.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(out.Len()))
}
