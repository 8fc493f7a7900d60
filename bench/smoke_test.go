package main

import (
	"io"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"zen2ee/internal/report"
)

// tinySize shrinks every workload to a fraction of a second of work, for
// tests only.
var tinySize = sizing{
	scale: 0.1, hitSpecs: 2, setups: 1,
	simEvents: 10_000, advances: 20, paceEvents: 1000,
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

func metricNames(ms map[string]Metric) []string {
	out := make([]string, 0, len(ms))
	for name := range ms {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSpecMatchesCode pins BENCHMARK.json to the workloads and metric
// definitions the code reports.
func TestSpecMatchesCode(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	e2e := make([]metricDef, len(spec.EndToEnd))
	for i, m := range spec.EndToEnd {
		e2e[i] = m.metricDef
	}
	for _, c := range []struct {
		what       string
		spec, code []metricDef
	}{{"end_to_end", e2e, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		want := defsByName(c.code)
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.what, len(c.spec), len(c.code))
		}
		for _, m := range c.spec {
			if want[m.Name] != m {
				t.Errorf("%s: BENCHMARK.json has %+v, the code %+v", c.what, m, want[m.Name])
			}
		}
	}
}

// TestSmokeEveryWorkload runs every workload at tinySize, untraced and
// traced, and checks that each run verifies its outputs and reports exactly
// the metrics BENCHMARK.json names.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	e2e := make([]metricDef, len(spec.EndToEnd))
	for i, m := range spec.EndToEnd {
		e2e[i] = m.metricDef
	}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			tracePath := ""
			want := names(e2e)
			if traced {
				tracePath = filepath.Join(dir, w.name+".trace.json")
				want = names(spec.PerLayer)
			}
			res, err := execute(w, 5, 300*time.Millisecond, tracePath, tinySize, io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %t): %v", w.name, traced, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s (traced %t): %d attempted, %d failed", w.name, traced, res.Attempted, res.Failed)
			}
			if got := metricNames(res.Metrics); !equal(got, want) {
				t.Errorf("%s (traced %t): reported %v, BENCHMARK.json names %v", w.name, traced, got, want)
			}
			if !traced {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, m.Value)
					}
				}
				continue
			}
			raw, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			doc, err := report.UnmarshalTrace(raw)
			if err != nil {
				t.Fatalf("%s: trace does not load: %v", w.name, err)
			}
			if len(doc.CompleteEvents()) == 0 {
				t.Errorf("%s: trace has no spans", w.name)
			}
		}
	}
}
