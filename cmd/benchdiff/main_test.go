package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line  string
		name  string
		ns    float64
		alloc float64
		ok    bool
	}{
		{"BenchmarkEngineScheduleFire-8   \t100000\t        12.35 ns/op\t       0 B/op\t       0 allocs/op", "BenchmarkEngineScheduleFire", 12.35, 0, true},
		{"BenchmarkMachineRefresh \t5000\t       415.5 ns/op\t     108 B/op\t       1 allocs/op", "BenchmarkMachineRefresh", 415.5, 1, true},
		{"BenchmarkFig6Firestarter-2 \t1\t123456 ns/op\t2.03 GHz/smt", "BenchmarkFig6Firestarter", 123456, 0, true},
		{"PASS", "", 0, 0, false},
		{"ok  \tzen2ee\t0.015s", "", 0, 0, false},
		{"Benchmark text without numbers", "", 0, 0, false},
	}
	for _, c := range cases {
		name, m, ok := parseBenchLine(c.line)
		if ok != c.ok {
			t.Fatalf("parseBenchLine(%q) ok = %v, want %v", c.line, ok, c.ok)
		}
		if !ok {
			continue
		}
		if name != c.name || m.NsPerOp != c.ns || m.AllocsPerOp != c.alloc {
			t.Errorf("parseBenchLine(%q) = (%q, %+v), want (%q, ns=%v allocs=%v)",
				c.line, name, m, c.name, c.ns, c.alloc)
		}
	}
}

func TestRunDiffsTest2JSONStreams(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	new := filepath.Join(dir, "new.json")
	oldData := `{"Action":"output","Output":"BenchmarkEngineScheduleFire-8 \t1000\t50.0 ns/op\t16 B/op\t1 allocs/op\n"}
{"Action":"output","Output":"BenchmarkGone-8 \t10\t99.0 ns/op\n"}
{"Action":"run","Test":"BenchmarkEngineScheduleFire"}
`
	newData := `{"Action":"output","Output":"BenchmarkEngineScheduleFire-4 \t1000\t12.5 ns/op\t0 B/op\t0 allocs/op\n"}
{"Action":"output","Output":"BenchmarkFresh-4 \t1000\t7.0 ns/op\t0 B/op\t0 allocs/op\n"}
`
	if err := os.WriteFile(old, []byte(oldData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(new, []byte(newData), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(old, new, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkEngineScheduleFire", "50.0", "12.5", "-75.0%", "-100.0%",
		"old B/op", "16",
		"BenchmarkFresh", "new",
		"BenchmarkGone", "(removed)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestParseFileStitchesSplitSubBenchmarkEvents: test2json emits a
// sub-benchmark's result as two output events — the padded name alone,
// then a measurement line that only names the benchmark in its Test
// field. Both halves must land as one parsed result.
func TestParseFileStitchesSplitSubBenchmarkEvents(t *testing.T) {
	stream := `{"Action":"run","Test":"BenchmarkBatched/batch=8"}
{"Action":"output","Test":"BenchmarkBatched/batch=8","Output":"BenchmarkBatched/batch=8\n"}
{"Action":"output","Test":"BenchmarkBatched/batch=8","Output":"BenchmarkBatched/batch=8         \t"}
{"Action":"output","Test":"BenchmarkBatched/batch=8","Output":"     200\t    145884 ns/op\t   21462 B/op\t     255 allocs/op\n"}
{"Action":"output","Test":"BenchmarkWhole","Output":"BenchmarkWhole \t1000\t12.5 ns/op\t0 B/op\t0 allocs/op\n"}
`
	got, err := parseFile(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	m, ok := got["BenchmarkBatched/batch=8"]
	if !ok {
		t.Fatalf("split sub-benchmark missing from %v", got)
	}
	if m.NsPerOp != 145884 || m.AllocsPerOp != 255 || !m.HasMem {
		t.Fatalf("sub-benchmark parsed as %+v", m)
	}
	if _, ok := got["BenchmarkWhole"]; !ok {
		t.Fatalf("single-event benchmark missing from %v", got)
	}
}

// TestRunRendersDashForMissingMemStats: benchmarks recorded without
// -benchmem must show "-" in the B/op and allocs/op columns, not a
// fabricated 0 (which would read as an allocation-free claim).
func TestRunRendersDashForMissingMemStats(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	new := filepath.Join(dir, "new.json")
	if err := os.WriteFile(old, []byte("BenchmarkNoMem-8 \t100\t50.0 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(new, []byte("BenchmarkNoMem-8 \t100\t40.0 ns/op\nBenchmarkFreshNoMem-8 \t100\t7.0 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(old, new, &sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// name, old ns, new ns, Δ, then six memory columns — all dashes.
		if len(fields) != 10 {
			t.Fatalf("row has %d columns, want 10: %q", len(fields), line)
		}
		for _, f := range fields[4:] {
			if f != "-" {
				t.Errorf("memory column %q in %q, want \"-\"", f, line)
			}
		}
	}
}

func TestGeomean(t *testing.T) {
	near := func(got, want float64) bool { return got > want*(1-1e-12) && got < want*(1+1e-12) }
	if g, ok := geomean([]float64{2, 8}); !ok || !near(g, 4) {
		t.Fatalf("geomean(2,8) = %v, %v; want ≈4, true", g, ok)
	}
	// Non-positive values are skipped, not folded in as zeros.
	if g, ok := geomean([]float64{0, 9}); !ok || !near(g, 9) {
		t.Fatalf("geomean(0,9) = %v, %v; want ≈9, true", g, ok)
	}
	if _, ok := geomean([]float64{0, 0}); ok {
		t.Fatal("geomean of all-zero values reported ok")
	}
	if _, ok := geomean(nil); ok {
		t.Fatal("geomean of nothing reported ok")
	}
}

// TestRunPrintsGeomeanRow: the summary row pairs benchmarks present in
// both files (geomean of 50,200 = 100 old; 25,100 = 50 new → -50%),
// ignoring the new-only benchmark, and renders "-" for the memory columns
// when no shared benchmark carries -benchmem stats.
func TestRunPrintsGeomeanRow(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	new := filepath.Join(dir, "new.json")
	oldData := "BenchmarkA-8 \t100\t50.0 ns/op\nBenchmarkB-8 \t100\t200.0 ns/op\n"
	newData := "BenchmarkA-8 \t100\t25.0 ns/op\nBenchmarkB-8 \t100\t100.0 ns/op\nBenchmarkOnlyNew-8 \t100\t999.0 ns/op\n"
	if err := os.WriteFile(old, []byte(oldData), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(new, []byte(newData), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(old, new, &sb); err != nil {
		t.Fatal(err)
	}
	var row string
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "geomean") {
			row = line
			break
		}
	}
	if row == "" {
		t.Fatalf("output lacks a geomean row:\n%s", sb.String())
	}
	fields := strings.Fields(row)
	want := []string{"geomean", "100.0", "50.0", "-50.0%", "-", "-", "-", "-", "-", "-"}
	if len(fields) != len(want) {
		t.Fatalf("geomean row has %d columns, want %d: %q", len(fields), len(want), row)
	}
	for i, f := range fields {
		if f != want[i] {
			t.Errorf("geomean column %d = %q, want %q (row %q)", i, f, want[i], row)
		}
	}
}

// TestRunOmitsGeomeanWithoutOverlap: files sharing no benchmark have no
// pairs to summarize; fabricating a row would misread as a comparison.
func TestRunOmitsGeomeanWithoutOverlap(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.json")
	new := filepath.Join(dir, "new.json")
	if err := os.WriteFile(old, []byte("BenchmarkGone-8 \t100\t50.0 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(new, []byte("BenchmarkFresh-8 \t100\t40.0 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := run(old, new, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "geomean") {
		t.Fatalf("geomean row printed with zero shared benchmarks:\n%s", sb.String())
	}
}

func TestRunRejectsEmptyNew(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(empty, empty, &strings.Builder{}); err == nil {
		t.Fatal("expected error for a new file with no benchmark results")
	}
}

// TestParseFileTakesMedianOfRepeatedRuns: a stream from `-count=5` holds
// five results for one benchmark. Each column compares by its median, not
// by whichever run came last.
func TestParseFileTakesMedianOfRepeatedRuns(t *testing.T) {
	var sb strings.Builder
	for _, r := range []string{
		"300.0 ns/op  40 B/op  4 allocs/op",
		"100.0 ns/op  0 B/op  0 allocs/op",
		"500.0 ns/op  80 B/op  8 allocs/op",
		"200.0 ns/op  20 B/op  2 allocs/op",
		"900.0 ns/op  90 B/op  9 allocs/op",
	} {
		fmt.Fprintf(&sb, `{"Action":"output","Test":"BenchmarkDiskPut","Output":"BenchmarkDiskPut-2 \t300\t%s\n"}`+"\n", r)
	}
	got, err := parseFile(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	want := metrics{NsPerOp: 300, BytesPerOp: 40, AllocsPerOp: 4, HasMem: true}
	if len(got) != 1 || got["BenchmarkDiskPut"] != want {
		t.Fatalf("parsed %+v, want only BenchmarkDiskPut at %+v", got, want)
	}
}
