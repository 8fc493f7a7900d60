// Command benchdiff compares two benchmark result files in `go test -json`
// form (the BENCH_* artifacts CI uploads) and prints an old-vs-new table of
// ns/op, B/op and allocs/op per benchmark, with relative deltas — a
// dependency-free benchstat for the repository's perf-trajectory artifacts.
// A benchmark run several times in one file (`-count=N`) is compared by
// the median of its runs, column by column. Benchmarks recorded without
// -benchmem show "-" in the memory columns, and a trailing `geomean` row
// summarizes each column over the benchmarks the two files share.
//
// Usage:
//
//	benchdiff old.json new.json
//
// Exit status is 0 even when benchmarks regress: the tool makes regressions
// visible in the CI log, it does not gate on them (simulation benchmarks on
// shared runners are too noisy for a hard threshold).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metrics holds the standard per-benchmark measurements.
type metrics struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	HasMem      bool
}

// testEvent is the subset of the test2json event schema benchdiff consumes.
type testEvent struct {
	Action string `json:"Action"`
	Test   string `json:"Test"`
	Output string `json:"Output"`
}

// parseFile extracts benchmark results from a test2json stream, one per
// benchmark name: the median of every run of it the stream holds. Lines
// that are not valid JSON events are tolerated (plain `go test -bench`
// output can be diffed too, one result line per line).
func parseFile(r io.Reader) (map[string]metrics, error) {
	runs := make(map[string][]metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		var ev testEvent
		if err := json.Unmarshal([]byte(line), &ev); err == nil && ev.Action == "output" {
			line = strings.TrimSuffix(ev.Output, "\n")
			// test2json splits a sub-benchmark's result across two output
			// events: the padded name alone, then the measurements. The
			// measurement event still names the benchmark in its Test
			// field, so graft it back on when the line lacks one.
			if strings.HasPrefix(ev.Test, "Benchmark") &&
				!strings.HasPrefix(strings.TrimSpace(line), "Benchmark") {
				line = ev.Test + " " + line
			}
		}
		name, m, ok := parseBenchLine(line)
		if ok {
			runs[name] = append(runs[name], m)
		}
	}
	out := make(map[string]metrics, len(runs))
	for name, ms := range runs {
		out[name] = medianOf(ms)
	}
	return out, sc.Err()
}

// medianOf returns the per-column median of a benchmark's runs; the memory
// columns take the median over the runs that recorded them.
func medianOf(ms []metrics) metrics {
	var ns, bytes, allocs []float64
	for _, m := range ms {
		ns = append(ns, m.NsPerOp)
		if m.HasMem {
			bytes = append(bytes, m.BytesPerOp)
			allocs = append(allocs, m.AllocsPerOp)
		}
	}
	return metrics{
		NsPerOp:     median(ns),
		BytesPerOp:  median(bytes),
		AllocsPerOp: median(allocs),
		HasMem:      len(bytes) > 0,
	}
}

// median returns the median of vs (the mean of the middle two for an even
// count), 0 for none. It sorts vs in place.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBenchLine parses one benchmark result line:
//
//	BenchmarkName-8   1234   567.8 ns/op   90 B/op   1 allocs/op   2 extra/unit
func parseBenchLine(line string) (string, metrics, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", metrics{}, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", metrics{}, false // not an iteration count
	}
	name := fields[0]
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		// Strip the GOMAXPROCS suffix so runs from different machines align.
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	var m metrics
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", metrics{}, false
		}
		switch fields[i+1] {
		case "ns/op":
			m.NsPerOp = v
		case "B/op":
			m.BytesPerOp = v
			m.HasMem = true
		case "allocs/op":
			m.AllocsPerOp = v
			m.HasMem = true
		}
	}
	return name, m, true
}

// geomean computes the geometric mean of vs, skipping non-positive values
// (their log is undefined; a 0 allocs/op result stays a per-row claim and
// never drags a summary to zero). ok is false when nothing qualified.
func geomean(vs []float64) (g float64, ok bool) {
	sum, n := 0.0, 0
	for _, v := range vs {
		if v > 0 {
			sum += math.Log(v)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return math.Exp(sum / float64(n)), true
}

// delta formats the relative change from old to new.
func delta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "      ="
		}
		return "    new"
	}
	return fmt.Sprintf("%+6.1f%%", (new-old)/old*100)
}

func run(oldPath, newPath string, w io.Writer) error {
	oldF, err := os.Open(oldPath)
	if err != nil {
		return err
	}
	defer oldF.Close()
	newF, err := os.Open(newPath)
	if err != nil {
		return err
	}
	defer newF.Close()

	olds, err := parseFile(oldF)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", oldPath, err)
	}
	news, err := parseFile(newF)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", newPath, err)
	}
	if len(news) == 0 {
		return fmt.Errorf("no benchmark results in %s", newPath)
	}

	names := make([]string, 0, len(news))
	for name := range news {
		names = append(names, name)
	}
	sort.Strings(names)

	// Benchmarks run without -benchmem carry no memory measurements; their
	// B/op and allocs/op columns render as "-" rather than fabricated zeros
	// (a zero would read as "allocation-free", which is a real claim other
	// benchmarks in these artifacts do make).
	memCols := func(m metrics) (string, string) {
		if !m.HasMem {
			return "-", "-"
		}
		return strconv.FormatFloat(m.BytesPerOp, 'f', 0, 64), strconv.FormatFloat(m.AllocsPerOp, 'f', 0, 64)
	}

	fmt.Fprintf(w, "%-40s %14s %14s %8s %9s %9s %8s %10s %10s %8s\n",
		"benchmark", "old ns/op", "new ns/op", "Δ", "old B/op", "new B/op", "Δ",
		"old allocs", "new allocs", "Δ")
	for _, name := range names {
		n := news[name]
		nB, nA := memCols(n)
		o, ok := olds[name]
		if !ok {
			memNew := "new"
			if !n.HasMem {
				memNew = "-"
			}
			fmt.Fprintf(w, "%-40s %14s %14.1f %8s %9s %9s %8s %10s %10s %8s\n",
				name, "-", n.NsPerOp, "new", "-", nB, memNew, "-", nA, memNew)
			continue
		}
		oB, oA := memCols(o)
		memDelta := func(old, new float64) string {
			if !o.HasMem || !n.HasMem {
				return "-"
			}
			return delta(old, new)
		}
		fmt.Fprintf(w, "%-40s %14.1f %14.1f %8s %9s %9s %8s %10s %10s %8s\n",
			name, o.NsPerOp, n.NsPerOp, delta(o.NsPerOp, n.NsPerOp),
			oB, nB, memDelta(o.BytesPerOp, n.BytesPerOp),
			oA, nA, memDelta(o.AllocsPerOp, n.AllocsPerOp))
	}
	// Summary row: the per-column geometric mean over benchmarks present in
	// both files — one number per column for the CI log to watch instead of
	// eyeballing every row. New-only and removed benchmarks are excluded
	// (there is nothing to pair them with), and the row is omitted entirely
	// when the files share no benchmark.
	var oldNs, newNs, oldB, newB, oldA, newA []float64
	for _, name := range names {
		o, ok := olds[name]
		if !ok {
			continue
		}
		n := news[name]
		oldNs = append(oldNs, o.NsPerOp)
		newNs = append(newNs, n.NsPerOp)
		if o.HasMem && n.HasMem {
			oldB = append(oldB, o.BytesPerOp)
			newB = append(newB, n.BytesPerOp)
			oldA = append(oldA, o.AllocsPerOp)
			newA = append(newA, n.AllocsPerOp)
		}
	}
	geomeanCols := func(old, new []float64) (string, string, string) {
		og, okOld := geomean(old)
		ng, okNew := geomean(new)
		if !okOld || !okNew {
			return "-", "-", "-"
		}
		return strconv.FormatFloat(og, 'f', 1, 64), strconv.FormatFloat(ng, 'f', 1, 64), delta(og, ng)
	}
	if len(oldNs) > 0 {
		oNs, nNs, dNs := geomeanCols(oldNs, newNs)
		oBs, nBs, dB := geomeanCols(oldB, newB)
		oAs, nAs, dA := geomeanCols(oldA, newA)
		fmt.Fprintf(w, "%-40s %14s %14s %8s %9s %9s %8s %10s %10s %8s\n",
			"geomean", oNs, nNs, dNs, oBs, nBs, dB, oAs, nAs, dA)
	}
	for name := range olds {
		if _, ok := news[name]; !ok {
			fmt.Fprintf(w, "%-40s (removed)\n", name)
		}
	}
	return nil
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff old.json new.json")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
