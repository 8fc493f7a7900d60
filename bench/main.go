// Command bench is zen2ee's benchmark: two workloads that together cover
// the event engine and machine model, the experiment shards and their
// scheduler, the canonical JSON encoder, shard memoization in the result
// store, and the HTTP daemon — measured end to end with tracing off, and
// layer by layer from a second, traced run. See README.md.
//
//	go run . run -workload W -seed S [-seconds N] [-trace F] [-out R.json]
//	go run . compare A.json B.json
//	go run . golden
//
// run.sh is the entry point BENCHMARK.json names: it builds this command
// and runs `drive`, the form that ends its output with one JSON line.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// errFailed reports a run that completed with failed operations; its
// results are printed before the command exits non-zero.
var errFailed = errors.New("operations failed")

// watchdogSlack is how long past its measured time a drive run may take:
// set-up and verification take well under a minute, and a run of the
// measured time BENCHMARK.json names still ends inside three minutes.
const watchdogSlack = 100 * time.Second

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = runCmd(os.Args[2:], os.Stdout, os.Stderr)
	case "drive":
		err = driveCmd(os.Args[2:], os.Stdout, os.Stderr)
	case "compare":
		err = compareCmd(os.Args[2:], os.Stdout)
	case "golden":
		err = goldenCmd(os.Args[2:], os.Stderr)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  bench run -workload W -seed S [-seconds N] [-trace F] [-out R.json]
  bench drive --workload W --seed S --seconds N --trace 0|1 [--workdir D] [--out R.json]
  bench compare A.json B.json
  bench golden`)
	os.Exit(2)
}

// runFlags are the flags run and drive share.
type runFlags struct {
	workload string
	seed     uint64
	seconds  float64
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.workload, "workload", "", "workload to run")
	fs.Uint64Var(&f.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.Float64Var(&f.seconds, "seconds", 50, "how long to measure")
}

func (f *runFlags) execute(tracePath string, logw io.Writer) (*Result, error) {
	w, err := workloadByName(f.workload)
	if err != nil {
		return nil, err
	}
	if f.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	return execute(w, f.seed, time.Duration(f.seconds*float64(time.Second)), tracePath, fullSize, logw)
}

// runCmd runs one workload, prints every metric, and optionally appends the
// result to a result file for compare.
func runCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var f runFlags
	f.register(fs)
	tracePath := fs.String("trace", "", "traced run: write the Chrome trace here and report per-layer metrics")
	out := fs.String("out", "", "append the result to this result file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	res, err := f.execute(*tracePath, stderr)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return err
		}
	}
	if res.Failed > 0 {
		return errFailed
	}
	return nil
}

// driveCmd runs one workload in the form BENCHMARK.json's command is
// invoked in, printing the metrics as a table on stderr and, as the last
// line of stdout, one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1.
func driveCmd(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("drive", flag.ContinueOnError)
	var f runFlags
	f.register(fs)
	traced := fs.Int("trace", 0, "1 for the traced, per-layer run")
	workdir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for the traced run's trace")
	out := fs.String("out", "", "append the result to this result file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	tracePath := ""
	if *traced == 1 {
		// One file per workload, replaced by each traced run, so repeated
		// runs do not pile up traces in the checkout.
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			return err
		}
		tracePath = filepath.Join(*workdir, "trace-"+f.workload+".json")
	}
	// Past its slack a run is wedged, and it fails rather than holding its
	// caller.
	limit := time.Duration(f.seconds*float64(time.Second)) + watchdogSlack
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "bench: run exceeded %v, aborting\n", limit)
		os.Exit(3)
	})
	defer watchdog.Stop()
	res, err := f.execute(tracePath, stderr)
	if err != nil {
		return err
	}
	printResult(stderr, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			return err
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(b))
	if res.Failed > 0 {
		return errFailed
	}
	return nil
}

// printResult prints every metric of a result by name, with its unit and
// sample count.
func printResult(w io.Writer, res *Result) {
	kind := "end-to-end"
	if res.Traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "%s seed %d, %gs measured, %s: %d attempted, %d failed\n",
		res.Workload, res.Seed, res.Seconds, kind, res.Attempted, res.Failed)
	section := func(ms map[string]Metric) {
		names := make([]string, 0, len(ms))
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := ms[name]
			tail := ""
			if m.Beyond > 0 {
				tail = fmt.Sprintf(", %d beyond", m.Beyond)
				if p, ok := tailPercentile(m.N); m.Beyond < minBeyond && ok {
					tail += fmt.Sprintf(" (under %d; %d samples support p%g)", minBeyond, m.N, p*100)
				} else if m.Beyond < minBeyond {
					tail += fmt.Sprintf(" (under %d; %d samples support no tail)", minBeyond, m.N)
				}
			}
			fmt.Fprintf(w, "  %-32s %14.6g %-9s n=%d%s\n", name, m.Value, m.Unit, m.N, tail)
		}
	}
	section(res.Metrics)
	if len(res.Detail) > 0 {
		fmt.Fprintln(w, " detail:")
		section(res.Detail)
	}
	if len(res.SelfMS) > 0 {
		fmt.Fprintf(w, " self time (ms of %.1f lane-ms):\n", res.CapacityMS)
		owned := 0.0
		for _, l := range layers {
			fmt.Fprintf(w, "  %-32s %14.1f\n", l, res.SelfMS[l])
			owned += res.SelfMS[l]
		}
		fmt.Fprintf(w, "  %-32s %14.1f\n", "unowned", res.CapacityMS-owned)
	}
}

// resultFile is the on-disk form of a set of runs.
type resultFile struct {
	Runs []*Result `json:"runs"`
}

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResult adds a run to a result file, creating it if needed; the file
// is replaced by rename, so an interrupted write leaves the old one.
func appendResult(path string, res *Result) error {
	rf, err := loadResults(path)
	if errors.Is(err, os.ErrNotExist) {
		rf, err = &resultFile{}, nil
	}
	if err != nil {
		return err
	}
	rf.Runs = append(rf.Runs, res)
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// goldenPositions is how far into each workload's stream golden.json
// covers the sampled documents: past what any run reaches.
const goldenPositions = 1 << 12

// goldenCmd rewrites golden.json in the current directory.
func goldenCmd(args []string, logw io.Writer) error {
	if len(args) > 0 {
		return fmt.Errorf("golden takes no arguments")
	}
	b, err := makeGolden(goldenPositions, logw)
	if err != nil {
		return err
	}
	return os.WriteFile("golden.json", b, 0o644)
}

// findSpec locates BENCHMARK.json in the current or the parent directory:
// the repository root or this one.
func findSpec() (string, error) {
	for _, p := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// benchmarkSpec is BENCHMARK.json.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s benchmarkSpec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
