package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
)

func TestParseExperimentArgs(t *testing.T) {
	all := []string{"all"}
	cases := []struct {
		name, cmd string
		args      []string
		want      cmdFlags // zero opts and parallel mean the defaults
		pos       []string
	}{
		{"flags before positional", "run", []string{"-scale", "2", "all"},
			cmdFlags{opts: opts(2, 1)}, all},
		{"flags after positional", "run", []string{"all", "-scale=2"},
			cmdFlags{opts: opts(2, 1)}, all},
		{"equals and space forms mixed", "run", []string{"-seed=9", "fig3", "-scale", "0.5"},
			cmdFlags{opts: opts(0.5, 9)}, []string{"fig3"}},
		{"seed is decimal", "run", []string{"-seed", "010", "all"},
			cmdFlags{opts: opts(1, 10)}, all},
		{"boolean csv", "run", []string{"all", "-csv"},
			cmdFlags{csv: true}, all},
		{"csv with explicit value", "run", []string{"-csv=false", "all"},
			cmdFlags{}, all},
		{"boolean json", "run", []string{"all", "-json"},
			cmdFlags{jsonOut: true}, all},
		{"json with explicit value", "run", []string{"-json=false", "all"},
			cmdFlags{}, all},
		{"parallel", "run", []string{"run-free", "-parallel", "4"},
			cmdFlags{parallel: 4}, []string{"run-free"}},
		{"double dash flags", "run", []string{"--scale", "3", "all"},
			cmdFlags{opts: opts(3, 1)}, all},
		{"end-of-flags marker", "run", []string{"-scale", "2", "--", "-weird-id"},
			cmdFlags{opts: opts(2, 1)}, []string{"-weird-id"}},
		{"end-of-flags marker after positional", "sweep", []string{"fig1", "--", "fig3", "-json"},
			cmdFlags{}, []string{"fig1", "fig3", "-json"}},
		{"sweep axes", "sweep", []string{"-scales", "1,2,4", "-seeds", "1..3", "fig7"},
			cmdFlags{scales: []float64{1, 2, 4}, seeds: []uint64{1, 2, 3}}, []string{"fig7"}},
		{"seed list with ranges", "sweep", []string{"-seeds=2,5..7,10"},
			cmdFlags{seeds: []uint64{2, 5, 6, 7, 10}}, nil},
		{"profiling flags", "run", []string{"fig7", "-cpuprofile", "cpu.out", "-memprofile=mem.out"},
			cmdFlags{cpuprofile: "cpu.out", memprofile: "mem.out"}, []string{"fig7"}},
		{"gen-experiments flags", "gen-experiments", []string{"-scale", "0.5", "-seed", "3", "-parallel", "2"},
			cmdFlags{opts: opts(0.5, 3), parallel: 2}, nil},
		{"output file", "sweep", []string{"-o", "out.json", "-json", "fig1"},
			cmdFlags{jsonOut: true, output: "out.json"}, []string{"fig1"}},
		{"trace file", "run", []string{"fig1", "-trace", "trace.json"},
			cmdFlags{trace: "trace.json"}, []string{"fig1"}},
		{"distributed execution", "sweep", []string{"-listen-workers", "127.0.0.1:0", "-min-workers", "2", "-shard-cache", "dir"},
			cmdFlags{listenWorkers: "127.0.0.1:0", minWorkers: 2, shardCacheDir: "dir"}, nil},
	}
	for _, c := range cases {
		got := newFlags(c.cmd)
		pos, err := got.parse(c.args)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want := c.want
		want.cmd, want.fs = c.cmd, got.fs
		if want.opts == (core.Options{}) {
			want.opts = core.DefaultOptions()
		}
		if want.parallel == 0 {
			want.parallel = runtime.NumCPU()
		}
		if !reflect.DeepEqual(*got, want) || !reflect.DeepEqual(pos, c.pos) {
			t.Errorf("%s: got %+v %q, want %+v %q", c.name, *got, pos, want, c.pos)
		}
	}
}

func opts(scale float64, seed uint64) core.Options {
	return core.Options{Scale: scale, Seed: seed}
}

func TestParseExperimentArgsErrors(t *testing.T) {
	for _, c := range []struct {
		cmd  string
		args []string
	}{
		{"run", []string{"-bogus", "all"}},                       // unknown flag must not become positional
		{"run", []string{"all", "-scale"}},                       // missing value
		{"run", []string{"-scale", "two", "all"}},                // non-numeric value
		{"run", []string{"-scale", "0", "all"}},                  // scale must be positive (Options.Validate)
		{"run", []string{"-scale", "-2", "all"}},                 // negative scale
		{"run", []string{"-scale", "Inf", "all"}},                // non-finite scale
		{"gen-experiments", []string{"-scale", "NaN"}},           // non-finite scale
		{"run", []string{"-seed", "-1", "all"}},                  // negative seed
		{"run", []string{"-parallel", "0", "all"}},               // workers below 1
		{"sweep", []string{"-parallel", "-1", "all"}},            // negative workers
		{"run", []string{"-csv=maybe", "all"}},                   // bad boolean
		{"run", []string{"-json=maybe", "all"}},                  // bad boolean
		{"sweep", []string{"-min-workers", "2"}},                 // needs -listen-workers
		{"run", []string{"-min-workers", "-1", "all"}},           // negative worker count
		{"sweep", []string{"-scales", "1,zero"}},                 // non-numeric scale in axis
		{"sweep", []string{"-scales", "1,-2"}},                   // negative scale in axis
		{"sweep", []string{"-seeds", "8..1"}},                    // descending range
		{"sweep", []string{"-seeds", "1..1000000"}},              // range beyond the sanity bound
		{"sweep", []string{"-seeds", "0..18446744073709551615"}}, // full uint64 range must not overflow the guard
		{"sweep", []string{"-seeds", "1..two"}},                  // malformed range end
		{"sweep", []string{"-scale", "1", "fig1"}},               // -scale is run's; 1 once passed as the default
		{"run", []string{"-scales", "1,2", "fig1"}},              // the sweep axes are sweep's
		{"gen-experiments", []string{"-trace", "t.json"}},        // gen-experiments runs untraced
	} {
		if _, err := newFlags(c.cmd).parse(c.args); err == nil {
			t.Errorf("%s %v accepted, want error", c.cmd, c.args)
		}
	}
}

// TestSweepCommandGuards: every flag some command registers and another
// does not is undefined on the other, so it fails loudly instead of being
// silently reinterpreted (sweep -scale 1 once passed as the default), and
// -h on every command prints its flags and returns flag.ErrHelp.
func TestSweepCommandGuards(t *testing.T) {
	cmds := map[string]func(io.Writer, []string) error{
		"run": run, "sweep": sweep, "gen-experiments": genExperiments,
	}
	names := map[string]bool{}
	for cmd := range cmds {
		newFlags(cmd).fs.VisitAll(func(fl *flag.Flag) { names[fl.Name] = true })
	}
	rejected := 0
	for cmd, call := range cmds {
		fs := newFlags(cmd).fs
		for name := range names {
			if fs.Lookup(name) != nil {
				continue
			}
			err := call(io.Discard, []string{"-" + name, "1", "fig1"})
			if err == nil || !strings.Contains(err.Error(), "not defined: -"+name) {
				t.Errorf("%s -%s: got %v, want an undefined-flag error", cmd, name, err)
			}
			rejected++
		}
		if err := call(io.Discard, []string{"-h"}); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: got %v, want flag.ErrHelp", cmd, err)
		}
	}
	if rejected == 0 {
		t.Fatal("no flag is specific to one command")
	}
	for name, call := range map[string]func() error{
		"run -csv -json":      func() error { return run(io.Discard, []string{"-csv", "-json", "fig1"}) },
		"run two ids":         func() error { return run(io.Discard, []string{"fig1", "fig3"}) },
		"sweep duplicate ids": func() error { return sweep(io.Discard, []string{"fig1", "fig1"}) },
		"gen-experiments id":  func() error { return genExperiments(io.Discard, []string{"fig1"}) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: accepted, want error", name)
		}
	}
}

// TestCommandOutputBytes pins what each output mode writes: run's stdout
// is the aligned tables, CSV or canonical JSON of the standalone result
// set, and sweep's tables are one headed section per configuration in
// request order.
func TestCommandOutputBytes(t *testing.T) {
	results := func(id string, o core.Options) []*core.Result {
		rs, err := core.RunIDsConfig([]string{id}, o, core.RunConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	tables := func(b *bytes.Buffer, rs []*core.Result) {
		for _, r := range rs {
			b.WriteString(r.Table() + "\n")
		}
	}
	jsonDoc := func(id string, o core.Options) func(*bytes.Buffer) {
		return func(b *bytes.Buffer) {
			doc, err := report.MarshalResults(results(id, o), o)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(doc)
		}
	}
	csvRows := func(id string, o core.Options) func(*bytes.Buffer) {
		return func(b *bytes.Buffer) {
			for _, r := range results(id, o) {
				if err := report.WriteCSV(b, r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for _, c := range []struct {
		name string
		call func(io.Writer, []string) error
		args []string
		want func(*bytes.Buffer)
	}{
		{"run tables", run, []string{"fig1", "-scale", "0.2"},
			func(b *bytes.Buffer) { tables(b, results("fig1", opts(0.2, 1))) }},
		{"run fig1 json", run, []string{"fig1", "-scale", "0.2", "-seed", "2", "-json"}, jsonDoc("fig1", opts(0.2, 2))},
		{"run fig3 json", run, []string{"fig3", "-scale", "0.2", "-seed", "2", "-json"}, jsonDoc("fig3", opts(0.2, 2))},
		{"run fig1 csv", run, []string{"fig1", "-scale", "0.2", "-seed", "2", "-csv"}, csvRows("fig1", opts(0.2, 2))},
		{"run fig3 csv", run, []string{"fig3", "-scale", "0.2", "-seed", "2", "-csv"}, csvRows("fig3", opts(0.2, 2))},
		{"sweep tables", sweep, []string{"fig1", "-scales", "0.2", "-seeds", "1,2"}, func(b *bytes.Buffer) {
			for _, o := range []core.Options{opts(0.2, 1), opts(0.2, 2)} {
				fmt.Fprintf(b, "==== scale %g, seed %d ====\n\n", o.Scale, o.Seed)
				tables(b, results("fig1", o))
			}
		}},
	} {
		var got, want bytes.Buffer
		if err := c.call(&got, c.args); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		c.want(&want)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: output differs from the standalone result set's\ngot:\n%s\nwant:\n%s", c.name, got.Bytes(), want.Bytes())
		}
	}
}

// configZeroLast returns a RunConfig whose configuration-0 shards wait
// until every shard of the later configurations has run, so those
// configurations complete first. A counting pass that executes nothing
// sizes the wait; one worker beyond configuration 0's shards keeps a free
// worker for the rest. failAt >= 0 fails sec5b's shard in that
// configuration. Callers sweep seed-dependent experiments: a seed-free
// one's configurations share configuration 0's shards.
func configZeroLast(t *testing.T, sw core.Sweep, failAt int) core.RunConfig {
	t.Helper()
	first, later := 0, 0
	counted := errors.New("counted, not run")
	core.RunSweep(sw, core.RunConfig{Workers: 1, RunShard: func(st core.ShardTask) (any, string, error) {
		if st.ConfigIndex == 0 {
			first++
		} else {
			later++
		}
		return nil, "", counted
	}}, nil)
	var laterDone sync.WaitGroup
	laterDone.Add(later)
	cfg := core.RunConfig{RunShard: func(st core.ShardTask) (any, string, error) {
		if st.ConfigIndex == 0 {
			laterDone.Wait()
		} else {
			defer laterDone.Done()
		}
		if st.Ref.Exp == "sec5b" && st.ConfigIndex == failAt {
			return nil, "", errors.New("injected shard failure")
		}
		out, err := st.Run()
		return out, "", err
	}}
	if later > 0 {
		cfg.Workers = first + 1
	}
	return cfg
}

// TestStreamOutOfOrderCompletion: with configuration 0 completing last,
// `sweep -json` is still the collected MarshalSweep document and the
// table sections still come out in request order.
func TestStreamOutOfOrderCompletion(t *testing.T) {
	sw := core.Sweep{IDs: []string{"sec5b", "fig8"}, Configs: core.Grid([]float64{0.2}, []uint64{1, 2, 3})}
	sr, err := core.RunSweep(sw, core.RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := report.MarshalSweep(sr)
	if err != nil {
		t.Fatal(err)
	}
	var wantTables bytes.Buffer
	for _, run := range sr.Runs {
		fmt.Fprintf(&wantTables, "==== scale %g, seed %d ====\n\n", run.Config.Scale, run.Config.Seed)
		for _, r := range run.Results {
			wantTables.WriteString(r.Table() + "\n")
		}
	}
	for _, c := range []struct {
		name string
		json bool
		want []byte
	}{
		{"json", true, wantJSON},
		{"tables", false, wantTables.Bytes()},
	} {
		f := newFlags("sweep")
		f.jsonOut = c.json
		var got bytes.Buffer
		if err := f.stream(&got, sw, configZeroLast(t, sw, -1)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got.Bytes(), c.want) {
			t.Errorf("%s: output differs from the collected sweep's\ngot:\n%s\nwant:\n%s", c.name, got.Bytes(), c.want)
		}
	}
}

// TestStreamFailureOutput: a failed `run all` still prints every
// experiment that survived, a failed single-experiment run prints nothing,
// and a sweep's output stops at a failed configuration's gap — also when
// the failed configuration 0 completes last.
func TestStreamFailureOutput(t *testing.T) {
	o := opts(0.2, 1)
	var survivors []string
	for _, e := range core.Registry() {
		if e.ID != "sec5b" {
			survivors = append(survivors, e.ID)
		}
	}
	rs, err := core.RunIDsConfig(survivors, o, core.RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	partialDoc, err := report.MarshalResults(rs, o)
	if err != nil {
		t.Fatal(err)
	}
	rs, err = core.RunIDsConfig([]string{"sec5b"}, o, core.RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	firstSection := fmt.Sprintf("==== scale %g, seed %d ====\n\n%s\n", o.Scale, o.Seed, rs[0].Table())
	grid := core.Sweep{IDs: []string{"sec5b"}, Configs: []core.Config{o, opts(0.2, 2), opts(0.2, 3)}}

	for _, c := range []struct {
		name, cmd string
		json      bool
		sw        core.Sweep
		failAt    int // the configuration whose sec5b shard fails
		want      string
	}{
		{"run all", "run", true, core.Sweep{Configs: []core.Config{o}}, 0, string(partialDoc)},
		{"run one", "run", true, core.Sweep{IDs: []string{"sec5b"}, Configs: []core.Config{o}}, 0, ""},
		{"gen-experiments", "gen-experiments", false, core.Sweep{Configs: []core.Config{o}}, 0, ""},
		{"sweep tables", "sweep", false, grid, 1, firstSection},
		{"sweep tables, config 0 fails last", "sweep", false, grid, 0, ""},
	} {
		f := newFlags(c.cmd)
		f.jsonOut = c.json
		var got bytes.Buffer
		if err := f.stream(&got, c.sw, configZeroLast(t, c.sw, c.failAt)); err == nil {
			t.Errorf("%s: injected failure not reported", c.name)
		}
		if got.String() != c.want {
			t.Errorf("%s: wrote\n%s\nwant\n%s", c.name, got.String(), c.want)
		}
	}
}

// TestSweepOutputFileAtomic: `sweep -json -o F` writes the exact collected
// sweep document through a temp file renamed into place, and a failing
// sweep leaves the previous file untouched with no temp debris.
func TestSweepOutputFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.json")
	if err := sweep(io.Discard, []string{"fig1", "-scales", "0.2", "-seeds", "1,2", "-json", "-o", path}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := core.RunSweep(core.Sweep{
		IDs: []string{"fig1"}, Configs: core.Grid([]float64{0.2}, []uint64{1, 2}),
	}, core.RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := report.MarshalSweep(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("streamed -o document differs from the collected MarshalSweep bytes")
	}

	// A failing sweep must leave the existing document alone and clean up
	// its temp file.
	if err := sweep(io.Discard, []string{"nonexistent", "-json", "-o", path}); err == nil {
		t.Fatal("sweep of an unknown id succeeded")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, got) {
		t.Error("failed sweep modified the previous output file")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "sweep.json" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Errorf("output directory holds %v, want only sweep.json (no temp debris)", names)
	}
}

// TestSweepTraceFile: `sweep -trace F` commits a Chrome trace-event
// document that round-trips through the decoder, holds exactly one shard
// task per (config, experiment, shard), attributes shard work to worker
// threads inside the configured pool, and records one marshal span per
// configuration.
func TestSweepTraceFile(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sweep.json")
	tracePath := filepath.Join(dir, "trace.json")
	const workers = 2
	// sec5b draws from the seed, so each seed is its own shard task.
	err := sweep(io.Discard, []string{"sec5b", "-scales", "0.2", "-seeds", "1,2",
		"-parallel", "2", "-json", "-o", out, "-trace", tracePath})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := report.UnmarshalTrace(raw)
	if err != nil {
		t.Fatalf("trace file does not round-trip through the decoder: %v", err)
	}

	shardTasks := map[string]int{}
	configs := map[float64]bool{}
	marshaled := map[any]int{}
	for _, e := range doc.CompleteEvents() {
		if e.TS < 0 || e.Dur < 0 {
			t.Fatalf("event %q has negative timing: ts=%v dur=%v", e.Name, e.TS, e.Dur)
		}
		if e.Cat == obs.CatMarshal {
			marshaled[e.Args["config"]]++
		}
		if e.Cat != obs.CatShard {
			continue
		}
		if e.TID < 1 || e.TID > workers {
			t.Errorf("shard event %q on tid %d, want a worker thread in [1,%d]", e.Name, e.TID, workers)
		}
		cfg, ok := e.Args["config"].(float64)
		if !ok {
			t.Fatalf("shard event %q has no numeric config arg: %v", e.Name, e.Args)
		}
		configs[cfg] = true
		shardTasks[fmt.Sprintf("%v/%s", cfg, e.Name)]++
	}
	if len(configs) != 2 {
		t.Errorf("shard events span %d configs, want 2 (one per seed)", len(configs))
	}
	for key, n := range shardTasks {
		if n != 1 {
			t.Errorf("shard task %s recorded %d times, want exactly once", key, n)
		}
	}
	if len(shardTasks) == 0 {
		t.Fatal("trace holds no shard tasks")
	}
	if want := map[any]int{0.0: 1, 1.0: 1}; !reflect.DeepEqual(marshaled, want) {
		t.Errorf("marshal spans per config arg %v, want one for each of configs 0 and 1", marshaled)
	}
}
