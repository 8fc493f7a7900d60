// Command zen2ee runs the paper's experiments against the simulated
// dual-EPYC-7502 system and prints the regenerated tables and figures.
//
// Usage:
//
//	zen2ee list                        # list all experiments
//	zen2ee run <id>|all [flags]        # one configuration
//	zen2ee sweep [<id>...|all] [flags] # a -scales × -seeds grid
//	zen2ee gen-experiments [flags]     # EXPERIMENTS.md to stdout
//	zen2ee worker [flags] URL          # execute shards for a coordinator
//	zen2ee <cmd> -h                    # the flags <cmd> takes
//
// Each command takes only its own flags, before or after the positional
// arguments; everything after "--" is positional.
//
// Scale 1 gives quick, statistically meaningful runs; the paper's full
// protocol corresponds to roughly -scale 25. Runs are fanned out across
// -parallel worker goroutines (default: all CPUs); results are
// bit-identical to a serial run for the same seed, and per-experiment
// progress streams to stderr.
//
// Every command is a sweep: run and gen-experiments evaluate one
// configuration, sweep the -scales × -seeds grid as a single batched run in
// which every (configuration, experiment, shard) triple shares one worker
// pool. Each configuration's section of the sweep output is byte-identical
// to the standalone `zen2ee run` of that configuration. Output streams
// section by section, in request order, as configurations complete, so
// memory is bounded by the in-flight window, not the grid; -o writes the
// document through a temp file renamed into place only on success.
//
// With -shard-cache DIR individual shard outputs are memoized
// content-addressed under DIR. Re-running any spec over a warm cache skips
// execution at shard granularity with byte-identical output, and a killed
// sweep resumes from its last completed shard on the next invocation.
//
// With -listen-workers ADDR, run and sweep fan shards out to `zen2ee worker
// http://ADDR` processes on any host; placement never changes the output.
// A SIGTERM'd worker finishes its in-flight shards and deregisters.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/dist"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
	"zen2ee/internal/shardcache"
	"zen2ee/internal/store"
)

// usageLines holds each experiment command's synopsis.
var usageLines = map[string]string{
	"run":             "zen2ee run <id>|all [flags]",
	"sweep":           "zen2ee sweep [<id>...|all] [flags]",
	"gen-experiments": "zen2ee gen-experiments [flags]",
	"worker":          "zen2ee worker [-parallel N] [-name NAME] URL",
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		list()
	case "run":
		err = run(os.Stdout, args)
	case "sweep":
		err = sweep(os.Stdout, args)
	case "gen-experiments":
		err = genExperiments(os.Stdout, args)
	case "worker":
		err = worker(args)
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "zen2ee:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  zen2ee list
  %s
  %s
  %s
  %s

'zen2ee <cmd> -h' lists the flags <cmd> takes.

sweep runs the scales × seeds cross-product of configurations as one
batched job; each configuration's output section is byte-identical to the
standalone run of that configuration.
`, usageLines["run"], usageLines["sweep"], usageLines["gen-experiments"], usageLines["worker"])
}

func list() {
	fmt.Printf("%-10s %-12s %-24s %s\n", "ID", "PAPER REF", "BENCH", "TITLE")
	for _, e := range core.Registry() {
		fmt.Printf("%-10s %-12s %-24s %s\n", e.ID, e.PaperRef, e.Bench, e.Title)
	}
}

// cmdFlags is one command's flag set and the values it parses into.
type cmdFlags struct {
	cmd        string
	fs         *flag.FlagSet
	opts       core.Options // -scale, -seed
	scales     []float64    // sweep scale axis (-scales)
	seeds      []uint64     // sweep seed axis (-seeds)
	csv        bool
	jsonOut    bool
	output     string // sweep destination file (-o); empty means stdout
	trace      string // execution-trace destination file (-trace)
	parallel   int
	cpuprofile string
	memprofile string
	name       string // the name a worker reports to its coordinator
	// listenWorkers starts a shard coordinator on this address so remote
	// `zen2ee worker` processes can execute the run's shards;
	// minWorkers delays the run until that many have registered.
	listenWorkers string
	minWorkers    int
	shardCacheDir string
}

// newFlags builds cmd's flag set. Each command registers only the flags
// it takes, so a flag given to the wrong command is undefined.
func newFlags(cmd string) *cmdFlags {
	f := &cmdFlags{cmd: cmd, fs: flag.NewFlagSet(cmd, flag.ContinueOnError),
		opts: core.DefaultOptions(), parallel: runtime.NumCPU()}
	fs := f.fs
	// main reports parse errors; parse prints -h's flag list itself.
	fs.SetOutput(io.Discard)
	switch cmd {
	case "sweep":
		fs.Func("scales", "scale axis as a `CSV`, e.g. 1,2,4 (default 1)", func(s string) (err error) {
			f.scales, err = parseScaleList(s)
			return err
		})
		fs.Func("seeds", "seed axis as a `LIST` of seeds and/or inclusive ranges, e.g. 1..8 or 1,5,10..12 (default 1)", func(s string) (err error) {
			f.seeds, err = parseSeedList(s)
			return err
		})
		fs.StringVar(&f.output, "o", "",
			"write the output to `F` via a temp file renamed into place on success, so an interrupted sweep never leaves a truncated document behind (default stdout)")
	case "worker":
		fs.StringVar(&f.name, "name", "", "the `NAME` this worker reports to the coordinator (default hostname-pid)")
	default:
		fs.Float64Var(&f.opts.Scale, "scale", f.opts.Scale, "effort scale `S`; the paper's full protocol is ≈ 25")
		fs.Func("seed", "simulation seed `N` (default 1)", func(s string) (err error) {
			f.opts.Seed, err = strconv.ParseUint(s, 10, 64)
			return err
		})
	}
	fs.IntVar(&f.parallel, "parallel", f.parallel, "worker goroutines (a worker's concurrent shard slots); results are identical for every `N`")
	if cmd == "worker" {
		return f
	}
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile of the command to `F` (inspect with 'go tool pprof F')")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a post-GC heap profile of the command to `F`")
	if cmd == "gen-experiments" {
		return f
	}
	if cmd == "run" {
		fs.BoolVar(&f.csv, "csv", false, "emit rows as CSV instead of aligned tables")
	}
	fs.BoolVar(&f.jsonOut, "json", false,
		"emit the canonical JSON document: the bytes the zen2eed daemon serves for the same spec")
	fs.StringVar(&f.trace, "trace", "",
		"write a Chrome trace-event JSON of the run's execution to `F` (one span per scheduled shard task plus scheduler lifecycle spans; open it at https://ui.perfetto.dev or chrome://tracing). Tracing does not change the results")
	fs.StringVar(&f.listenWorkers, "listen-workers", "",
		"serve the distributed worker protocol on `ADDR` and fan shards out to remote 'zen2ee worker http://HOST:PORT' processes; local execution stays the fallback and results are byte-identical to a local run")
	fs.IntVar(&f.minWorkers, "min-workers", 0, "wait until `N` workers have registered before starting (needs -listen-workers)")
	fs.StringVar(&f.shardCacheDir, "shard-cache", "",
		"memoize per-shard outputs content-addressed under `DIR`; shards whose key is already cached are served without executing, with byte-identical output. Keys cover experiment, scale, seed (1 for a seed-free experiment, so every seed shares its entries), shard index, and the experiment-registry version, so a registry change invalidates the whole cache")
	return f
}

// parse parses args against the command's flags and returns the
// positional arguments. Flags may come before and after positional
// arguments: parsing resumes after each one. Everything after "--" is
// positional.
func (f *cmdFlags) parse(args []string) ([]string, error) {
	var pos []string
	for {
		if err := f.fs.Parse(args); err != nil {
			if errors.Is(err, flag.ErrHelp) {
				fmt.Fprintf(os.Stderr, "usage: %s\n\nflags:\n", usageLines[f.cmd])
				f.fs.SetOutput(os.Stderr)
				f.fs.PrintDefaults()
			}
			return nil, err
		}
		rest := f.fs.Args()
		if n := len(args) - len(rest); len(rest) == 0 || n > 0 && args[n-1] == "--" {
			pos = append(pos, rest...)
			break
		}
		pos, args = append(pos, rest[0]), rest[1:]
	}
	if err := f.opts.Validate(); err != nil {
		return nil, fmt.Errorf("flag -scale: %v", err)
	}
	switch {
	case f.parallel < 1:
		return nil, fmt.Errorf("flag -parallel: must be >= 1")
	case f.minWorkers < 0:
		return nil, fmt.Errorf("flag -min-workers: must be >= 0")
	case f.minWorkers > 0 && f.listenWorkers == "":
		return nil, fmt.Errorf("-min-workers needs -listen-workers")
	case f.cmd == "worker" && len(pos) != 1:
		return nil, fmt.Errorf("worker needs exactly one coordinator URL")
	case f.cmd == "worker":
		if u, err := url.Parse(pos[0]); err != nil || !u.IsAbs() || u.Host == "" {
			return nil, fmt.Errorf("worker: coordinator URL %q is not absolute (want http://host:port)", pos[0])
		}
	}
	return pos, nil
}

// parseScaleList parses a CSV of positive scales ("1,2,4").
func parseScaleList(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad scale %q", part)
		}
		if err := (core.Options{Scale: v, Seed: 1}).Validate(); err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// maxSeedRange bounds a single -seeds range so a typo ("1..1e9") cannot
// silently request a billion configurations.
const maxSeedRange = 4096

// parseSeedList parses a seed axis: comma-separated entries that are
// either single seeds ("5") or inclusive ranges ("1..8").
func parseSeedList(s string) ([]uint64, error) {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		lo, hi, isRange := part, part, false
		if i := strings.Index(part, ".."); i >= 0 {
			lo, hi, isRange = part[:i], part[i+2:], true
		}
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", part)
		}
		b := a
		if isRange {
			if b, err = strconv.ParseUint(hi, 10, 64); err != nil {
				return nil, fmt.Errorf("bad seed range %q", part)
			}
			if b < a {
				return nil, fmt.Errorf("seed range %q is descending", part)
			}
			// b-a (not b-a+1) so the full-uint64 range cannot overflow the
			// size computation past the guard.
			if b-a >= maxSeedRange {
				return nil, fmt.Errorf("seed range %q spans more than %d seeds", part, maxSeedRange)
			}
		}
		for v := a; ; v++ {
			out = append(out, v)
			if v == b {
				break
			}
		}
	}
	return out, nil
}

// run executes one configuration of one experiment, or of all of them.
func run(w io.Writer, args []string) error {
	f := newFlags("run")
	ids, err := f.parse(args)
	if err != nil {
		return err
	}
	if len(ids) != 1 {
		return fmt.Errorf("run needs exactly one experiment id (or 'all')")
	}
	if f.csv && f.jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	if ids[0] == "all" {
		ids = nil
	}
	return f.execute(w, core.Sweep{IDs: ids, Configs: []core.Config{f.opts}})
}

// sweep runs the -scales × -seeds configuration grid over the named
// experiments (all of them by default) as one batched scheduler run.
func sweep(w io.Writer, args []string) error {
	f := newFlags("sweep")
	ids, err := f.parse(args)
	if err != nil {
		return err
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
	}
	return f.execute(w, core.Sweep{IDs: ids, Configs: core.Grid(f.scales, f.seeds)})
}

// genExperiments runs the full suite at one configuration and writes the
// EXPERIMENTS.md document.
func genExperiments(w io.Writer, args []string) error {
	f := newFlags("gen-experiments")
	pos, err := f.parse(args)
	if err != nil {
		return err
	}
	if len(pos) != 0 {
		return fmt.Errorf("gen-experiments takes no positional arguments")
	}
	return f.execute(w, core.Sweep{Configs: []core.Config{f.opts}})
}

// worker executes shards for the coordinator at the URL in args with
// -parallel slots until SIGINT or SIGTERM, then drains: in-flight shards
// finish, and deregister hands anything unfinished back to the coordinator.
func worker(args []string) error {
	f := newFlags("worker")
	pos, err := f.parse(args)
	if err != nil {
		return err
	}
	host, _ := os.Hostname()
	name := cmp.Or(f.name, fmt.Sprintf("%s-%d", cmp.Or(host, "worker"), os.Getpid()))
	w, err := dist.NewWorker(dist.WorkerConfig{
		Coordinator: pos[0], Name: name, Host: host, PID: os.Getpid(),
		Slots: f.parallel, Logger: slog.New(slog.NewTextHandler(os.Stderr, nil)),
	})
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "zen2ee: worker %q executing %d slot(s) for %s\n", name, f.parallel, pos[0])
	return w.Run(ctx)
}

// printProgress streams scheduler events to stderr so stdout stays
// parseable: indented shard lines as a heavy experiment's sweep points
// complete, and one completion line per experiment. Sweep runs prefix
// each line with the configuration it belongs to.
func printProgress(p core.Progress) {
	status := "ok"
	if p.Err != nil {
		status = "FAILED: " + p.Err.Error()
	}
	cfg := ""
	if p.Configs > 1 {
		cfg = fmt.Sprintf("c%d ", p.Config+1)
	}
	if !p.ExperimentDone() {
		fmt.Fprintf(os.Stderr, "        %s%-10s shard %2d/%-2d %-20s %-8s %s\n",
			cfg, p.ID, p.Shard, p.Shards, p.Label, p.Elapsed.Round(100*time.Microsecond), status)
		return
	}
	fmt.Fprintf(os.Stderr, "[%2d/%d] %s%-10s %-8s %s\n",
		p.Done, p.Total, cfg, p.ID, p.Elapsed.Round(100*time.Microsecond), status)
}

// execute runs sw with the command's execution flags wired in and writes
// its output to w (or to the -o file). The profiles bracket the whole
// command, like go test's -cpuprofile/-memprofile; the heap profile is
// written after a final GC so it reflects live allocations. Shard
// execution is wired in a fixed order: -listen-workers dispatches shards
// through the coordinator's lease queue (local execution stays the
// fallback, so a run with zero workers still completes), and -shard-cache
// wraps that, so cached shards skip the lease queue entirely.
func (f *cmdFlags) execute(w io.Writer, sw core.Sweep) (err error) {
	if f.memprofile != "" {
		defer func() { err = errors.Join(err, writeHeapProfile(f.memprofile)) }()
	}
	if f.cpuprofile != "" {
		g, err := os.Create(f.cpuprofile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(g); err != nil {
			g.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			err = errors.Join(err, g.Close())
		}()
	}
	var tr *obs.Trace // nil records nothing and costs the scheduler nothing
	if f.trace != "" {
		tr = obs.New(0)
	}
	runCfg := core.RunConfig{Workers: f.parallel, Trace: tr}
	if f.listenWorkers != "" {
		ln, err := net.Listen("tcp", f.listenWorkers)
		if err != nil {
			return fmt.Errorf("-listen-workers: %w", err)
		}
		coord := dist.NewCoordinator(dist.Config{
			Logger: slog.New(slog.NewTextHandler(os.Stderr, nil)),
			Trace:  tr,
		})
		defer coord.Close()
		srv := &http.Server{Handler: coord.Handler()}
		go srv.Serve(ln)
		// Deferred after coord.Close, so it runs first: the server is closed
		// before the coordinator, as Close requires.
		defer srv.Close()
		addr := ln.Addr().String()
		fmt.Fprintf(os.Stderr, "zen2ee: coordinator listening on %s (join with: zen2ee worker http://%s)\n", addr, addr)
		if f.minWorkers > 0 {
			fmt.Fprintf(os.Stderr, "zen2ee: waiting for %d worker(s) to register...\n", f.minWorkers)
			for coord.WorkersConnected() < f.minWorkers {
				time.Sleep(25 * time.Millisecond)
			}
		}
		runCfg.RunShard = coord.RunShard
		// Size the dispatch width to the whole pool — local slots plus every
		// registered worker's — so a fleet larger than this machine's CPU
		// count is actually kept busy. Placement does not affect results.
		runCfg.Workers = coord.PoolSize(f.parallel)
	}
	if f.shardCacheDir != "" {
		// No memory tier: one run reads each shard key at most once (dist
		// retries happen under the cache).
		st, err := store.NewDisk(f.shardCacheDir, 0)
		if err != nil {
			return fmt.Errorf("-shard-cache: %w", err)
		}
		defer st.Close()
		cache := shardcache.New(st, "")
		runCfg.RunShard = cache.WrapRunShard(runCfg.RunShard, tr)
		defer func() {
			s := cache.Stats()
			fmt.Fprintf(os.Stderr, "zen2ee: shard cache: %d hit(s), %d miss(es), %d byte(s) served\n",
				s.Hits, s.Misses, s.BytesServed)
		}()
	}
	out, commit, err := openOutput(w, f.output)
	if err != nil {
		return err
	}
	err = commit(f.stream(out, sw, runCfg))
	return errors.Join(err, f.commitTrace(tr))
}

// writeHeapProfile writes a post-GC heap profile to path.
func writeHeapProfile(path string) error {
	g, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	return errors.Join(pprof.WriteHeapProfile(g), g.Close())
}

// stream runs sw and writes each configuration's output to w as the
// scheduler delivers it, in request order, so memory stays bounded by the
// scheduler's in-flight window, never by the grid size. A failed
// configuration stops the output at its index — sections after a gap would
// read as a complete study — except for `run all`, which prints every
// experiment that survived. A -json sweep document is finalized only when
// every section is in.
func (f *cmdFlags) stream(w io.Writer, sw core.Sweep, cfg core.RunConfig) error {
	var sweepW *report.SweepWriter
	if f.cmd == "sweep" && f.jsonOut {
		// Validate before the writer emits the document header, so bad
		// requests fail without partial output.
		ids, err := core.CanonicalIDs(sw.IDs)
		if err != nil {
			return err
		}
		if err := sw.Validate(); err != nil {
			return err
		}
		if sweepW, err = report.NewSweepWriter(w, ids, sw.Configs); err != nil {
			return err
		}
	}
	write := func(i int, cr core.ConfigResult) error {
		switch {
		case f.cmd == "gen-experiments":
			_, err := report.WriteMarkdown(w, cr.Results, cr.Config)
			return err
		case f.jsonOut:
			// The canonical JSON document — byte-identical to what the
			// zen2eed daemon serves for the same (experiment set, scale,
			// seed), so CLI and daemon outputs are directly diffable.
			doc, err := marshal(cfg.Trace, i, cr)
			if err != nil {
				return err
			}
			if sweepW != nil {
				return sweepW.WriteSection(doc)
			}
			_, err = w.Write(doc)
			return err
		case f.csv:
			for _, r := range cr.Results {
				if err := report.WriteCSV(w, r); err != nil {
					return err
				}
			}
			return nil
		}
		if f.cmd == "sweep" {
			if _, err := fmt.Fprintf(w, "==== scale %g, seed %d ====\n\n", cr.Config.Scale, cr.Config.Seed); err != nil {
				return err
			}
		}
		for _, r := range cr.Results {
			if _, err := fmt.Fprintln(w, r.Table()); err != nil {
				return err
			}
		}
		return nil
	}
	partial := f.cmd == "run" && sw.IDs == nil
	var werr error
	stopped := false
	err := core.RunSweepStream(sw, cfg, func(i int, cr core.ConfigResult, cfgErr error) {
		if cfgErr != nil && !partial {
			stopped = true // the failure is joined into the returned error
		}
		if !stopped && werr == nil {
			werr = write(i, cr)
		}
	}, printProgress)
	if err != nil && partial {
		// main reports the joined error once, after the partial results
		// (the progress stream already flagged each failure as it happened).
		fmt.Fprintln(os.Stderr, "zen2ee: some experiments failed, printing partial results")
	}
	if err = errors.Join(err, werr); err == nil && sweepW != nil {
		err = sweepW.Close()
	}
	return err
}

// marshal renders one configuration's canonical JSON document, recording
// the encoding as a marshal span on the run's trace.
func marshal(tr *obs.Trace, i int, cr core.ConfigResult) ([]byte, error) {
	if !tr.Enabled() {
		return report.MarshalResults(cr.Results, cr.Config)
	}
	start := time.Now()
	doc, err := report.MarshalResults(cr.Results, cr.Config)
	tr.Add(obs.Span{Cat: obs.CatMarshal, Name: "marshal", Config: i, Worker: -1,
		Start: tr.Offset(start), Dur: time.Since(start)})
	return doc, err
}

// commitTrace writes the recorded trace to the -trace destination through
// the same temp-file + rename path as -o. It runs even when the run itself
// failed — a trace of a failed run is exactly when you want one — and
// no-ops when tracing is off.
func (f *cmdFlags) commitTrace(tr *obs.Trace) error {
	if !tr.Enabled() {
		return nil
	}
	out, commit, err := openOutput(nil, f.trace)
	if err != nil {
		return err
	}
	spans, dropped := tr.Snapshot()
	return commit(report.WriteChromeTrace(out, spans, dropped))
}

// openOutput resolves an output destination: w when path is empty,
// otherwise a temp file in the target's directory (same filesystem, so the
// rename is atomic). commit finalizes: on success it renames the temp over
// the target; on any error it removes the temp and the target is never
// touched. Stdout needs no such care — a truncated JSON document is
// invalid, not mistakable for a complete one.
func openOutput(w io.Writer, path string) (io.Writer, func(error) error, error) {
	if path == "" {
		return w, func(err error) error { return err }, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, nil, err
	}
	commit := func(err error) error {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		if err := os.Rename(tmp.Name(), path); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		return nil
	}
	return tmp, commit, nil
}
