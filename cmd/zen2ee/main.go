// Command zen2ee runs the paper's experiments against the simulated
// dual-EPYC-7502 system and prints the regenerated tables and figures.
//
// Usage:
//
//	zen2ee list                          # list all experiments
//	zen2ee run <id>|all [-scale S] [-seed N] [-parallel N] [-csv|-json] [-trace F] [-shard-cache DIR] [-listen-workers ADDR [-min-workers N] [-lease-batch K]]
//	zen2ee sweep [<id>...|all] [-scales S1,S2] [-seeds N1..N2] [-parallel N] [-json] [-o F] [-trace F] [-shard-cache DIR] [-listen-workers ADDR [-min-workers N] [-lease-batch K]]
//	zen2ee gen-experiments [-scale S] [-seed N] [-parallel N]
//
// Scale 1 gives quick, statistically meaningful runs; the paper's full
// protocol corresponds to roughly -scale 25. Full-suite runs are fanned
// out across -parallel worker goroutines (default: all CPUs); results are
// bit-identical to a serial run for the same seed, and per-experiment
// progress streams to stderr.
//
// sweep evaluates one experiment set over the -scales × -seeds grid as a
// single batched run: every (configuration, experiment, shard) triple
// shares one worker pool, and each configuration's section of the output
// is byte-identical to the standalone `zen2ee run` of that configuration.
// Output streams section by section as configurations complete, so memory
// is bounded by the in-flight window, not the grid; -o writes the document
// through a temp file renamed into place only on success.
//
// With -shard-cache DIR individual shard outputs are memoized
// content-addressed under DIR. Re-running any spec over a warm cache skips
// execution at shard granularity with byte-identical output, and a killed
// sweep resumes from its last completed shard on the next invocation.
package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/dist"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
	"zen2ee/internal/shardcache"
	"zen2ee/internal/store"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = list()
	case "run":
		err = run(args)
	case "sweep":
		err = sweep(args)
	case "gen-experiments":
		err = genExperiments(args)
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zen2ee:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  zen2ee list
  zen2ee run <id>|all [-scale S] [-seed N] [-parallel N] [-csv|-json] [-trace F]
  zen2ee sweep [<id>...|all] [-scales S1,S2] [-seeds N1..N2] [-parallel N] [-json] [-o F] [-trace F]
  zen2ee gen-experiments [-scale S] [-seed N] [-parallel N]

flags (accepted before or after the positional argument):
  -scale S     effort scale; the paper's full protocol is ≈ 25 (default 1)
  -seed N      simulation seed (default 1)
  -scales CSV  sweep scale axis, e.g. -scales 1,2,4 (sweep only; default 1)
  -seeds LIST  sweep seed axis: CSV and/or ranges, e.g. -seeds 1..8 or
               -seeds 1,5,10..12 (sweep only; default 1)
  -parallel N  worker goroutines for full-suite runs (default: all CPUs;
               results are identical for every N)
  -csv         emit rows as CSV instead of aligned tables
  -json        emit the canonical JSON document (identical bytes to what
               the zen2eed daemon serves for the same spec)
  -o F         sweep only: write the output to F via a temp file renamed
               into place on success, so an interrupted run never leaves
               a truncated document behind
  -trace F     write a Chrome trace-event JSON of the run's execution to F
               (one span per scheduled shard task plus scheduler lifecycle
               spans); open it at https://ui.perfetto.dev or
               chrome://tracing. Tracing does not change the results
  -cpuprofile F  write a CPU profile of the command to F (like go test's
               flag); inspect with 'go tool pprof F'
  -memprofile F  write a post-GC heap profile of the command to F
  -listen-workers ADDR  run/sweep only: serve the distributed worker
               protocol on ADDR and fan shards out to remote 'zen2eed
               -worker http://HOST:PORT' processes; local execution stays
               the fallback and results are byte-identical to a local run
  -min-workers N  wait until N workers have registered before starting
               (only with -listen-workers)
  -lease-batch K  run/sweep only: let one worker long-poll return up to K
               shard leases at once (only with -listen-workers; 0 uses
               the coordinator default of 16)
  -shard-cache DIR  run/sweep only: memoize per-shard outputs content-
               addressed under DIR; shards whose key is already cached
               are served without executing, with byte-identical output.
               Keys cover experiment, scale, seed, shard index, and the
               experiment-registry version, so a registry change
               invalidates the whole cache

sweep runs the scales × seeds cross-product of configurations as one
batched job; each configuration's output section is byte-identical to the
standalone run of that configuration.`)
}

func list() error {
	fmt.Printf("%-10s %-12s %-24s %s\n", "ID", "PAPER REF", "BENCH", "TITLE")
	for _, e := range core.Registry() {
		fmt.Printf("%-10s %-12s %-24s %s\n", e.ID, e.PaperRef, e.Bench, e.Title)
	}
	return nil
}

// experimentFlags holds the parsed flags shared by run, sweep, and
// gen-experiments.
type experimentFlags struct {
	opts       core.Options
	scales     []float64 // sweep scale axis (-scales)
	seeds      []uint64  // sweep seed axis (-seeds)
	csv        bool
	jsonOut    bool
	output     string // sweep destination file (-o); empty means stdout
	trace      string // execution-trace destination file (-trace)
	parallel   int    // worker count; 0 means runtime.NumCPU()
	cpuprofile string
	memprofile string
	// listenWorkers starts a shard coordinator on this address so remote
	// `zen2eed -worker` processes can execute the run's shards;
	// minWorkers delays the run until that many have registered.
	listenWorkers string
	minWorkers    int
	// shardCacheDir memoizes per-shard outputs in a content-addressed
	// store rooted at this directory; a warm cache skips execution at
	// shard granularity with byte-identical output (-shard-cache).
	shardCacheDir string
	// leaseBatch caps how many shard leases one worker long-poll may
	// return (-lease-batch; 0 means the coordinator default).
	leaseBatch int
	pos        []string
}

// parseExperimentArgs scans args in a single pass, accepting flags before
// and after positional arguments and all three spellings uniformly:
// `-flag value`, `-flag=value`, and the boolean `-csv`. Unknown flags are a
// usage error rather than silently becoming positional arguments.
func parseExperimentArgs(args []string) (experimentFlags, error) {
	f := experimentFlags{opts: core.DefaultOptions()}
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "--" {
			// Conventional end-of-flags marker: the rest is positional.
			f.pos = append(f.pos, args[i+1:]...)
			break
		}
		if !strings.HasPrefix(a, "-") || a == "-" {
			f.pos = append(f.pos, a)
			continue
		}
		name := strings.TrimLeft(a, "-")
		val, hasVal := "", false
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			name, val, hasVal = name[:eq], name[eq+1:], true
		}
		takeValue := func() (string, error) {
			if hasVal {
				return val, nil
			}
			if i+1 >= len(args) {
				return "", fmt.Errorf("needs a value")
			}
			i++
			return args[i], nil
		}
		var err error
		switch name {
		case "scale":
			var v string
			if v, err = takeValue(); err == nil {
				if f.opts.Scale, err = strconv.ParseFloat(v, 64); err == nil {
					err = f.opts.Validate()
				}
			}
		case "seed":
			var v string
			if v, err = takeValue(); err == nil {
				f.opts.Seed, err = strconv.ParseUint(v, 10, 64)
			}
		case "scales":
			var v string
			if v, err = takeValue(); err == nil {
				f.scales, err = parseScaleList(v)
			}
		case "seeds":
			var v string
			if v, err = takeValue(); err == nil {
				f.seeds, err = parseSeedList(v)
			}
		case "parallel":
			var v string
			if v, err = takeValue(); err == nil {
				f.parallel, err = strconv.Atoi(v)
				if err == nil && f.parallel < 1 {
					err = fmt.Errorf("must be >= 1")
				}
			}
		case "o":
			f.output, err = takeValue()
		case "trace":
			f.trace, err = takeValue()
		case "cpuprofile":
			f.cpuprofile, err = takeValue()
		case "memprofile":
			f.memprofile, err = takeValue()
		case "listen-workers":
			f.listenWorkers, err = takeValue()
		case "shard-cache":
			f.shardCacheDir, err = takeValue()
		case "lease-batch":
			var v string
			if v, err = takeValue(); err == nil {
				f.leaseBatch, err = strconv.Atoi(v)
				if err == nil && f.leaseBatch < 0 {
					err = fmt.Errorf("must be >= 0 (0 means the default)")
				}
			}
		case "min-workers":
			var v string
			if v, err = takeValue(); err == nil {
				f.minWorkers, err = strconv.Atoi(v)
				if err == nil && f.minWorkers < 1 {
					err = fmt.Errorf("must be >= 1")
				}
			}
		case "csv":
			f.csv = true
			if hasVal {
				f.csv, err = strconv.ParseBool(val)
			}
		case "json":
			f.jsonOut = true
			if hasVal {
				f.jsonOut, err = strconv.ParseBool(val)
			}
		default:
			return f, fmt.Errorf("unknown flag -%s (see 'zen2ee help')", name)
		}
		if err != nil {
			return f, fmt.Errorf("flag -%s: %v", name, err)
		}
	}
	return f, nil
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

// withProfiles brackets a command with pprof collection, mirroring `go
// test`'s -cpuprofile/-memprofile: the CPU profile covers the command body,
// and the heap profile is written after a final GC so it reflects live
// allocations, not collectable garbage.
func (f experimentFlags) withProfiles(body func() error) error {
	if f.cpuprofile != "" {
		g, err := os.Create(f.cpuprofile)
		if err != nil {
			return err
		}
		defer g.Close()
		if err := pprof.StartCPUProfile(g); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	err := body()
	if f.memprofile != "" {
		g, merr := os.Create(f.memprofile)
		if merr != nil {
			return errors.Join(err, merr)
		}
		defer g.Close()
		runtime.GC()
		if merr := pprof.WriteHeapProfile(g); merr != nil {
			return errors.Join(err, merr)
		}
	}
	return err
}

// withCoordinator wires distributed execution into a run when
// -listen-workers is set: it serves the worker protocol on the given
// address, optionally waits for -min-workers registrations, and rewires
// the scheduler to dispatch shards through the coordinator's lease queue
// (local execution remains the fallback, so a run with zero workers still
// completes). The returned cleanup tears the listener and coordinator
// down; it must run after the scheduler returns.
func (f experimentFlags) withCoordinator(runCfg *core.RunConfig, tr *obs.Trace) (cleanup func(), err error) {
	if f.listenWorkers == "" {
		if f.minWorkers > 0 {
			return nil, fmt.Errorf("-min-workers needs -listen-workers")
		}
		if f.leaseBatch > 0 {
			return nil, fmt.Errorf("-lease-batch needs -listen-workers")
		}
		return func() {}, nil
	}
	ln, err := net.Listen("tcp", f.listenWorkers)
	if err != nil {
		return nil, fmt.Errorf("-listen-workers: %w", err)
	}
	coord := dist.NewCoordinator(dist.Config{MaxLeaseBatch: f.leaseBatch})
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	addr := ln.Addr().String()
	fmt.Fprintf(os.Stderr, "zen2ee: coordinator listening on %s (join with: zen2eed -worker http://%s)\n", addr, addr)
	if f.minWorkers > 0 {
		fmt.Fprintf(os.Stderr, "zen2ee: waiting for %d worker(s) to register...\n", f.minWorkers)
		for coord.WorkersConnected() < f.minWorkers {
			time.Sleep(25 * time.Millisecond)
		}
	}
	h := coord.StartRun(tr)
	runCfg.RunShard = h.RunShard
	// Size the dispatch width to the whole pool — local slots plus every
	// registered worker's — so a fleet larger than this machine's CPU
	// count is actually kept busy. Placement does not affect results.
	local := f.parallel
	if local == 0 {
		local = runtime.NumCPU()
	}
	runCfg.Workers = coord.PoolSize(local)
	return func() {
		h.Finish()
		srv.Close()
		coord.Close()
	}, nil
}

// shardCacheMemEntries/Bytes bound the in-process tier fronting the
// -shard-cache directory; the disk tier underneath is unbounded, so these
// only trade memory for re-reads on very large sweeps.
const (
	shardCacheMemEntries = 512
	shardCacheMemBytes   = 128 << 20
)

// withShardCache wires shard-output memoization into a run when
// -shard-cache is set: shard outputs are stored content-addressed under
// the given directory (fronted by a small memory tier), and any shard
// whose key is already present is served from the cache instead of
// executed — byte-identical, per the engine's determinism guarantee. It
// must wrap runCfg.RunShard after withCoordinator so cached shards skip
// the lease queue entirely. The returned cleanup closes the store and
// reports hit/miss counts; it must run after the scheduler returns.
func (f experimentFlags) withShardCache(runCfg *core.RunConfig, tr *obs.Trace) (cleanup func(), err error) {
	if f.shardCacheDir == "" {
		return func() {}, nil
	}
	disk, err := store.NewDisk(f.shardCacheDir, 0)
	if err != nil {
		return nil, fmt.Errorf("-shard-cache: %w", err)
	}
	st := store.NewTiered(store.NewMemory(shardCacheMemEntries, shardCacheMemBytes), disk)
	cache := shardcache.New(st, "")
	runCfg.RunShard = cache.WrapRunShard(runCfg.RunShard, tr)
	return func() {
		s := cache.Stats()
		fmt.Fprintf(os.Stderr, "zen2ee: shard cache: %d hit(s), %d miss(es), %d byte(s) served\n",
			s.Hits, s.Misses, s.BytesServed)
		st.Close()
	}, nil
}

// rejectSweepAxes guards the single-configuration commands against the
// sweep-only flags, so "-scales" on run fails loudly instead of silently
// running one configuration.
func rejectSweepAxes(cmd string, f experimentFlags) error {
	if len(f.scales) > 0 || len(f.seeds) > 0 {
		return fmt.Errorf("-scales/-seeds are sweep flags; %s takes -scale and -seed", cmd)
	}
	if f.output != "" {
		return fmt.Errorf("-o is a sweep flag; redirect %s's stdout instead", cmd)
	}
	return nil
}

func run(args []string) error {
	f, err := parseExperimentArgs(args)
	if err != nil {
		return err
	}
	if err := rejectSweepAxes("run", f); err != nil {
		return err
	}
	if len(f.pos) != 1 {
		return fmt.Errorf("run needs exactly one experiment id (or 'all')")
	}
	if f.csv && f.jsonOut {
		return fmt.Errorf("-csv and -json are mutually exclusive")
	}
	return f.withProfiles(func() error { return runExperiments(f) })
}

func runExperiments(f experimentFlags) error {
	tr := f.newTrace()
	runCfg := core.RunConfig{Workers: f.parallel, Trace: tr}
	finish, err := f.withCoordinator(&runCfg, tr)
	if err != nil {
		return err
	}
	defer finish()
	cacheDone, err := f.withShardCache(&runCfg, tr)
	if err != nil {
		return err
	}
	defer cacheDone()
	var results []*core.Result
	if f.pos[0] == "all" {
		results, err = core.RunIDsConfig(nil, f.opts, runCfg, printProgress)
		if err != nil {
			// Partial results still print below; main reports the joined
			// error once after them (the progress stream already flagged
			// each failure as it happened).
			fmt.Fprintln(os.Stderr, "zen2ee: some experiments failed, printing partial results")
		}
	} else {
		// Single experiments also go through the shard scheduler, so a
		// heavy one (fig7, fig8) fans its sweep points across -parallel
		// workers; results are identical to a serial run.
		results, err = core.RunIDsConfig([]string{f.pos[0]}, f.opts, runCfg, printProgress)
		if err != nil {
			return errors.Join(err, f.commitTrace(tr))
		}
	}
	if f.jsonOut {
		// The canonical JSON document — byte-identical to what the zen2eed
		// daemon serves for the same (experiment set, scale, seed), so CLI
		// and daemon outputs are directly diffable.
		var marshalStart time.Time
		if tr.Enabled() {
			marshalStart = time.Now()
		}
		werr := report.WriteJSON(os.Stdout, results, f.opts)
		if tr.Enabled() {
			tr.Add(obs.Span{Cat: obs.CatMarshal, Name: "marshal", Config: -1, Worker: -1,
				Start: tr.Offset(marshalStart), Dur: time.Since(marshalStart)})
		}
		return errors.Join(err, werr, f.commitTrace(tr))
	}
	for _, r := range results {
		if f.csv {
			if werr := report.WriteCSV(os.Stdout, r); werr != nil {
				// Keep the suite failures visible even if stdout breaks.
				return errors.Join(err, werr, f.commitTrace(tr))
			}
		} else {
			fmt.Println(r.Table())
		}
	}
	return errors.Join(err, f.commitTrace(tr))
}

// newTrace builds the run's execution-trace recorder; nil (the disabled
// recorder, costing the scheduler nothing) when -trace was not given.
func (f experimentFlags) newTrace() *obs.Trace {
	if f.trace == "" {
		return nil
	}
	return obs.New(0)
}

// commitTrace writes the recorded trace to the -trace destination through
// the same temp-file + rename path as -o. It runs even when the run itself
// failed — a trace of a failed run is exactly when you want one — and
// no-ops when tracing is off.
func (f experimentFlags) commitTrace(tr *obs.Trace) error {
	if !tr.Enabled() {
		return nil
	}
	out, commit, err := openOutput(f.trace)
	if err != nil {
		return err
	}
	spans, dropped := tr.Snapshot()
	return commit(report.WriteChromeTrace(out, spans, dropped))
}

// sweep runs the -scales × -seeds configuration grid over the named
// experiments (all of them by default) as one batched scheduler run,
// streaming each configuration's output as its last shard finishes —
// memory stays bounded by the configurations in flight, never by the grid
// size. With -o the document lands via temp-file + rename, so an
// interrupted run leaves the target untouched instead of truncated.
func sweep(args []string) error {
	f, err := parseExperimentArgs(args)
	if err != nil {
		return err
	}
	if f.csv {
		return fmt.Errorf("sweep output is per-configuration; -csv is not supported (use -json)")
	}
	if f.opts != core.DefaultOptions() {
		return fmt.Errorf("-scale/-seed are single-run flags; sweep takes -scales and -seeds")
	}
	ids := f.pos
	if len(ids) == 1 && ids[0] == "all" {
		ids = nil
	}
	return f.withProfiles(func() error {
		sw := core.Sweep{IDs: ids, Configs: core.Grid(f.scales, f.seeds)}
		tr := f.newTrace()
		runCfg := core.RunConfig{Workers: f.parallel, Trace: tr}
		finish, err := f.withCoordinator(&runCfg, tr)
		if err != nil {
			return err
		}
		defer finish()
		cacheDone, err := f.withShardCache(&runCfg, tr)
		if err != nil {
			return err
		}
		defer cacheDone()
		out, commit, err := openOutput(f.output)
		if err != nil {
			return err
		}
		if f.jsonOut {
			err = commit(streamSweepJSON(out, sw, runCfg))
		} else {
			err = commit(streamSweepTables(out, sw, runCfg))
		}
		return errors.Join(err, f.commitTrace(tr))
	})
}

// openOutput resolves the sweep's destination: stdout when path is empty,
// otherwise a temp file in the target's directory (same filesystem, so the
// rename is atomic). commit finalizes: on success it renames the temp over
// the target; on any error it removes the temp and the target is never
// touched. Stdout needs no such care — a truncated JSON document is
// invalid, not mistakable for a complete one.
func openOutput(path string) (io.Writer, func(error) error, error) {
	if path == "" {
		return os.Stdout, func(err error) error { return err }, nil
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

// streamSweepJSON emits the canonical sweep document section by section as
// configurations complete: each per-config section carries the exact bytes
// `zen2ee run -json` (and the zen2eed daemon) produce for that
// configuration alone, and the whole document is byte-identical to the
// collected report.MarshalSweep output. The SweepWriter reorders
// out-of-completion-order sections internally, so the document is in
// request order without the CLI ever holding more than the in-flight
// window.
func streamSweepJSON(w io.Writer, sw core.Sweep, cfg core.RunConfig) error {
	// Validate before the writer emits the document header, so bad requests
	// fail without partial output.
	ids, err := core.CanonicalIDs(sw.IDs)
	if err != nil {
		return err
	}
	if err := sw.Validate(); err != nil {
		return err
	}
	sweepW, err := report.NewSweepWriter(w, ids, sw.Configs)
	if err != nil {
		return err
	}
	tr := cfg.Trace
	var cbErr error
	err = core.RunSweepStream(sw, cfg, func(i int, cr core.ConfigResult, cfgErr error) {
		if cfgErr != nil || cbErr != nil {
			return // the config's failure is joined into the returned error
		}
		var marshalStart time.Time
		if tr.Enabled() {
			marshalStart = time.Now()
		}
		doc, merr := report.MarshalResults(cr.Results, cr.Config)
		if tr.Enabled() {
			tr.Add(obs.Span{Cat: obs.CatMarshal, Name: "marshal", Config: i, Worker: -1,
				Start: tr.Offset(marshalStart), Dur: time.Since(marshalStart)})
		}
		if merr != nil {
			cbErr = merr
			return
		}
		if werr := sweepW.WriteSection(i, doc); werr != nil {
			cbErr = werr
		}
	}, printProgress)
	if err == nil {
		err = cbErr
	}
	if err != nil {
		// Unlike run, a sweep is usually unattended (it is the batch
		// shape); never finalize a document with missing sections.
		return err
	}
	return sweepW.Close()
}

// streamSweepTables prints per-configuration tables in request order as
// configurations complete, reordering out-of-order completions through a
// small pending map (bounded by the scheduler's in-flight window). On a
// failed configuration the stream stops at its index: tables after a gap
// would read as a complete study.
func streamSweepTables(w io.Writer, sw core.Sweep, cfg core.RunConfig) error {
	next := 0
	pending := make(map[int]core.ConfigResult)
	return core.RunSweepStream(sw, cfg, func(i int, cr core.ConfigResult, cfgErr error) {
		if cfgErr != nil {
			return // joined into the returned error; the section stays unprinted
		}
		pending[i] = cr
		for {
			cr, ok := pending[next]
			if !ok {
				return
			}
			delete(pending, next)
			next++
			fmt.Fprintf(w, "==== scale %g, seed %d ====\n\n", cr.Config.Scale, cr.Config.Seed)
			for _, r := range cr.Results {
				fmt.Fprintln(w, r.Table())
			}
		}
	}, printProgress)
}

func genExperiments(args []string) error {
	f, err := parseExperimentArgs(args)
	if err != nil {
		return err
	}
	if err := rejectSweepAxes("gen-experiments", f); err != nil {
		return err
	}
	if f.trace != "" {
		return fmt.Errorf("-trace is a run/sweep flag; gen-experiments does not execute a traced schedule")
	}
	if f.listenWorkers != "" || f.minWorkers > 0 {
		return fmt.Errorf("-listen-workers/-min-workers are run/sweep flags")
	}
	if f.shardCacheDir != "" || f.leaseBatch > 0 {
		return fmt.Errorf("-shard-cache/-lease-batch are run/sweep flags")
	}
	if len(f.pos) != 0 {
		return fmt.Errorf("gen-experiments takes no positional arguments")
	}
	return f.withProfiles(func() error {
		results, err := core.RunIDsConfig(nil, f.opts, core.RunConfig{Workers: f.parallel}, printProgress)
		if err != nil {
			return err
		}
		_, err = report.WriteMarkdown(os.Stdout, results, f.opts)
		return err
	})
}
