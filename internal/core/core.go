// Package core is the characterization harness: every table and figure of
// the paper is a registered Experiment that drives the simulated EPYC 7502
// system through the paper's methodology and reports its results next to
// the paper's published values.
//
// Experiments return a Result carrying (a) a human-readable table, (b)
// machine-checkable metrics, (c) raw series for the benchmark harness, and
// (d) paper-vs-measured comparisons from which EXPERIMENTS.md is generated.
package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"zen2ee/internal/sim"
)

// Options controls experiment effort.
type Options struct {
	// Scale multiplies sample counts and measurement durations. 1.0 gives
	// statistically meaningful results in seconds of wall time; the paper's
	// full protocol (100 000 transition samples, 10 s windows, 2-minute
	// runs) corresponds to Scale ≈ 25 and is available through the CLI.
	Scale float64 `json:"scale"`
	// Seed feeds the deterministic simulation.
	Seed uint64 `json:"seed"`
}

// DefaultOptions returns Scale 1, Seed 1.
func DefaultOptions() Options { return Options{Scale: 1, Seed: 1} }

// Validate rejects option values no simulation can run at: a scale that
// is not a positive finite number. Every entry point that takes options
// (RunSweepStream and RunSweep, RunIDsConfig, RunOne, ExecuteShardRef)
// calls it before any work starts, so experiments read Scale as given.
func (o Options) Validate() error {
	if math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) {
		return fmt.Errorf("scale must be a finite number, got %v", o.Scale)
	}
	if o.Scale <= 0 {
		return fmt.Errorf("scale must be positive, got %g", o.Scale)
	}
	return nil
}

func (o Options) scaled(n int) int {
	v := int(math.Round(float64(n) * o.Scale))
	if v < 1 {
		v = 1
	}
	return v
}

// Comparison is one paper-vs-measured data point. Its JSON form (see
// json.go) carries the stored fields plus the derived deviation/ok columns,
// so wire consumers do not reimplement the tolerance rules.
type Comparison struct {
	Name     string
	Unit     string
	Paper    float64
	Measured float64
	// RelTol is the acceptable relative deviation for the reproduction to
	// count as matching the paper's shape.
	RelTol float64
	// AbsTol is the acceptable absolute deviation when Paper is zero, where
	// a relative tolerance is meaningless (any nonzero measurement would be
	// infinitely off). It is ignored for nonzero paper values.
	AbsTol float64
}

// Deviation returns the relative deviation from the paper value.
func (c Comparison) Deviation() float64 {
	if c.Paper == 0 {
		if c.Measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (c.Measured - c.Paper) / math.Abs(c.Paper)
}

// DeviationCell renders the deviation for tables: the relative percentage
// when the paper value is nonzero, the absolute delta otherwise (a relative
// deviation from zero is ±Inf and unprintable).
func (c Comparison) DeviationCell() string {
	if c.Paper == 0 && c.Measured != 0 {
		return fmt.Sprintf("Δ%+.3g %s", c.Measured, c.Unit)
	}
	return fmt.Sprintf("%+.1f%%", 100*c.Deviation())
}

// OK reports whether the measured value reproduces the paper value within
// tolerance. Zero paper values fall back to the absolute tolerance.
func (c Comparison) OK() bool {
	if c.Paper == 0 {
		return math.Abs(c.Measured) <= c.AbsTol
	}
	return math.Abs(c.Deviation()) <= c.RelTol
}

// Result is an experiment outcome.
type Result struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`

	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`
	Notes   []string   `json:"notes,omitempty"`

	// Metrics carries machine-checkable scalar outcomes.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Series carries raw vectors (histogram counts, scatter coordinates).
	Series map[string][]float64 `json:"series,omitempty"`
	// Comparisons drive EXPERIMENTS.md and the integration tests.
	Comparisons []Comparison `json:"comparisons,omitempty"`

	// Elapsed is the wall-clock time from the experiment's first shard
	// starting to its reduce finishing. It is the one nondeterministic
	// field; report.MarshalResults clears it so canonical JSON documents
	// are byte-identical across runs.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
}

// newResult returns an empty Result for a run or reduce function to fill.
// It carries no identity: planFor stamps ID, Title and PaperRef from the
// registry entry onto every reduced Result.
func newResult() *Result {
	return &Result{
		Metrics: map[string]float64{},
		Series:  map[string][]float64{},
	}
}

func (r *Result) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *Result) compare(name, unit string, paper, measured, relTol float64) {
	r.Comparisons = append(r.Comparisons, Comparison{
		Name: name, Unit: unit, Paper: paper, Measured: measured, RelTol: relTol,
	})
}

// compareAbs records a comparison against a zero (or near-zero) paper value,
// where only an absolute tolerance is meaningful.
func (r *Result) compareAbs(name, unit string, paper, measured, absTol float64) {
	r.Comparisons = append(r.Comparisons, Comparison{
		Name: name, Unit: unit, Paper: paper, Measured: measured, AbsTol: absTol,
	})
}

// Metric fetches a metric, with existence check for tests.
func (r *Result) Metric(name string) (float64, bool) {
	v, ok := r.Metrics[name]
	return v, ok
}

// Table renders the rows as an aligned text table.
func (r *Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", r.ID, r.Title, r.PaperRef)
	if len(r.Columns) > 0 {
		widths := make([]int, len(r.Columns))
		for i, c := range r.Columns {
			widths[i] = len(c)
		}
		for _, row := range r.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
			}
			b.WriteByte('\n')
		}
		writeRow(r.Columns)
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		b.WriteByte('\n')
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	if len(r.Comparisons) > 0 {
		b.WriteString("\npaper vs measured:\n")
		for _, c := range r.Comparisons {
			mark := "OK"
			if !c.OK() {
				mark = "DEVIATES"
			}
			fmt.Fprintf(&b, "  %-42s paper %10.3f %-8s measured %10.3f  (%s) %s\n",
				c.Name, c.Paper, c.Unit, c.Measured, c.DeviationCell(), mark)
		}
	}
	return b.String()
}

// Shard is one independent unit of work within an experiment. Shards of the
// same experiment must not share mutable state: each builds its own
// simulated system from the Options it receives (whose Seed is already the
// shard's derived stream), so the scheduler is free to run them on any
// worker in any order.
type Shard struct {
	// Label names the shard for progress display and error messages
	// (e.g. "active-2500"). It has no effect on seed derivation.
	Label string
	// Run executes the shard and returns its raw output, which the
	// experiment's Reduce later combines into the Result.
	Run func(Options) (any, error)
}

// Reduce combines shard outputs into the experiment's Result. outs[i] is
// shard i's return value in plan order regardless of completion order, and
// the Options are the experiment-level ones (not any shard's), so a reducer
// is deterministic by construction. It runs once, after every shard
// finished successfully.
type Reduce func(o Options, outs []any) (*Result, error)

// Experiment is a registered, runnable paper artifact. Plan exposes its
// independent units of work (fig7's sweep series, fig8's wake-latency
// matrix cells) so the scheduler fans shards — not just whole experiments
// — across its worker pool. Experiments with no useful decomposition are
// one-shard plans built by whole.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	// Bench names the testing.B benchmark regenerating this artifact.
	Bench string
	// Plan decomposes the experiment into independent shards plus the
	// reducer combining their outputs.
	Plan func(Options) ([]Shard, Reduce, error)
	// SeedFree declares that the experiment's result does not depend on
	// the run seed: it reads applied frequencies, counters and wake paths
	// that the model's noise never reaches. Such an experiment always runs
	// at the default seed (see canonical), so every seed of a sweep, and
	// every job at a new seed, shares one computation of it. A tier-1 test
	// (TestSeedFreeDeclarationsHold) runs each declared experiment unpinned
	// at several seeds and requires the pinned bytes.
	SeedFree bool
}

// canonical returns the configuration e actually runs under: c with the
// default seed when e is seed-free, c unchanged otherwise. It is the one
// place the seed-free rule lives; the scheduler's effective options, its
// sweep dedupe and the wire address of every shard (ShardRef.Config) all
// derive from it, so equal work has an equal address.
func (e Experiment) canonical(c Config) Config {
	if e.SeedFree {
		c.Seed = DefaultOptions().Seed
	}
	return c
}

// registry declares every experiment once, in the paper's presentation
// order: the order Registry lists, ResolveIDs resolves to, and every run
// document's sections follow.
var registry = []Experiment{
	whole(Experiment{ID: "fig1", SeedFree: true,
		Title:    "Green500 power efficiency of x86 architectures",
		PaperRef: "Fig. 1",
		Bench:    "BenchmarkFig1Green500"}, runFig1),
	whole(Experiment{ID: "sec5a", SeedFree: true,
		Title:    "Idling hardware threads elevate core frequency",
		PaperRef: "§V-A",
		Bench:    "BenchmarkSec5AIdleSibling"}, runSec5A),
	whole(Experiment{ID: "fig3",
		Title:    "Frequency transition delay histogram 2.2 → 1.5 GHz",
		PaperRef: "Fig. 3",
		Bench:    "BenchmarkFig3TransitionHistogram"}, runFig3),
	whole(Experiment{ID: "sec5b",
		Title:    "Fast-return anomaly between 2.5 and 2.2 GHz",
		PaperRef: "§V-B",
		Bench:    "BenchmarkSec5BFastReturn"}, runSec5B),
	{ID: "tab1", SeedFree: true,
		Title:    "Applied core frequencies in a mixed-frequency CCX",
		PaperRef: "Table I",
		Bench:    "BenchmarkTable1MixedFrequencies",
		Plan:     planTab1},
	{ID: "fig4", SeedFree: true,
		Title:    "L3 cache latency in a mixed-frequency CCX",
		PaperRef: "Fig. 4",
		Bench:    "BenchmarkFig4L3Latency",
		Plan:     planFig4},
	whole(Experiment{ID: "fig5a", SeedFree: true,
		Title:    "STREAM Triad bandwidth vs I/O-die P-state and DRAM frequency",
		PaperRef: "Fig. 5a",
		Bench:    "BenchmarkFig5aStreamBandwidth"}, runFig5a),
	whole(Experiment{ID: "fig5b", SeedFree: true,
		Title:    "Memory latency vs I/O-die P-state and DRAM frequency",
		PaperRef: "Fig. 5b",
		Bench:    "BenchmarkFig5bMemoryLatency"}, runFig5b),
	whole(Experiment{ID: "fig6",
		Title:    "EDC frequency limitation under FIRESTARTER",
		PaperRef: "Fig. 6 / §V-E",
		Bench:    "BenchmarkFig6Firestarter"}, runFig6),
	{ID: "fig7", SeedFree: true,
		Title:    "System power vs number of threads not in C2",
		PaperRef: "Fig. 7 / §VI-A",
		Bench:    "BenchmarkFig7IdlePowerSweep",
		Plan:     planFig7},
	whole(Experiment{ID: "sec6acpi", SeedFree: true,
		Title:    "ACPI-reported C-state latencies and power",
		PaperRef: "§VI",
		Bench:    "BenchmarkSec6ACPITable"}, runSec6ACPI),
	whole(Experiment{ID: "sec6b", SeedFree: true,
		Title:    "Offline hardware threads block package sleep",
		PaperRef: "§VI-B",
		Bench:    "BenchmarkSec6BOfflineAnomaly"}, runSec6B),
	{ID: "fig8",
		Title:    "C-state wake-up latencies",
		PaperRef: "Fig. 8 / §VI-C",
		Bench:    "BenchmarkFig8WakeupLatency",
		Plan:     planFig8},
	whole(Experiment{ID: "sec7u", SeedFree: true,
		Title:    "RAPL counter update rate",
		PaperRef: "§VII",
		Bench:    "BenchmarkSec7RAPLUpdateRate"}, runSec7U),
	whole(Experiment{ID: "fig9",
		Title:    "RAPL readings vs AC reference across workloads",
		PaperRef: "Fig. 9 / §VII-A",
		Bench:    "BenchmarkFig9RAPLQuality"}, runFig9),
	whole(Experiment{ID: "fig10",
		Title:    "Data-dependent power: vxorps operand Hamming weight",
		PaperRef: "Fig. 10 / §VII-B",
		Bench:    "BenchmarkFig10HammingWeight"}, runFig10),
	whole(Experiment{ID: "sec7b",
		Title:    "Data-dependent power: shr operand Hamming weight",
		PaperRef: "§VII-B",
		Bench:    "BenchmarkSec7BShr"}, runSec7B),
	whole(Experiment{ID: "extboost",
		Title:    "Core Performance Boost under light and dense load",
		PaperRef: "§V-E (observation) / extension",
		Bench:    "BenchmarkExtBoost"}, runExtBoost),
	whole(Experiment{ID: "ext7742",
		Title:    "EDC throttling severity on a 64-core EPYC 7742",
		PaperRef: "§VIII future work / extension",
		Bench:    "BenchmarkExt7742Throttling"}, runExt7742),
}

// whole returns e with a one-shard plan that calls run, for experiments
// that run as one indivisible simulation. The shard ignores the shard seed it is
// handed and calls run with the plan-time experiment options: these
// experiments predate sharding, and their numbers must not move. This is
// the one place a shard's seed differs from its derived stream.
func whole(e Experiment, run func(Options) (*Result, error)) Experiment {
	e.Plan = func(o Options) ([]Shard, Reduce, error) {
		return []Shard{{Label: e.ID, Run: func(Options) (any, error) { return run(o) }}},
			func(_ Options, outs []any) (*Result, error) { return outs[0].(*Result), nil }, nil
	}
	return e
}

// shardOptions returns the options shard i of experiment id receives: its
// own RNG stream derived from the experiment options' seed and the shard
// index, so results are invariant to worker count and interleaving. The
// scheduler and ExecuteShardRef both derive shard seeds here, which is what
// makes local and remote execution identical.
func shardOptions(id string, o Options, i int) Options {
	o.Seed = sim.DeriveSeed(o.Seed, fmt.Sprintf("%s/shard/%d", id, i))
	return o
}

// planFor resolves an experiment to its shard plan, rejecting plans with no
// shards or no reducer. It is the one place the scheduler and
// ExecuteShardRef resolve a plan, and the returned reducer stamps e's ID,
// Title and PaperRef onto a shallow copy of the reduced Result: a whole
// experiment's reducer returns its shard output, which may feed several
// reductions and must stay unchanged.
func planFor(e Experiment, o Options) ([]Shard, Reduce, error) {
	shards, reduce, err := e.Plan(o)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: %w", err)
	}
	if len(shards) == 0 || reduce == nil {
		return nil, nil, fmt.Errorf("plan: %d shards, reduce %t — a plan needs at least one shard and a reducer", len(shards), reduce != nil)
	}
	return shards, func(o Options, outs []any) (*Result, error) {
		r, err := reduce(o, outs)
		if err != nil || r == nil {
			return r, err
		}
		c := *r
		c.ID, c.Title, c.PaperRef = e.ID, e.Title, e.PaperRef
		return &c, nil
	}, nil
}

// Registry lists all experiments in paper order.
func Registry() []Experiment { return append([]Experiment(nil), registry...) }

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

// perExperiment returns the options an individual experiment receives when
// scheduled: the run seed is replaced by an independent stream derived from
// (seed, experiment ID), so every experiment draws from its own RNG stream
// and results are invariant to execution order, worker count and the
// experiment set it runs in. Callers pass the experiment's canonical
// configuration (Experiment.canonical), so a seed-free experiment derives
// its stream from the default seed whatever the run seed is.
func (o Options) perExperiment(id string) Options {
	o.Seed = sim.DeriveSeed(o.Seed, id)
	return o
}
