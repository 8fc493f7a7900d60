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
	"sort"
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

// Normalize returns the options with defaults applied: a non-positive or
// non-finite Scale becomes 1. It is the single place option values are
// coerced — every internal consumer goes through it, so services that would
// rather reject bad values than silently patch them can call Validate at
// their boundary instead.
func (o Options) Normalize() Options {
	if o.Scale <= 0 || math.IsNaN(o.Scale) || math.IsInf(o.Scale, 0) {
		o.Scale = 1
	}
	return o
}

// Validate reports the option values Normalize would have to silently
// coerce. API boundaries (the zen2eed daemon, the CLI) reject these with an
// error instead of running a simulation the caller did not ask for.
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
	v := int(math.Round(float64(n) * o.Normalize().Scale))
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

func newResult(id, title, ref string) *Result {
	return &Result{
		ID: id, Title: title, PaperRef: ref,
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
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

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
// shards or no reducer.
func planFor(e Experiment, o Options) ([]Shard, Reduce, error) {
	shards, reduce, err := e.Plan(o)
	if err != nil {
		return nil, nil, fmt.Errorf("plan: %w", err)
	}
	if len(shards) == 0 || reduce == nil {
		return nil, nil, fmt.Errorf("plan: %d shards, reduce %t — a plan needs at least one shard and a reducer", len(shards), reduce != nil)
	}
	return shards, reduce, nil
}

// Registry lists all experiments in paper order.
func Registry() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return orderOf(out[i].ID) < orderOf(out[j].ID) })
	return out
}

// orderOf imposes the paper's presentation order.
func orderOf(id string) int {
	order := []string{"fig1", "sec5a", "fig3", "sec5b", "tab1", "fig4",
		"fig5a", "fig5b", "fig6", "fig7", "sec6acpi", "sec6b", "fig8",
		"sec7u", "fig9", "fig10", "sec7b", "extboost", "ext7742"}
	for i, x := range order {
		if x == id {
			return i
		}
	}
	return len(order)
}

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
// experiment set it runs in.
func (o Options) perExperiment(id string) Options {
	o.Seed = sim.DeriveSeed(o.Seed, id)
	return o
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
