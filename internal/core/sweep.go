// The sweep-first run API. The paper's artifacts are parameter sweeps
// (fig7's frequency/thread sweeps, fig8's wake-latency matrix), and
// sensitivity studies over them want the same experiment set evaluated at
// many (Scale, Seed) points — so the batched request, not the single
// configuration, is the primitive: a Sweep plans one merged shard set over
// every (configuration, experiment, shard) triple and fans it across one
// worker pool, while single-configuration entry points (RunIDsConfig,
// RunOne) are one-config sweeps. Batching changes scheduling
// only: every per-configuration result slice is identical — byte for byte
// through report.MarshalResults — to the standalone run of that
// configuration.

package core

import "fmt"

// Config is one point of a sweep grid: a (Scale, Seed) pair. It is the
// same value type as Options — the alias exists so sweep call sites read
// as grids of configurations rather than as effort options.
type Config = Options

// Grid expands the Scales × Seeds cross-product into configurations,
// scales outermost: (s0,d0), (s0,d1), …, (s1,d0), … An empty scale or
// seed axis defaults to the single default value (Scale 1 / Seed 1), so
// one-axis sweeps read naturally.
func Grid(scales []float64, seeds []uint64) []Config {
	if len(scales) == 0 {
		scales = []float64{DefaultOptions().Scale}
	}
	if len(seeds) == 0 {
		seeds = []uint64{DefaultOptions().Seed}
	}
	out := make([]Config, 0, len(scales)*len(seeds))
	for _, sc := range scales {
		for _, sd := range seeds {
			out = append(out, Config{Scale: sc, Seed: sd})
		}
	}
	return out
}

// Sweep is a batched run request: one experiment set (empty IDs = the full
// registry) evaluated at every listed configuration.
type Sweep struct {
	IDs     []string `json:"ids,omitempty"`
	Configs []Config `json:"configs"`
}

// Validate rejects sweeps the scheduler would otherwise have to silently
// patch: no configurations, configurations whose Options fail validation,
// and duplicated configurations (which would burn a full redundant run to
// produce an identical section). Experiment IDs are validated separately
// by ResolveIDs, which likewise rejects duplicates.
func (s Sweep) Validate() error {
	if len(s.Configs) == 0 {
		return fmt.Errorf("core: sweep has no configurations")
	}
	seen := make(map[Config]int, len(s.Configs))
	for i, c := range s.Configs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("core: sweep config %d: %w", i, err)
		}
		if j, dup := seen[c]; dup {
			return fmt.Errorf("core: sweep configs %d and %d are identical (scale %g, seed %d)", j, i, c.Scale, c.Seed)
		}
		seen[c] = i
	}
	return nil
}

// ConfigResult is one configuration's section of a sweep outcome.
type ConfigResult struct {
	Config Config `json:"config"`
	// Results are the configuration's experiment results in paper order —
	// identical to what a standalone RunIDsConfig call with this
	// configuration returns.
	Results []*Result `json:"results"`
}

// SweepResult is the reduction of a sweep: per-configuration result sets
// keyed by configuration, in request order.
type SweepResult struct {
	// IDs echoes the canonical experiment set (paper order; nil when the
	// sweep covered the full registry).
	IDs  []string       `json:"ids,omitempty"`
	Runs []ConfigResult `json:"runs"`
}

// ReduceConfig consumes one configuration's completed section of a
// streaming sweep: i is the configuration's index in the request's Configs,
// cr its results in paper order, and err the joined failure of any of its
// experiments (cr still carries whatever succeeded). See RunSweepStream for
// the invocation contract.
type ReduceConfig func(i int, cr ConfigResult, err error)

// CanonicalIDs resolves a requested experiment-ID set to the canonical
// form run documents carry: paper-order IDs for a proper subset of the
// registry, nil when the request covers the full registry (including an
// empty request). Invalid sets fail exactly as ResolveIDs does.
func CanonicalIDs(ids []string) ([]string, error) {
	exps, err := ResolveIDs(ids)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 || len(exps) == len(Registry()) {
		return nil, nil
	}
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out, nil
}

// RunSweepStream executes a batched sweep exactly as RunSweep does — one
// merged task set over every (configuration, experiment, shard) triple,
// fanned across the RunConfig's worker pool — but instead of accumulating
// a SweepResult it hands each ConfigResult to onConfig the moment the
// configuration's last (experiment, shard) task finishes, then releases
// the scheduler's backing buffers for it. Memory is therefore proportional
// to the configurations in flight, not to the sweep size: what the caller
// does not retain out of cr is collectable as soon as onConfig returns.
//
// Callback contract: onConfig is required, invoked exactly once per
// configuration in completion order (not request order — consumers needing
// request order reorder themselves; report.SweepWriter does), and is
// serialized — never invoked concurrently. It runs on a scheduler worker
// goroutine, so a slow callback stalls one worker; keep it cheap or hand
// off. Per-configuration failures arrive as the callback's err (cr still
// carries the configuration's surviving results) and are also joined into
// the returned error alongside every other configuration's failures.
func RunSweepStream(sw Sweep, cfg RunConfig, onConfig ReduceConfig, progress func(Progress)) error {
	if onConfig == nil {
		return fmt.Errorf("core: RunSweepStream requires an onConfig callback")
	}
	exps, err := ResolveIDs(sw.IDs)
	if err != nil {
		return err
	}
	if err := sw.Validate(); err != nil {
		return err
	}
	return runSweep(exps, sw.Configs, cfg, onConfig, progress)
}

// RunSweep executes a batched sweep: every (configuration, experiment,
// shard) triple is one independent task, fanned across the RunConfig's
// worker pool (and its optional Acquire gate), so a sweep saturates the
// same pool a single heavy run does instead of serializing configuration
// by configuration. Like the other schedulers it is partial on failure:
// every configuration's surviving results come back alongside one joined
// error. Unlike the Normalize-based internal paths, RunSweep validates at
// the boundary — invalid or duplicated configurations and unknown or
// duplicated experiment IDs are an error before any work starts.
//
// RunSweep is a collector over RunSweepStream: it retains every section,
// so memory is O(configs). Callers that can consume sections as they
// complete should use the stream directly.
func RunSweep(sw Sweep, cfg RunConfig, progress func(Progress)) (*SweepResult, error) {
	exps, err := ResolveIDs(sw.IDs)
	if err != nil {
		return nil, err
	}
	if err := sw.Validate(); err != nil {
		return nil, err
	}
	sr := &SweepResult{Runs: make([]ConfigResult, len(sw.Configs))}
	if len(sw.IDs) > 0 && len(exps) < len(Registry()) {
		sr.IDs = make([]string, len(exps))
		for i, e := range exps {
			sr.IDs[i] = e.ID
		}
	}
	err = runSweep(exps, sw.Configs, cfg, func(i int, cr ConfigResult, _ error) {
		sr.Runs[i] = cr
	}, progress)
	return sr, err
}
