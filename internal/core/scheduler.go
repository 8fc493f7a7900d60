// The concurrent experiment-execution engine. The unit of scheduling is the
// *shard*: every registered experiment is a plan of independent
// deterministic simulations (its own machines, its own RNG streams derived
// from the run seed) plus a reducer, so a worker pool fans shards — not
// whole experiments — across goroutines. A single heavy experiment (fig7's
// 128-thread sweep, fig8's wake-latency matrix) therefore spreads over the
// whole pool instead of serializing on one worker, while whole experiments
// ride along as one-shard plans. Batched sweeps (see sweep.go) widen the
// same pool over many (Scale, Seed) configurations: runSweep's merged task
// set over (configuration, experiment, shard) triples is the one execution
// pipeline, and single-configuration runs are its one-config special case.
// Configurations under which an experiment has equal effective options
// share its tasks, so a seed-free experiment runs once per scale of a
// sweep, not once per seed.
// The pool collects whatever succeeds, joins the failures into one error,
// and still reports results in paper order.
//
// Determinism: shard i of experiment e draws from the stream
// sim.DeriveSeed(expSeed, "e/shard/i"), where expSeed derives from the
// experiment's canonical configuration (see shardOptions; whole
// experiments ignore it) and reducers see outputs in plan order, so results
// are byte-identical (through report.MarshalResults) for every worker count
// and shard interleaving.

package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zen2ee/internal/obs"
)

// Progress is one scheduler event. Two kinds share the struct:
//
//   - shard events (Shard in 1..Shards) report one shard of a multi-shard
//     experiment finishing;
//   - experiment-completion events (Shard == 0) report a whole experiment
//     finishing — the events pre-shard consumers were built on. Monolithic
//     (single-shard) experiments emit only these.
//
// Events arrive in completion order, which under parallel execution is
// neither paper order nor shard order. A run that several configurations
// share (a seed-free experiment swept over seeds) reports each of its
// events once per configuration it serves.
type Progress struct {
	// ID and Index identify the experiment (Index is its paper-order
	// position in the scheduled set).
	ID    string
	Index int
	// Config and Configs locate the event within a sweep: Config is the
	// index of the (Scale, Seed) configuration the experiment ran under,
	// Configs the sweep size. Single-configuration runs always report
	// Config 0 of 1.
	Config, Configs int
	// Shard and Shards locate a shard event within its experiment's plan:
	// a shard event carries Shard in 1..Shards; an experiment-completion
	// event has Shard == 0 (Shards still reports the plan size).
	Shard, Shards int
	// Label is the completed shard's plan label (e.g. "active-2500");
	// empty on experiment-completion events.
	Label string
	// Done counts finished (configuration, experiment) pairs (never
	// shards) including this one; Total is the pair count of the scheduled
	// set — for single-configuration runs these are exactly the experiment
	// counts pre-sweep consumers were built on. Shard events carry the
	// running Done count without incrementing it.
	Done, Total int
	// Elapsed is the shard's wall-clock time on a shard event, and the span
	// from the experiment's first shard starting to its reduce finishing on
	// an experiment-completion event.
	Elapsed time.Duration
	// Err is non-nil if the shard (or, on a completion event, any part of
	// the experiment) failed.
	Err error
}

// ExperimentDone reports whether this event marks a whole experiment
// finishing (as opposed to one shard of it).
func (p Progress) ExperimentDone() bool { return p.Shard == 0 }

// RunConfig controls how a scheduled run executes. The zero value runs with
// runtime.NumCPU() workers and no external gating.
type RunConfig struct {
	// Workers is the number of scheduler goroutines fanning shards out
	// (<= 0 means runtime.NumCPU()).
	Workers int
	// Acquire, when non-nil, gates every shard that executes in this
	// process on an external worker slot: the task's Run thunk calls
	// Acquire before running the shard and the returned release when it
	// finishes. The slot gates the thunk rather than the RunShard hook
	// call, so a shard the hook answers without running it here (a cache
	// hit, a remote lease) holds no slot, and every Run call holds exactly
	// one. The zen2eed daemon uses this to share one executor pool across
	// all concurrently running jobs while letting a lone job's shards
	// spread over the whole pool.
	Acquire func() (release func())
	// RunShard executes every shard task; nil means a hook that calls the
	// task's Run thunk. The hook receives the shard's wire-addressable
	// ShardRef plus its local execution thunk and returns the output, the
	// name of the remote worker that produced it (empty for in-process
	// execution), and the execution error. This is the seam
	// a distributed dispatcher (internal/dist) plugs into — planning,
	// reduction order, delivery, and seed derivation stay with the
	// scheduler, only the execution window moves. Calls arrive on scheduler
	// worker goroutines and may block; a hook that calls the thunk returns
	// only after the thunk has.
	RunShard func(ShardTask) (out any, origin string, err error)
	// Trace, when non-nil, records an obs.Span per executed (configuration,
	// experiment, shard) task — enqueue→start queue wait, execution window,
	// worker attribution, outcome — plus scheduler lifecycle spans (plan,
	// per-experiment reduce, per-configuration deliver). Nil (the default)
	// is the fast path: the scheduler takes no extra timestamps and
	// allocates nothing for tracing.
	Trace *obs.Trace
	// ObserveShard, when non-nil, receives every shard's queue wait (task
	// enqueue to execution start, an in-process shard's slot acquisition
	// included) and run time.
	// The daemon feeds its latency histograms through it; unlike Trace it
	// retains nothing, so it stays on for every job.
	ObserveShard func(wait, run time.Duration)
}

// ResolveIDs maps a requested experiment-ID set onto the registry: the
// returned experiments are in paper order regardless of request order, and
// an empty request selects the whole registry. This is the canonicalization
// the service layer's content-addressed cache keys build on — two requests
// naming the same set in different orders resolve identically. Unknown IDs
// and duplicated IDs fail the whole request before any work starts: a
// repeated ID is almost always a caller bug (a mis-built sweep grid, a
// copy-paste slip), and silently collapsing it would hide that the response
// has fewer sections than the request had entries.
func ResolveIDs(ids []string) ([]Experiment, error) {
	if len(ids) == 0 {
		return Registry(), nil
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, err := ByID(id); err != nil {
			return nil, err
		}
		if want[id] {
			return nil, fmt.Errorf("core: experiment %q requested twice", id)
		}
		want[id] = true
	}
	var out []Experiment
	for _, e := range Registry() {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

// RunIDsConfig executes the named experiments (all of them when ids is
// empty) through the shard scheduler. Every experiment runs on the seed
// stream derived from (o.Seed, its ID), so a job over a subset reproduces
// exactly those sections of a full run. Unknown IDs and options that fail
// Options.Validate are an error before any work starts. It does not abort
// on failure: it returns every successful Result in paper order plus a
// joined error covering the failures, so one broken experiment costs one
// table, not the run.
//
// Progress contract: the callback is serialized (never invoked
// concurrently) on a dedicated emitter goroutine, decoupled from the worker
// pool through a buffered channel sized to the run's total event count —
// a slow consumer (a terminal printer, an SSE fan-out) delays only later
// callbacks, never shard execution.
func RunIDsConfig(ids []string, o Options, cfg RunConfig, progress func(Progress)) ([]*Result, error) {
	exps, err := ResolveIDs(ids)
	if err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return runSet(exps, o, cfg, progress)
}

// RunOne executes a single experiment by ID through the scheduler on one
// worker, with the same derived seeds it receives in a full-suite run, so a
// lone rerun of one experiment reproduces its section of the suite exactly.
// Options that fail Options.Validate are an error.
func RunOne(id string, o Options) (*Result, error) {
	e, err := ByID(id)
	if err != nil {
		return nil, err
	}
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	results, err := runSet([]Experiment{e}, o, RunConfig{Workers: 1}, nil)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// task addresses one shard of one scheduled (configuration, experiment)
// pair. enqueueNS is the task's submission instant (unix nanoseconds),
// stamped only when the run is observed (Trace or ObserveShard); 0 means
// unobserved — the fast path carries no timestamps.
type task struct {
	config, exp, shard int
	enqueueNS          int64
}

// expRun tracks one experiment under one set of effective options through
// the shard scheduler. It serves every (configuration, experiment) pair of
// the sweep with those options: usually one, and one per seed for a
// seed-free experiment swept over seeds.
type expRun struct {
	exp    Experiment
	opts   Options // per-experiment derived options
	shards []Shard
	reduce Reduce
	// config is the first configuration the run serves: its tasks, shard
	// address and spans are attributed to it. also lists the later
	// configurations it serves; nil unless the run is shared.
	config int
	also   []int

	outs []any   // outs[i] is written only by shard i's worker
	errs []error // errs[i] likewise
	// remaining counts unfinished shards; the worker that decrements it to
	// zero reduces. Its atomicity also publishes the outs/errs writes of
	// the other workers to the reducing one.
	remaining atomic.Int32
	// startNS is the wall-clock instant the first shard started executing
	// (unix nanoseconds; 0 = not started).
	startNS atomic.Int64

	result *Result
	// err is the run's failure, untagged: errAt names the configuration.
	err error
}

// errAt returns the run's failure as configuration ci of configs reports
// it: prefixed with the bare experiment ID in a single-configuration run,
// and with the configuration's scale and seed in a sweep. Deliberately not
// the positional index — callers (the daemon) run subsets of a request's
// configurations, so an index would point at the wrong entry of the
// original request.
func (er *expRun) errAt(configs []Config, ci int) error {
	if er.err == nil {
		return nil
	}
	if len(configs) == 1 {
		return fmt.Errorf("core: %s: %w", er.exp.ID, er.err)
	}
	o := configs[ci]
	return fmt.Errorf("core: config (scale %g, seed %d): %s: %w", o.Scale, o.Seed, er.exp.ID, er.err)
}

// finalize runs once per experiment, on the worker completing its last
// shard: it joins shard failures or reduces the outputs into the Result,
// then drops the shard buffers — after finalize only result/err matter, and
// releasing outs here (rather than when the whole sweep drains) is what
// keeps a streaming sweep's live heap proportional to the shards in flight.
func (er *expRun) finalize() {
	defer func() { er.outs, er.errs, er.shards = nil, nil, nil }()
	if err := errors.Join(er.errs...); err != nil {
		er.err = err
		return
	}
	r, err := reduceGuarded(er.reduce, er.opts, er.outs)
	if err == nil && r == nil {
		// A (nil, nil) reducer must not crash the worker goroutine; it is
		// an experiment bug reported like any other failure.
		err = errors.New("reducer returned no result and no error")
	}
	if err != nil {
		er.err = fmt.Errorf("reduce: %w", err)
		return
	}
	r.Elapsed = time.Since(time.Unix(0, er.startNS.Load()))
	er.result = r
}

// noteStart records a shard's execution start: the experiment starts at
// its earliest shard's, whatever order the shards report in.
func (er *expRun) noteStart(at time.Time) {
	ns := at.UnixNano()
	for cur := er.startNS.Load(); cur == 0 || ns < cur; cur = er.startNS.Load() {
		if er.startNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (er *expRun) elapsed() time.Duration {
	if s := er.startNS.Load(); s != 0 {
		return time.Since(time.Unix(0, s))
	}
	return 0
}

// runSet runs one configuration — it is the one-config form of runSweep,
// kept as the seam scheduler tests inject failing or panicking experiments
// through without touching the global registry.
func runSet(exps []Experiment, o Options, cfg RunConfig, progress func(Progress)) ([]*Result, error) {
	var out []*Result
	err := runSweep(exps, []Config{o}, cfg, func(_ int, cr ConfigResult, _ error) { out = cr.Results }, progress)
	return out, err
}

// runSweep is the scheduler core: the merged task set over every
// (configuration, experiment, shard) triple, fanned across one worker pool.
// It operates on an explicit experiment set so tests can inject synthetic
// experiments. Configurations are delivered through onConfig in request
// order (see RunSweepStream for the callback contract); the returned error
// joins every failure across the whole sweep.
//
// Each configuration derives its experiment and shard seed streams exactly
// as a standalone single-configuration run would, so the ConfigResult for
// configs[i] is identical to what runSet(exps, configs[i], ...) computes —
// batching changes scheduling, never results. Configurations under which an
// experiment has equal effective options (a seed-free experiment at every
// seed of one scale) share one expRun: its shards run and reduce once, and
// its result and error reach each configuration it serves.
func runSweep(exps []Experiment, configs []Config, cfg RunConfig, onConfig ReduceConfig, progress func(Progress)) error {
	tr := cfg.Trace
	var planStart time.Time
	if tr.Enabled() {
		planStart = time.Now()
	}
	// Plan phase: resolve every (configuration, experiment) pair to its
	// shards up front, so the task channel and the event buffer can be
	// sized exactly and task submission never blocks a worker.
	runs := make([][]*expRun, len(configs))
	pairs := len(configs) * len(exps)
	total := 0       // tasks: the shards of every distinct expRun
	shardEvents := 0 // shard progress events: one per served configuration

	// Per-configuration completion: cfgRemaining[ci] counts the
	// configuration's unfinished (experiment) pairs; the goroutine that
	// decrements it to zero assembles the ConfigResult in paper order,
	// records the configuration's joined error, and drops runs[ci] so the
	// expRuns — and through them every Result the caller chose not to
	// retain — become collectable while later configurations are still
	// executing. Delivery is in request order: a configuration completing
	// ahead of an earlier one waits in ready[ci] until every earlier one
	// has been handed to onConfig. onMu serializes onConfig and guards
	// ready and next.
	cfgRemaining := make([]atomic.Int32, len(configs))
	cfgErrs := make([]error, len(configs))
	ready := make([]*ConfigResult, len(configs))
	next := 0
	var onMu sync.Mutex
	deliver := func(ci int) {
		ers := runs[ci]
		out := make([]*Result, 0, len(ers))
		errs := make([]error, 0, len(ers))
		for _, er := range ers {
			if er.result != nil {
				out = append(out, er.result)
			}
			errs = append(errs, er.errAt(configs, ci))
		}
		cfgErrs[ci] = errors.Join(errs...)
		runs[ci] = nil
		onMu.Lock()
		defer onMu.Unlock()
		ready[ci] = &ConfigResult{Config: configs[ci], Results: out}
		for ; next < len(configs) && ready[next] != nil; next++ {
			cr := ready[next]
			ready[next] = nil
			// The deliver span covers the consumer callback (a streaming
			// caller's marshal-and-cache work); it is timed inside onMu so
			// deliver spans never overlap on the scheduler track.
			var deliverStart time.Time
			if tr.Enabled() {
				deliverStart = time.Now()
			}
			onConfig(next, *cr, cfgErrs[next])
			if tr.Enabled() {
				sp := obs.Span{
					Cat: obs.CatDeliver, Name: "deliver", Config: next, Worker: -1,
					Start: tr.Offset(deliverStart), Dur: time.Since(deliverStart),
				}
				if cfgErrs[next] != nil {
					sp.Err = cfgErrs[next].Error()
				}
				tr.Add(sp)
			}
		}
	}
	// A sweep maps (experiment, effective options) to the one expRun that
	// computes it; a single configuration has nothing to share and builds
	// no map (lookups in the nil map miss).
	type runKey struct {
		exp  int
		opts Options
	}
	var shared map[runKey]*expRun
	if len(configs) > 1 {
		shared = make(map[runKey]*expRun, pairs)
	}
	for ci, o := range configs {
		runs[ci] = make([]*expRun, len(exps))
		cfgRemaining[ci].Store(int32(len(exps)))
		for i, e := range exps {
			key := runKey{i, e.canonical(o).perExperiment(e.ID)}
			er := shared[key]
			if er != nil {
				er.also = append(er.also, ci)
			} else {
				er = &expRun{exp: e, opts: key.opts, config: ci}
				er.shards, er.reduce, er.err = planForGuarded(e, er.opts)
				if er.err == nil {
					er.outs = make([]any, len(er.shards))
					er.errs = make([]error, len(er.shards))
					er.remaining.Store(int32(len(er.shards)))
					total += len(er.shards)
				}
				if shared != nil {
					shared[key] = er
				}
			}
			shardEvents += len(er.shards)
			runs[ci][i] = er
		}
	}
	if tr.Enabled() {
		tr.Add(obs.Span{
			Cat: obs.CatPlan, Name: "plan", Config: -1, Worker: -1,
			Start: tr.Offset(planStart), Dur: time.Since(planStart),
		})
	}

	// Progress decoupling (see RunIDsConfig): workers send into a
	// channel with room for every possible event, so emission never blocks
	// shard execution; one emitter goroutine serializes the callback and
	// owns the Done counter.
	emit := func(Progress) {}
	var emitterDone chan struct{}
	if progress != nil {
		events := make(chan Progress, shardEvents+pairs)
		emitterDone = make(chan struct{})
		go func() {
			defer close(emitterDone)
			done := 0
			for p := range events {
				if p.ExperimentDone() {
					done++
				}
				p.Done, p.Total, p.Configs = done, pairs, len(configs)
				progress(p)
			}
		}()
		emit = func(p Progress) { events <- p }
		defer func() { close(events); <-emitterDone }()
	}

	// complete reports a finished (or unplannable) expRun to every
	// configuration it serves: one completion event and one countdown each.
	complete := func(er *expRun, i, shards int) {
		elapsed := er.elapsed()
		done := func(ci int) {
			emit(Progress{
				ID: er.exp.ID, Index: i, Config: ci, Shards: shards,
				Elapsed: elapsed, Err: er.errAt(configs, ci),
			})
			if cfgRemaining[ci].Add(-1) == 0 {
				deliver(ci)
			}
		}
		done(er.config)
		for _, ci := range er.also {
			done(ci)
		}
	}

	// Runs that failed to plan complete immediately; a configuration whose
	// every pair failed to plan is delivered before the workers start.
	for ci, ers := range runs {
		for i, er := range ers {
			if er.err != nil && er.config == ci {
				complete(er, i, 0)
			}
		}
	}
	// A degenerate empty experiment set has no pairs to count down; deliver
	// every configuration's (empty) section directly.
	if len(exps) == 0 {
		for ci := range configs {
			deliver(ci)
		}
	}

	tasks := make(chan task, total)
	// One stamp covers the whole fill: every task is enqueued before any
	// worker starts, so per-task precision would measure the fill loop,
	// not the queue.
	var enqueueNS int64
	if tr.Enabled() || cfg.ObserveShard != nil {
		enqueueNS = time.Now().UnixNano()
	}
	for ci, ers := range runs {
		for i, er := range ers {
			if er.config != ci {
				continue // a shared run, enqueued under its first configuration
			}
			for s := range er.shards {
				tasks <- task{config: ci, exp: i, shard: s, enqueueNS: enqueueNS}
			}
		}
	}
	close(tasks)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > total {
		workers = total
	}
	runShard := cfg.RunShard
	if runShard == nil {
		runShard = runInProcess
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for t := range tasks {
				er := runs[t.config][t.exp]
				sh := er.shards[t.shard]
				so := shardOptions(er.exp.ID, er.opts, t.shard)
				// The slot gates the thunk, not the hook: a shard the hook
				// answers without running it here holds no slot, and an
				// in-process one starts when its slot is held.
				var ranAt time.Time
				start := time.Now()
				out, origin, err := runHookGuarded(runShard, ShardTask{
					Ref:         ShardRef{Exp: er.exp.ID, Config: er.exp.canonical(configs[t.config]), Shard: t.shard},
					ConfigIndex: t.config, Shards: len(er.shards), Label: sh.Label,
					Run: func() (any, error) {
						if cfg.Acquire != nil {
							defer cfg.Acquire()()
						}
						ranAt = time.Now()
						return runShardGuarded(sh, so)
					},
				})
				if !ranAt.IsZero() {
					start = ranAt
				}
				er.noteStart(start)
				elapsed := time.Since(start)
				if t.enqueueNS != 0 {
					// Observed run: queue wait is enqueue→start, which
					// includes an in-process shard's blocking on the Acquire
					// slot gate — the time it spent schedulable but not
					// running.
					wait := start.Sub(time.Unix(0, t.enqueueNS))
					if cfg.ObserveShard != nil {
						cfg.ObserveShard(wait, elapsed)
					}
					if tr.Enabled() {
						sp := obs.Span{
							Cat: obs.CatShard, Name: er.exp.ID,
							Config: t.config, Shard: t.shard + 1,
							Label: sh.Label, Worker: worker,
							Origin: origin,
							Start:  tr.Offset(start), Dur: elapsed, Wait: wait,
						}
						if err != nil {
							sp.Err = err.Error()
						}
						tr.Add(sp)
					}
				}
				if err != nil {
					er.errs[t.shard] = fmt.Errorf("shard %d/%d (%s): %w",
						t.shard+1, len(er.shards), er.shards[t.shard].Label, err)
				} else {
					er.outs[t.shard] = out
				}
				if len(er.shards) > 1 {
					p := Progress{
						ID: er.exp.ID, Index: t.exp, Config: t.config,
						Shard: t.shard + 1, Shards: len(er.shards),
						Label:   er.shards[t.shard].Label,
						Elapsed: elapsed, Err: er.errs[t.shard],
					}
					emit(p)
					for _, ci := range er.also {
						p.Config = ci
						emit(p)
					}
				}
				if er.remaining.Add(-1) == 0 {
					shards := len(er.shards)
					var reduceStart time.Time
					if tr.Enabled() {
						reduceStart = time.Now()
					}
					er.finalize()
					if tr.Enabled() {
						sp := obs.Span{
							Cat: obs.CatReduce, Name: er.exp.ID,
							Config: t.config, Worker: worker,
							Start: tr.Offset(reduceStart), Dur: time.Since(reduceStart),
						}
						if er.err != nil {
							sp.Err = er.errAt(configs, t.config).Error()
						}
						tr.Add(sp)
					}
					complete(er, t.exp, shards)
				}
			}
		}(w)
	}
	wg.Wait()

	return errors.Join(cfgErrs...)
}

// planForGuarded converts a plan panic into an error so one broken planner
// cannot take down the whole pool.
func planForGuarded(e Experiment, o Options) (shards []Shard, reduce Reduce, err error) {
	defer func() {
		if p := recover(); p != nil {
			shards, reduce, err = nil, nil, fmt.Errorf("plan: panic: %v", p)
		}
	}()
	return planFor(e, o)
}

// runInProcess is the dispatch hook of a run without RunConfig.RunShard:
// every shard runs here, through its own thunk.
func runInProcess(t ShardTask) (any, string, error) {
	out, err := t.Run()
	return out, "", err
}

// runShardGuarded converts a shard panic into an error so one broken shard
// cannot take down the whole pool.
func runShardGuarded(s Shard, o Options) (out any, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return s.Run(o)
}

// reduceGuarded converts a reducer panic into an error.
func reduceGuarded(reduce Reduce, o Options, outs []any) (r *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	return reduce(o, outs)
}
