// Remote-execution seam of the shard scheduler. A shard is a closure and
// cannot cross a process boundary, but every shard of a registered
// experiment is *addressable* by value: the same binary, handed the
// experiment ID, the experiment's canonical (Scale, Seed) configuration and
// the shard index, re-derives the identical plan and the identical
// per-shard RNG stream.
// ShardRef is that address, ExecuteShardRef the worker-side execution, and
// RunConfig.RunShard the hook through which a dispatcher (internal/dist)
// intercepts the scheduler's shard executions without adding a run loop:
// planning, reduction, delivery, and fixed-order FP aggregation all stay on
// the coordinating scheduler, only Shard.Run moves.

package core

import "fmt"

// ShardRef addresses one shard of one registered experiment under its
// canonical configuration. It is the wire unit of distributed execution: two
// processes built from the same binary resolve the same ShardRef to the
// same work, because plan resolution and seed derivation are deterministic
// functions of (experiment ID, configuration).
type ShardRef struct {
	// Exp is the registered experiment ID.
	Exp string `json:"exp"`
	// Config is the experiment's canonical configuration
	// (Experiment.canonical of the run configuration), not the raw one and
	// not any derived options: a seed-free experiment's ref carries the
	// default seed at every run seed, so equal work has an equal ref and
	// therefore an equal shard-cache key. The executor re-derives the
	// per-experiment and per-shard seed streams from it exactly as the
	// scheduler would.
	Config Config `json:"config"`
	// Shard is the zero-based index into the experiment's plan.
	Shard int `json:"shard"`
}

func (r ShardRef) String() string {
	return fmt.Sprintf("%s[scale %g seed %d]/shard/%d", r.Exp, r.Config.Scale, r.Config.Seed, r.Shard)
}

// ShardTask is one shard execution offered to a RunConfig.RunShard hook. It
// carries both the wire-addressable form (Ref) and the local execution
// thunk (Run), so a dispatcher chooses per task between shipping the
// reference to a remote worker and running in place — local fallback is
// always one call away.
type ShardTask struct {
	// Ref is the shard's process-independent address.
	Ref ShardRef
	// ConfigIndex is the configuration's position in the scheduled sweep
	// (what a remote shard's trace span is attributed to); for a run that
	// several configurations share, the first of them.
	ConfigIndex int
	// Shards is the experiment's plan size under this configuration.
	Shards int
	// Label is the shard's plan label, for display and lease diagnostics.
	Label string
	// Run executes the shard in-process with the exact options the
	// scheduler would have used, panic-guarded like any local shard, and
	// holds a RunConfig.Acquire slot while it does.
	Run func() (any, error)
}

// ExecuteShardRef resolves and runs one shard in this process: the
// worker-side half of distributed execution. It mirrors the scheduler's
// local path operation for operation — canonicalization (idempotent on a
// scheduler-built ref), per-experiment seed derivation,
// plan resolution, per-shard stream derivation, panic guarding — so the
// output for a given ShardRef is byte-identical to what the coordinating
// scheduler would have computed itself.
func ExecuteShardRef(ref ShardRef) (any, error) {
	e, err := ByID(ref.Exp)
	if err != nil {
		return nil, err
	}
	opts := e.canonical(ref.Config).perExperiment(e.ID)
	shards, _, err := planForGuarded(e, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", e.ID, err)
	}
	if ref.Shard < 0 || ref.Shard >= len(shards) {
		return nil, fmt.Errorf("core: %s: shard %d out of range (plan has %d shards)", e.ID, ref.Shard, len(shards))
	}
	return runShardGuarded(shards[ref.Shard], shardOptions(e.ID, opts, ref.Shard))
}

// runHookGuarded converts a dispatcher panic into a shard error so a buggy
// RunShard hook degrades like a failing shard instead of killing the pool.
func runHookGuarded(hook func(ShardTask) (any, string, error), st ShardTask) (out any, origin string, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, origin, err = nil, "", fmt.Errorf("dispatch panic: %v", p)
		}
	}()
	return hook(st)
}
