// Package dist distributes one sweep's (configuration, experiment, shard)
// tasks across processes and hosts. It is a coordinator/worker pool over
// plain HTTP/JSON: workers register, lease shard tasks with long polls,
// heartbeat while executing, and return outputs plus execution timing; the
// coordinator owns the FIFO task queue, lease liveness, bounded retry with
// backoff on worker loss, and a local-execution fallback, and plugs into
// the scheduler purely through the core.RunConfig.RunShard hook — planning,
// fixed-order FP reduction, and streaming delivery never leave the
// coordinating process, so a sweep split across 1, 2, or N workers (workers
// dying mid-sweep included) produces byte-identical sweep documents.
//
// The wire unit is core.ShardRef: experiment ID + the experiment's
// canonical configuration + shard index. Both sides run the same binary
// against the same registry, so the reference — not the closure — crosses
// the wire, and the worker re-derives the identical plan and per-shard RNG
// stream via core.ExecuteShardRef.
// Outputs return as gob payloads (the internal/shardcache codec, which
// round-trips float64 values bit-exactly); worker-measured execution
// windows merge into the coordinator's obs.Trace as CatRemote spans with
// worker attribution, so a distributed run still renders one coherent
// Chrome-trace timeline.
//
// One lease long-poll may grant a batch of tasks, sized by the coordinator
// from the slots the worker registered: up to 2 × slots leases held (one
// executing per slot plus a slot-deep buffer), so a worker with many
// slots amortizes the dispatch round trip instead of paying one per shard;
// completions pipeline independently of execution.
package dist

import "zen2ee/internal/core"

// TaskSpec is one leased unit of work on the wire.
type TaskSpec struct {
	// ID is the coordinator-assigned lease identity; completions echo it.
	ID string `json:"id"`
	// Ref addresses the shard: experiment ID, canonical configuration, index.
	Ref core.ShardRef `json:"ref"`
	// Label is the shard's plan label, for worker logs and diagnostics.
	Label string `json:"label,omitempty"`
}

// Wire bodies of the worker protocol under POST /dist/v1/. All requests
// and responses are JSON; outputs travel as gob inside the JSON (base64 by
// encoding/json's []byte rule).
type registerRequest struct {
	Name  string `json:"name,omitempty"`
	Host  string `json:"host,omitempty"`
	PID   int    `json:"pid,omitempty"`
	Slots int    `json:"slots"`
}

type registerResponse struct {
	WorkerID        string `json:"worker_id"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
	LeaseTTLMillis  int64  `json:"lease_ttl_ms"`
}

type leaseRequest struct {
	WorkerID   string `json:"worker_id"`
	WaitMillis int64  `json:"wait_ms,omitempty"`
}

type leaseResponse struct {
	// Tasks is the grant, leased atomically: at least one task, and no
	// more than keeps the worker within 2 × its registered slots. Empty on
	// an empty poll (no work became eligible within the poll window, or
	// the worker already holds its limit; lease again).
	Tasks []TaskSpec `json:"tasks,omitempty"`
}

type completeRequest struct {
	WorkerID string `json:"worker_id"`
	TaskID   string `json:"task_id"`
	// Output is the gob-encoded shard output (empty for a nil output or a
	// failed shard).
	Output []byte `json:"output,omitempty"`
	// Error is the shard's failure message; empty means success.
	Error string `json:"error,omitempty"`
	// StartDeltaNS is lease receipt → execution start on the worker's
	// clock; DurNS the execution window. The coordinator anchors both to
	// its own lease-grant instant when recording the remote trace span.
	StartDeltaNS int64 `json:"start_delta_ns,omitempty"`
	DurNS        int64 `json:"dur_ns,omitempty"`
}

type completeResponse struct {
	// Duplicate marks an idempotent re-completion: the coordinator had
	// already accepted this worker's result for the task.
	Duplicate bool `json:"duplicate,omitempty"`
}

type heartbeatRequest struct {
	WorkerID string `json:"worker_id"`
}

type deregisterRequest struct {
	WorkerID string `json:"worker_id"`
}

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// Protocol error codes (errorResponse.Code).
const (
	// codeUnknownWorker: the worker ID is not registered (expired and
	// collected, or never registered). The worker should re-register.
	codeUnknownWorker = "unknown_worker"
	// codeStaleLease: the completed lease is no longer this worker's — it
	// expired and was re-dispatched (or its run finished). The result is
	// discarded; exactly one completion per task ever lands.
	codeStaleLease = "stale_lease"
	// codeDraining: the coordinator is shutting down and leases nothing.
	codeDraining = "draining"
)
