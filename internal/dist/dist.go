// Package dist distributes one sweep's (configuration, experiment, shard)
// tasks across processes and hosts. It is a coordinator/worker pool over
// plain HTTP/JSON: workers register, lease shard tasks with long polls,
// heartbeat while executing, and return outputs plus execution timing; the
// coordinator owns the queue, lease liveness, bounded retry with backoff on
// worker loss, locality-aware placement, and a local-execution fallback, and
// plugs into the scheduler purely through the core.RunConfig.RunShard hook —
// planning, fixed-order FP reduction, and streaming delivery never leave the
// coordinating process, so a sweep split across 1, 2, or N workers (workers
// dying mid-sweep included) produces byte-identical sweep documents.
//
// The wire unit is core.ShardRef: experiment ID + raw configuration + shard
// index. Both sides run the same binary against the same registry, so the
// reference — not the closure — crosses the wire, and the worker re-derives
// the identical plan and per-shard RNG stream via core.ExecuteShardRef.
// Outputs return as gob payloads (the internal/shardcache codec, which
// round-trips float64 values bit-exactly), optionally flate-compressed when
// negotiated at register; worker-measured execution windows merge into the
// coordinator's obs.Trace as CatRemote spans with worker attribution, so a
// distributed run still renders one coherent Chrome-trace timeline.
//
// One lease long-poll may grant a batch of tasks (leaseRequest.Max), so a
// worker with many slots amortizes the dispatch round trip instead of
// paying one per shard; completions pipeline independently of execution.
package dist

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"zen2ee/internal/core"
	"zen2ee/internal/shardcache"
)

// TaskSpec is one leased unit of work on the wire.
type TaskSpec struct {
	// ID is the coordinator-assigned lease identity; completions echo it.
	ID string `json:"id"`
	// Ref addresses the shard: experiment ID, raw configuration, index.
	Ref core.ShardRef `json:"ref"`
	// Label is the shard's plan label, for worker logs and diagnostics.
	Label string `json:"label,omitempty"`
}

// compressionFlate is the one compression scheme the protocol knows; it is
// offered by the worker at register and echoed by the coordinator when
// accepted.
const compressionFlate = "flate"

// Wire bodies of the worker protocol under POST /dist/v1/. All requests
// and responses are JSON; outputs travel as gob inside the JSON (base64 by
// encoding/json's []byte rule).
type registerRequest struct {
	Name  string `json:"name,omitempty"`
	Host  string `json:"host,omitempty"`
	PID   int    `json:"pid,omitempty"`
	Slots int    `json:"slots"`
	// Compression offers a payload compression scheme ("flate"); the
	// coordinator echoes it back when accepted. Empty means uncompressed.
	Compression string `json:"compression,omitempty"`
}

type registerResponse struct {
	WorkerID        string `json:"worker_id"`
	HeartbeatMillis int64  `json:"heartbeat_ms"`
	LeaseTTLMillis  int64  `json:"lease_ttl_ms"`
	// Compression confirms the scheme the worker may apply to completion
	// outputs; empty rejects the offer.
	Compression string `json:"compression,omitempty"`
}

type leaseRequest struct {
	WorkerID   string `json:"worker_id"`
	WaitMillis int64  `json:"wait_ms,omitempty"`
	// Max is the largest task batch this poll accepts (0 means 1); the
	// coordinator also caps a grant at its MaxLeaseBatch.
	Max int `json:"max,omitempty"`
}

type leaseResponse struct {
	// Tasks is the grant: between 1 and Max tasks, leased atomically.
	// Empty on an empty poll (no work became eligible within the poll
	// window; lease again).
	Tasks []TaskSpec `json:"tasks,omitempty"`
}

type completeRequest struct {
	WorkerID string `json:"worker_id"`
	TaskID   string `json:"task_id"`
	// Output is the gob-encoded shard output (empty for a nil output or a
	// failed shard), flate-compressed when Compressed is set.
	Output []byte `json:"output,omitempty"`
	// Compressed marks Output as flate-compressed; only workers whose
	// register negotiated compression set it.
	Compressed bool `json:"compressed,omitempty"`
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

// The output codec lives in internal/shardcache so the shard-memoization
// layer and the wire share one bit-exact encoding; these wrappers keep the
// package-local call sites (and the public RegisterOutputType entry point)
// stable.

func encodeOutput(v any) ([]byte, error) { return shardcache.EncodeOutput(v) }

func decodeOutput(b []byte) (any, error) { return shardcache.DecodeOutput(b) }

// RegisterOutputType registers a shard-output concrete type with the wire
// codec. The types every registered experiment returns today are built in;
// an experiment introducing a new output type calls this from an init so
// its shards can cross the wire.
func RegisterOutputType(v any) { shardcache.RegisterOutputType(v) }

// compressMinBytes is the payload size below which compression is skipped:
// tiny gob outputs (a scalar, a short series) cost more in flate framing
// than they save.
const compressMinBytes = 512

// compressOutput flate-compresses an encoded output.
func compressOutput(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(b); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decompressOutput inverts compressOutput, bounding the inflated size by
// the same limit the HTTP layer puts on request bodies — a compressed
// payload must not expand past what an uncompressed one could carry.
func decompressOutput(b []byte) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(b))
	defer zr.Close()
	out, err := io.ReadAll(io.LimitReader(zr, maxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(out) > maxBodyBytes {
		return nil, fmt.Errorf("dist: decompressed output exceeds the %d-byte limit", maxBodyBytes)
	}
	return out, nil
}
