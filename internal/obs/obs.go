// Package obs is the execution-observability layer for the plan/execute/
// reduce pipeline. The paper's §IV methodology is itself an observability
// story — internal monitoring events merged post-mortem with out-of-band
// recordings. This package gives the reproduction pipeline the same treatment: an
// execution Trace records one Span per scheduled (configuration,
// experiment, shard) task — queue wait, execution window, worker
// attribution, outcome — plus scheduler lifecycle spans (plan, reduce,
// per-configuration delivery, document marshal), and Histogram accumulates
// fixed-bucket latency distributions for the daemon's /metrics exposition.
//
// Tracing is strictly opt-in and free when off: every Trace method is
// nil-safe, and the scheduler takes no timestamps and allocates nothing on
// the nil-trace fast path, so the engine's 0 allocs/op benchmarks are
// unaffected. When on, the recorder is byte-bounded — spans past the
// budget are counted as dropped rather than buffered without limit, which
// is what lets the daemon retain a trace per job without its memory
// scaling with sweep size.
package obs

import (
	"sort"
	"sync"
	"time"
	"unsafe"
)

// Span categories recorded by the pipeline.
const (
	// CatPlan covers resolving every (configuration, experiment) pair of a
	// run to its shards, before any worker starts.
	CatPlan = "plan"
	// CatShard covers one shard task's execution window on a worker.
	CatShard = "shard"
	// CatReduce covers one experiment's reduce, on the worker that finished
	// its last shard.
	CatReduce = "reduce"
	// CatDeliver covers handing one completed configuration's section to
	// the streaming consumer (serialized across configurations).
	CatDeliver = "deliver"
	// CatMarshal covers rendering a result set into its canonical JSON
	// document (recorded by the service and CLI, not the scheduler).
	CatMarshal = "marshal"
	// CatRemote covers one shard's execution window as measured on a
	// remote worker (internal/dist): the coordinator records one remote
	// span per remotely executed shard from the timing the worker reports
	// at lease completion, alongside the scheduler's own CatShard span for
	// the same task, so a distributed sweep renders one merged timeline.
	CatRemote = "remote"
	// CatCache covers one shard task served from the shard-output
	// memoization cache (internal/shardcache): the span's window is the
	// cache probe, recorded alongside the scheduler's CatShard span for
	// the same task, so a warm run's timeline shows which shards never
	// executed.
	CatCache = "cache"
)

// Span is one timed interval of a traced run. Offsets are relative to the
// owning Trace's epoch, so a trace is self-contained and serializable
// without wall-clock timestamps.
type Span struct {
	// Cat is the span category (Cat* constants).
	Cat string
	// Name identifies the work: the experiment ID for shard and reduce
	// spans, a fixed verb for lifecycle spans.
	Name string
	// Config is the configuration index the span belongs to; -1 for
	// run-level spans (plan).
	Config int
	// Shard is the 1-based shard index within the experiment's plan for
	// shard spans; 0 otherwise.
	Shard int
	// Label is the shard's plan label (e.g. "active-2500") on shard spans.
	Label string
	// Worker is the scheduler worker index that executed the span; -1 for
	// spans recorded outside the worker pool.
	Worker int
	// Origin names the remote worker that executed the span, for shard
	// tasks dispatched through a distributed pool (internal/dist); empty
	// for spans executed in-process. Trace export keys remote tracks off
	// it, so Worker (a local goroutine index) and Origin never conflict.
	Origin string
	// Start is the span's start offset from the trace epoch.
	Start time.Duration
	// Dur is the span's length.
	Dur time.Duration
	// Wait is, on shard spans, the queue wait: task enqueue to execution
	// start, executor-slot acquisition included.
	Wait time.Duration
	// Err carries the failure message of a span that did not succeed.
	Err string
}

// spanBytes is a Span's fixed in-memory size: one element of a trace's
// span array. The byte budget charges the array's capacity at this size
// plus the retained spans' string bytes.
const spanBytes = int64(unsafe.Sizeof(Span{}))

// strBytes is the length of the span's strings.
func (s Span) strBytes() int64 {
	return int64(len(s.Cat) + len(s.Name) + len(s.Label) + len(s.Origin) + len(s.Err))
}

// DefaultLimitBytes is the span-buffer budget a Trace gets when the caller
// does not choose one — enough for tens of thousands of spans, small
// enough to retain per daemon job.
const DefaultLimitBytes = 1 << 20

// Trace is a byte-bounded recorder of execution spans. It is safe for
// concurrent use (scheduler workers record from many goroutines), and all
// methods are nil-safe: a nil *Trace is the disabled recorder, so call
// sites thread one pointer through instead of branching on an enabled
// flag.
type Trace struct {
	epoch time.Time
	limit int64

	mu    sync.Mutex
	spans []Span
	// strs is the string bytes of the retained spans; cap(spans) ×
	// spanBytes + strs never exceeds limit.
	strs    int64
	dropped int
}

// New creates a Trace whose span buffer is bounded by limitBytes
// (DefaultLimitBytes when <= 0). The epoch — the zero point of every
// span's Start offset — is the moment of creation.
func New(limitBytes int64) *Trace {
	if limitBytes <= 0 {
		limitBytes = DefaultLimitBytes
	}
	return &Trace{epoch: time.Now(), limit: limitBytes}
}

// Enabled reports whether spans are being recorded. It is the idiom for
// guarding timestamp collection: `if tr.Enabled() { ... }` costs one nil
// check on the disabled path.
func (t *Trace) Enabled() bool { return t != nil }

// Offset converts a wall-clock instant into the trace's epoch-relative
// offset. Zero on a nil trace.
func (t *Trace) Offset(at time.Time) time.Duration {
	if t == nil {
		return 0
	}
	return at.Sub(t.epoch)
}

// Add records a span. Past the byte budget the span is dropped and
// counted, never buffered — a trace's memory is bounded however long the
// run. The span array grows by doubling, but never past the capacity the
// budget leaves beside the string bytes. No-op on a nil trace.
func (t *Trace) Add(s Span) {
	if t == nil {
		return
	}
	sb := s.strBytes()
	t.mu.Lock()
	defer t.mu.Unlock()
	strs := t.strs + sb
	n := len(t.spans)
	if n == cap(t.spans) {
		if c := min(max(2*n, 1), int((t.limit-strs)/spanBytes)); c > n {
			grown := make([]Span, n, c)
			copy(grown, t.spans)
			t.spans = grown
		}
	}
	if n == cap(t.spans) || int64(cap(t.spans))*spanBytes+strs > t.limit {
		t.dropped++
		return
	}
	t.strs = strs
	t.spans = append(t.spans, s)
}

// Len returns the number of retained spans (0 on a nil trace).
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans rejected by the byte budget.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns a copy of the retained spans in canonical order —
// sorted by start offset with a deterministic tie-break — plus the dropped
// count. Canonical order is what makes serialized traces of the same run
// comparable regardless of which worker recorded first: the scheduler's
// completion order never leaks into the snapshot. Nil trace: no spans.
func (t *Trace) Snapshot() ([]Span, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	out := append([]Span(nil), t.spans...)
	dropped := t.dropped
	t.mu.Unlock()
	SortSpans(out)
	return out, dropped
}

// SortSpans orders spans canonically: by start offset, then category,
// name, configuration, and shard — a total order for any span set a
// single trace can hold.
func SortSpans(spans []Span) {
	sort.SliceStable(spans, func(i, j int) bool { return spanLess(spans[i], spans[j]) })
}

// CanonicalOrder reports whether spans are already in SortSpans's order,
// as a Snapshot returns them.
func CanonicalOrder(spans []Span) bool {
	return sort.SliceIsSorted(spans, func(i, j int) bool { return spanLess(spans[i], spans[j]) })
}

func spanLess(a, b Span) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Cat != b.Cat {
		return a.Cat < b.Cat
	}
	if a.Name != b.Name {
		return a.Name < b.Name
	}
	if a.Config != b.Config {
		return a.Config < b.Config
	}
	return a.Shard < b.Shard
}
