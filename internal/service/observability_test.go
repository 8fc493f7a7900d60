// Tests for the daemon's observability surface: the golden /metrics
// scrape, per-job execution traces, the latency breakdown, and the
// logging/recovery middleware.

package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/obs"
	"zen2ee/internal/report"
)

// goldenEmptyScrape is the full /metrics document of a freshly started
// daemon at the default sizes, byte for byte. The exposition format is a
// contract — bucket layout, label order, HELP text — so a change here is
// a deliberate, reviewed decision, never drift.
const goldenEmptyScrape = `# HELP zen2eed_jobs_queued_total Jobs accepted onto the run queue.
# TYPE zen2eed_jobs_queued_total counter
zen2eed_jobs_queued_total 0
# HELP zen2eed_jobs_completed_total Jobs that finished successfully.
# TYPE zen2eed_jobs_completed_total counter
zen2eed_jobs_completed_total 0
# HELP zen2eed_jobs_failed_total Jobs that finished with an error.
# TYPE zen2eed_jobs_failed_total counter
zen2eed_jobs_failed_total 0
# HELP zen2eed_jobs_deduplicated_total Requests attached to an identical in-flight job instead of enqueuing a duplicate.
# TYPE zen2eed_jobs_deduplicated_total counter
zen2eed_jobs_deduplicated_total 0
# HELP zen2eed_cache_hits_total Requests served from a completed job or the result cache without a new simulation.
# TYPE zen2eed_cache_hits_total counter
zen2eed_cache_hits_total 0
# HELP zen2eed_cache_misses_total Requests that required a new simulation run.
# TYPE zen2eed_cache_misses_total counter
zen2eed_cache_misses_total 0
# HELP zen2eed_bad_requests_total Rejected malformed or invalid job requests.
# TYPE zen2eed_bad_requests_total counter
zen2eed_bad_requests_total 0
# HELP zen2eed_queue_rejections_total Jobs rejected because the bounded queue was full.
# TYPE zen2eed_queue_rejections_total counter
zen2eed_queue_rejections_total 0
# HELP zen2eed_handler_panics_total HTTP handler panics recovered by the middleware.
# TYPE zen2eed_handler_panics_total counter
zen2eed_handler_panics_total 0
# HELP zen2eed_sweeps_queued_total Sweep jobs accepted onto the run queue.
# TYPE zen2eed_sweeps_queued_total counter
zen2eed_sweeps_queued_total 0
# HELP zen2eed_sweep_configs_run_total Sweep configurations that required a simulation run.
# TYPE zen2eed_sweep_configs_run_total counter
zen2eed_sweep_configs_run_total 0
# HELP zen2eed_sweep_configs_cached_total Sweep configurations served from the per-config result cache.
# TYPE zen2eed_sweep_configs_cached_total counter
zen2eed_sweep_configs_cached_total 0
# HELP zen2eed_jobs_running Jobs currently executing.
# TYPE zen2eed_jobs_running gauge
zen2eed_jobs_running 0
# HELP zen2eed_queue_depth Jobs waiting on the run queue.
# TYPE zen2eed_queue_depth gauge
zen2eed_queue_depth 0
# HELP zen2eed_queue_capacity Bounded run queue capacity.
# TYPE zen2eed_queue_capacity gauge
zen2eed_queue_capacity 64
# HELP zen2eed_cache_entries Result payloads currently cached.
# TYPE zen2eed_cache_entries gauge
zen2eed_cache_entries 0
# HELP zen2eed_cache_capacity Result cache capacity.
# TYPE zen2eed_cache_capacity gauge
zen2eed_cache_capacity 256
# HELP zen2eed_cache_bytes Summed payload size of cached result entries.
# TYPE zen2eed_cache_bytes gauge
zen2eed_cache_bytes 0
# HELP zen2eed_cache_capacity_bytes Result cache byte bound (0 = unbounded).
# TYPE zen2eed_cache_capacity_bytes gauge
zen2eed_cache_capacity_bytes 0
# HELP zen2eed_shard_run_seconds Execution wall time of individual shard tasks.
# TYPE zen2eed_shard_run_seconds histogram
zen2eed_shard_run_seconds_bucket{le="0.001"} 0
zen2eed_shard_run_seconds_bucket{le="0.0025"} 0
zen2eed_shard_run_seconds_bucket{le="0.005"} 0
zen2eed_shard_run_seconds_bucket{le="0.01"} 0
zen2eed_shard_run_seconds_bucket{le="0.025"} 0
zen2eed_shard_run_seconds_bucket{le="0.05"} 0
zen2eed_shard_run_seconds_bucket{le="0.1"} 0
zen2eed_shard_run_seconds_bucket{le="0.25"} 0
zen2eed_shard_run_seconds_bucket{le="0.5"} 0
zen2eed_shard_run_seconds_bucket{le="1"} 0
zen2eed_shard_run_seconds_bucket{le="2.5"} 0
zen2eed_shard_run_seconds_bucket{le="5"} 0
zen2eed_shard_run_seconds_bucket{le="10"} 0
zen2eed_shard_run_seconds_bucket{le="+Inf"} 0
zen2eed_shard_run_seconds_sum 0
zen2eed_shard_run_seconds_count 0
# HELP zen2eed_shard_queue_wait_seconds Shard task queue wait: enqueue to execution start, executor-slot acquisition included.
# TYPE zen2eed_shard_queue_wait_seconds histogram
zen2eed_shard_queue_wait_seconds_bucket{le="0.001"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.0025"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.005"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.01"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.025"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.05"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.1"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.25"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="0.5"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="1"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="2.5"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="5"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="10"} 0
zen2eed_shard_queue_wait_seconds_bucket{le="+Inf"} 0
zen2eed_shard_queue_wait_seconds_sum 0
zen2eed_shard_queue_wait_seconds_count 0
`

// TestMetricsGoldenScrape pins the full exposition document of a fresh
// daemon byte for byte.
func TestMetricsGoldenScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, code := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("scrape returned %d", code)
	}
	if body != goldenEmptyScrape {
		t.Fatalf("scrape drifted from golden document:\n--- got ---\n%s\n--- want ---\n%s", body, goldenEmptyScrape)
	}
}

// TestShardHistogramsObserveJobs: running a real job populates the shard
// run and queue-wait histograms — one observation per executed shard task.
func TestShardHistogramsObserveJobs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, _ := postJob(t, ts, testSpecJSON)
	waitState(t, ts, st.ID)
	body, _ := getBody(t, ts.URL+"/metrics")
	// fig1 and sec5a are one shard each.
	for _, want := range []string{
		"zen2eed_shard_run_seconds_count 2",
		"zen2eed_shard_queue_wait_seconds_count 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q after a job ran:\n%s", want, body)
		}
	}
}

// TestJobTraceEndpoint: a finished job serves a decodable Chrome trace
// with one shard span per task plus the document-marshal span, and the
// latency breakdown reports the same phases.
func TestJobTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, _ := postJob(t, ts, testSpecJSON)
	done := waitState(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s: %s", done.State, done.Error)
	}

	body, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace endpoint returned %d: %s", code, body)
	}
	doc, err := report.UnmarshalTrace([]byte(body))
	if err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}
	counts := map[string]int{}
	for _, e := range doc.CompleteEvents() {
		counts[e.Cat]++
	}
	if counts[obs.CatShard] != 2 || counts[obs.CatMarshal] != 1 || counts[obs.CatPlan] != 1 {
		t.Fatalf("trace span counts %v, want 2 shard + 1 marshal + 1 plan", counts)
	}
	// A run job is a one-config sweep: its marshal span is configuration 0,
	// nested in that configuration's deliver span like a sweep section's.
	for _, e := range doc.CompleteEvents() {
		if e.Cat == obs.CatMarshal && e.Args["config"] != 0.0 {
			t.Fatalf("run job marshal span args %v, want config 0", e.Args)
		}
	}

	if done.Latency == nil {
		t.Fatal("finished job reports no latency breakdown")
	}
	if done.Latency.RunSeconds <= 0 || done.Latency.QueueSeconds < 0 || done.Latency.MarshalSeconds < 0 {
		t.Fatalf("implausible latency breakdown %+v", done.Latency)
	}
}

// TestSweepTraceEndpoint: sweep jobs retain one trace across the whole
// run, with a marshal span per configuration carrying request indices.
func TestSweepTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json",
		strings.NewReader(`{"ids":["fig1"],"configs":[{"scale":0.2,"seed":1},{"scale":0.2,"seed":2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	done := waitState(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("sweep finished %s: %s", done.State, done.Error)
	}
	body, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("trace endpoint returned %d: %s", code, body)
	}
	doc, err := report.UnmarshalTrace([]byte(body))
	if err != nil {
		t.Fatalf("sweep trace does not decode: %v", err)
	}
	marshalConfigs := map[float64]bool{}
	for _, e := range doc.CompleteEvents() {
		if e.Cat == obs.CatMarshal {
			marshalConfigs[e.Args["config"].(float64)] = true
		}
	}
	if !marshalConfigs[0] || !marshalConfigs[1] {
		t.Fatalf("marshal spans missing request config indices: %v", marshalConfigs)
	}
}

// TestTraceAbsentWhenNothingExecuted: a job every configuration of which
// was served from cache executed nothing, so it has no trace — 404, not an
// empty document. Both in-executor cache paths are covered: a sweep whose
// only configuration an earlier run job computed, and a run job that
// waited on an in-flight sweep's claim and then read the sweep's section.
func TestTraceAbsentWhenNothingExecuted(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	_, ts := newTestServer(t, Config{
		Executors: 2,
		// The two-config sweep parks mid-run; everything else runs freely.
		SweepRunner: func(sw core.Sweep, rc core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error {
			if len(sw.Configs) > 1 {
				started <- struct{}{}
				<-gate
			}
			return core.RunSweepStream(sw, rc, onConfig, progress)
		},
	})
	noTrace := func(what, id string) {
		t.Helper()
		if body, code := getBody(t, ts.URL+"/v1/jobs/"+id+"/trace"); code != http.StatusNotFound {
			t.Errorf("%s: trace returned %d, want 404: %s", what, code, body)
		}
	}

	// A fully cached sweep: the run job computes seed 3, the sweep over
	// seeds [3] only reads it back.
	run, _ := postJob(t, ts, `{"ids":["fig1"],"scale":0.2,"seed":3}`)
	waitState(t, ts, run.ID)
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+run.ID+"/trace"); code != http.StatusOK {
		t.Fatalf("executed run job: trace returned %d, want 200", code)
	}
	sw, code := postSweep(t, ts, `{"ids":["fig1"],"scales":[0.2],"seeds":[3]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep POST returned %d", code)
	}
	if final := waitState(t, ts, sw.ID); final.State != StateDone || len(final.CachedConfigs) != 1 || !final.CachedConfigs[0] {
		t.Fatalf("fully cached sweep finished as %+v", final)
	}
	noTrace("fully cached sweep", sw.ID)

	// A run job served after the singleflight wait: the sweep holds seed
	// 11's claim, the run job queues behind it, and takes its section.
	held, _ := postSweep(t, ts, `{"ids":["fig1"],"scales":[0.2],"seeds":[11,12]}`)
	<-started
	waiter, code := postJob(t, ts, `{"ids":["fig1"],"scale":0.2,"seed":11}`)
	if code != http.StatusAccepted {
		t.Fatalf("waiting run job POST returned %d", code)
	}
	waitUntil(t, "the run job to reach the claim wait", func() bool {
		body, _ := getBody(t, ts.URL+"/v1/jobs/"+waiter.ID)
		var st Status
		return json.Unmarshal([]byte(body), &st) == nil && st.State == StateRunning
	})
	time.Sleep(20 * time.Millisecond)
	close(gate)
	if final := waitState(t, ts, waiter.ID); final.State != StateDone || !final.Cached || final.Latency != nil {
		t.Fatalf("waiting run job finished as %+v, want cached done with no latency", final)
	}
	waitState(t, ts, held.ID)
	noTrace("run job served after the singleflight wait", waiter.ID)
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+held.ID+"/trace"); code != http.StatusOK {
		t.Errorf("executed sweep: trace returned %d, want 200", code)
	}

	// The waiter's stream is the run-job shape with nothing executed: just
	// the terminal event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + waiter.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(events) != 1 || events[0].name != "done" {
		t.Fatalf("waiting run job's SSE stream %v, want exactly one done event", events)
	}
}

// TestTraceDisabledAndUnknown: negative TraceBytes disables per-job
// tracing (404 with a reason, not an empty document), and an unknown job
// is a 404 either way.
func TestTraceDisabledAndUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceBytes: -1})
	st, _ := postJob(t, ts, testSpecJSON)
	done := waitState(t, ts, st.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s", done.State)
	}
	if body, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("trace of untraced job returned %d: %s", code, body)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/nope/trace"); code != http.StatusNotFound {
		t.Fatalf("unknown job trace returned %d", code)
	}
	// The latency breakdown does not depend on tracing.
	if done.Latency == nil || done.Latency.RunSeconds <= 0 {
		t.Fatalf("latency breakdown missing with tracing off: %+v", done.Latency)
	}
}

// lockedBuffer is a goroutine-safe log sink: daemon executors log from
// their own goroutines while the test reads.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestStructuredLifecycleLogs: a job's queued/started/done events and the
// request access lines share one correlation ID in the log stream.
func TestStructuredLifecycleLogs(t *testing.T) {
	var sink lockedBuffer
	logger := slog.New(slog.NewJSONHandler(&sink, &slog.HandlerOptions{Level: slog.LevelDebug}))
	_, ts := newTestServer(t, Config{Logger: logger})
	st, _ := postJob(t, ts, testSpecJSON)
	waitState(t, ts, st.ID)

	out := sink.String()
	short := shortID(st.ID)
	for _, want := range []string{
		`"msg":"job queued"`, `"msg":"job started"`, `"msg":"job done"`,
		`"job":"` + short + `"`,
		`"msg":"request"`, `"path":"/v1/jobs"`, `"method":"POST"`, `"status":202`,
		`"msg":"experiment done"`, `"experiment":"fig1"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("log stream missing %s:\n%s", want, out)
		}
	}
}

// TestRecoveryMiddleware: a panicking handler becomes a logged 500 with a
// stack trace and a counted panic; http.ErrAbortHandler passes through.
func TestRecoveryMiddleware(t *testing.T) {
	var sink lockedBuffer
	logger := slog.New(slog.NewTextHandler(&sink, nil))
	m := newMetrics()
	h := accessLog(logger, recoverPanics(logger, m, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { panic("kaboom") })))

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d", rec.Code)
	}
	var e map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
		t.Fatalf("500 body is not the JSON error shape: %q", rec.Body.String())
	}
	out := sink.String()
	for _, want := range []string{"handler panic", "kaboom", "stack=", "status=500"} {
		if !strings.Contains(out, want) {
			t.Errorf("panic log missing %q:\n%s", want, out)
		}
	}
	if m.panics != 1 {
		t.Fatalf("panic counter %d, want 1", m.panics)
	}

	abort := accessLog(logger, recoverPanics(logger, m, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { panic(http.ErrAbortHandler) })))
	defer func() {
		if rec := recover(); rec != http.ErrAbortHandler {
			t.Fatalf("ErrAbortHandler swallowed; recovered %v", rec)
		}
	}()
	abort.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil))
	t.Fatal("ErrAbortHandler did not propagate")
}

// TestRecoveryAfterHeadersSent: once a handler has written, the recovery
// middleware must not stack a second status onto the stream.
func TestRecoveryAfterHeadersSent(t *testing.T) {
	logger := slog.New(slog.DiscardHandler)
	m := newMetrics()
	h := accessLog(logger, recoverPanics(logger, m, http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
			w.Write([]byte("partial"))
			panic("mid-stream")
		})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "partial" {
		t.Fatalf("mid-stream panic rewrote the response: %d %q", rec.Code, rec.Body.String())
	}
}

// TestStatusWriterFlusher: the access-log wrapper keeps http.Flusher
// working — the SSE handler's assertion sees the wrapper, and Flush must
// reach the underlying writer.
func TestStatusWriterFlusher(t *testing.T) {
	rec := httptest.NewRecorder()
	h := accessLog(slog.New(slog.DiscardHandler), http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			f, ok := w.(http.Flusher)
			if !ok {
				t.Error("statusWriter does not expose http.Flusher")
				return
			}
			w.Write([]byte("x"))
			f.Flush()
		}))
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/x", nil))
	if !rec.Flushed {
		t.Fatal("Flush did not reach the underlying writer")
	}
}
