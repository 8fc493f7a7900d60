package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

// testSpec is the cheap two-experiment job the integration tests run
// (fig1 ≈ 100 µs, sec5a ≈ 10 ms at this scale).
const testSpecJSON = `{"ids":["fig1","sec5a"],"scale":0.2,"seed":3}`

func intp(v int) *int { return &v }

// perConfig adapts a per-configuration fake runner into a SweepRunner: the
// fake runs each configuration in request order, every outcome is
// delivered through onConfig, and the failures come back joined — the
// RunSweepStream contract. A run job's sweep has one configuration, so a
// fake sees exactly one call per executed run job.
func perConfig(run func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error)) SweepRunner {
	return func(sw core.Sweep, rc core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error {
		var errs []error
		for i, c := range sw.Configs {
			results, err := run(sw.IDs, c, rc, progress)
			onConfig(i, core.ConfigResult{Config: c, Results: results}, err)
			errs = append(errs, err)
		}
		return errors.Join(errs...)
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding job status: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getBody(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

// waitState polls a job until it reaches a terminal state.
func waitState(t *testing.T, ts *httptest.Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		body, code := getBody(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("job status returned %d: %s", code, body)
		}
		var st Status
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return Status{}
}

type sseEvent struct {
	name string
	data string
}

// readSSE consumes a Server-Sent Events stream until it closes.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestEndToEnd is the acceptance path: submit → SSE progress → cached JSON
// results, with a second identical job hitting the cache and returning the
// exact same bytes.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	st, code := postJob(t, ts, testSpecJSON)
	if code != http.StatusAccepted {
		t.Fatalf("first POST returned %d, want 202", code)
	}
	if st.ID == "" || st.State == StateDone {
		t.Fatalf("first POST returned %+v, want a queued/running job", st)
	}

	// The SSE stream must deliver one progress event per experiment plus
	// the terminal event, then close. Subscribing may race job completion;
	// the replayed history makes that safe.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	var progress, done int
	for _, e := range events {
		switch e.name {
		case "progress":
			progress++
			var p progressEvent
			if err := json.Unmarshal([]byte(e.data), &p); err != nil {
				t.Fatalf("progress event not JSON: %q", e.data)
			}
			if p.Total != 2 || p.Error != "" {
				t.Errorf("progress event wrong: %+v", p)
			}
		case "done":
			done++
		default:
			// A run job is a one-config sweep, but its stream keeps the
			// run-job shape: no config-cached/config-done section events.
			t.Errorf("run job streamed a %q event; want only progress and done", e.name)
		}
	}
	if progress != 2 || done != 1 {
		t.Fatalf("SSE stream had %d progress / %d done events, want 2/1 (%v)", progress, done, events)
	}

	final := waitState(t, ts, st.ID)
	if final.State != StateDone || final.Error != "" {
		t.Fatalf("job finished as %+v", final)
	}
	if len(final.Results) == 0 {
		t.Fatal("done job status does not embed results")
	}

	payload1, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}

	// The daemon payload must be byte-identical to what the CLI's -json
	// mode produces for the same spec (the diffability contract).
	opts := core.Options{Scale: 0.2, Seed: 3}
	results, err := core.RunIDsConfig([]string{"fig1", "sec5a"}, opts, core.RunConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := report.MarshalResults(results, opts)
	if err != nil {
		t.Fatal(err)
	}
	if payload1 != string(direct) {
		t.Fatal("daemon payload differs from the CLI's canonical JSON for the same spec")
	}

	// Second identical submission: served from the completed job, same id,
	// same bytes, no new simulation.
	st2, code := postJob(t, ts, testSpecJSON)
	if code != http.StatusOK {
		t.Fatalf("second POST returned %d, want 200", code)
	}
	if st2.ID != st.ID || st2.State != StateDone {
		t.Fatalf("second POST got %+v, want the finished job %s", st2, st.ID)
	}
	payload2, _ := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if payload1 != payload2 {
		t.Fatal("cache hit returned different bytes")
	}

	// The metrics endpoint must account for exactly one run and one hit.
	metricsText, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"zen2eed_jobs_completed_total 1",
		"zen2eed_cache_hits_total 1",
		"zen2eed_cache_misses_total 1",
		`zen2eed_experiment_latency_seconds_count{experiment="fig1"} 1`,
		`zen2eed_experiment_latency_seconds_count{experiment="sec5a"} 1`,
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}
}

// TestConcurrentIdenticalRequestsRunOnce is the singleflight contract: two
// identical submissions while the first is still in flight cause exactly
// one simulation run, and both read back byte-identical payloads.
func TestConcurrentIdenticalRequestsRunOnce(t *testing.T) {
	var runs atomic.Int32
	gate := make(chan struct{})
	cfg := Config{SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
		runs.Add(1)
		<-gate
		return core.RunIDsConfig(ids, o, rc, progress)
	})}
	_, ts := newTestServer(t, cfg)

	st1, code1 := postJob(t, ts, testSpecJSON)
	if code1 != http.StatusAccepted {
		t.Fatalf("first POST returned %d", code1)
	}
	// Wait until the runner has the job (it is blocked on the gate), then
	// submit the identical spec again.
	deadline := time.Now().Add(10 * time.Second)
	for runs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("runner never started")
		}
		time.Sleep(time.Millisecond)
	}
	st2, code2 := postJob(t, ts, testSpecJSON)
	if code2 != http.StatusOK {
		t.Fatalf("duplicate POST returned %d, want 200 (deduplicated)", code2)
	}
	if st2.ID != st1.ID {
		t.Fatalf("duplicate POST created a different job: %s vs %s", st2.ID, st1.ID)
	}
	close(gate)
	waitState(t, ts, st1.ID)
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d simulation runs for identical specs, want 1", n)
	}
	p1, _ := getBody(t, ts.URL+"/v1/jobs/"+st1.ID+"/result")
	p2, _ := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if p1 != p2 || p1 == "" {
		t.Fatal("deduplicated requests read back different payloads")
	}

	metricsText, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "zen2eed_jobs_deduplicated_total 1") {
		t.Errorf("dedup not accounted:\n%s", metricsText)
	}
}

// TestHammerIdenticalRequests fires many concurrent identical submissions
// at a live server; exactly one simulation may run. Exercised under
// go test -race in CI.
func TestHammerIdenticalRequests(t *testing.T) {
	var runs atomic.Int32
	cfg := Config{SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
		runs.Add(1)
		return core.RunIDsConfig(ids, o, rc, progress)
	})}
	_, ts := newTestServer(t, cfg)

	const clients = 16
	ids := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
				strings.NewReader(`{"ids":["fig1"],"scale":0.2,"seed":9}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids {
		if id != ids[0] {
			t.Fatalf("identical specs mapped to different jobs: %v", ids)
		}
	}
	waitState(t, ts, ids[0])
	if n := runs.Load(); n != 1 {
		t.Fatalf("%d simulation runs under identical-request load, want 1", n)
	}
	var payloads [clients]string
	for i := range payloads {
		payloads[i], _ = getBody(t, ts.URL+"/v1/jobs/"+ids[i]+"/result")
		if payloads[i] != payloads[0] {
			t.Fatal("payload bytes differ between identical requests")
		}
	}
}

// TestLoneJobShardsAcrossExecutors is the tentpole's acceptance test at the
// daemon layer: a single fig7 job must fan its shards across the shared
// executor pool instead of serializing on one executor. The injected runner
// forwards to the real scheduler but wraps the daemon's Acquire gate to
// record the high-water mark of concurrently held slots; the job's payload
// must still match the serial reference byte for byte (this test runs under
// -race in CI, covering the sharded path's synchronization).
func TestLoneJobShardsAcrossExecutors(t *testing.T) {
	var held, peak atomic.Int32
	// The first shard to acquire a slot parks until a second shard holds
	// one too, so the test deterministically observes overlap (or times
	// out and reports peak 1 if the scheduler serializes the job).
	overlapped := make(chan struct{})
	var closeOverlap sync.Once
	cfg := Config{
		Executors: 4,
		SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
			inner := rc.Acquire
			rc.Acquire = func() func() {
				release := inner()
				cur := held.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				if cur >= 2 {
					closeOverlap.Do(func() { close(overlapped) })
				} else {
					select {
					case <-overlapped:
					case <-time.After(5 * time.Second):
					}
				}
				return func() { held.Add(-1); release() }
			}
			return core.RunIDsConfig(ids, o, rc, progress)
		}),
	}
	_, ts := newTestServer(t, cfg)

	st, code := postJob(t, ts, `{"ids":["fig7"],"scale":0.5,"seed":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST returned %d", code)
	}
	if final := waitState(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("job finished as %+v", final)
	}
	if p := peak.Load(); p < 2 {
		t.Fatalf("lone fig7 job peaked at %d concurrent shards, want >= 2 (shards must spread across executors)", p)
	}
	if h := held.Load(); h != 0 {
		t.Fatalf("%d executor slots still held after the job", h)
	}

	// Determinism through the daemon: the concurrent sharded payload equals
	// the single-worker direct computation.
	payload, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	opts := core.Options{Scale: 0.5, Seed: 2}
	results, err := core.RunIDsConfig([]string{"fig7"}, opts, core.RunConfig{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := report.MarshalResults(results, opts)
	if err != nil {
		t.Fatal(err)
	}
	if payload != string(direct) {
		t.Fatal("sharded daemon payload differs from the serial reference bytes")
	}
}

// TestShardProgressOverSSE checks the wire shape of shard-level events: a
// sharded job streams shard events (shard/shards set) before each
// experiment completion event (shard omitted), and experiment totals keep
// counting experiments.
func TestShardProgressOverSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Executors: 2})
	st, _ := postJob(t, ts, `{"ids":["fig8"],"scale":0.2,"seed":4}`)
	waitState(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()

	var shardEvents, expEvents int
	for _, e := range events {
		if e.name != "progress" {
			continue
		}
		var p progressEvent
		if err := json.Unmarshal([]byte(e.data), &p); err != nil {
			t.Fatalf("progress event not JSON: %q", e.data)
		}
		if p.Shard > 0 {
			shardEvents++
			if p.Shards < p.Shard || p.ID != "fig8" || p.Label == "" {
				t.Errorf("malformed shard event: %+v", p)
			}
		} else {
			expEvents++
			if p.Total != 1 {
				t.Errorf("experiment event total %d, want 1", p.Total)
			}
		}
	}
	// fig8's plan is the 12-cell wake-latency matrix.
	if shardEvents != 12 || expEvents != 1 {
		t.Fatalf("SSE stream had %d shard / %d experiment events, want 12/1", shardEvents, expEvents)
	}
}

func TestSpecCanonicalization(t *testing.T) {
	base, err := Spec{IDs: []string{"fig1", "fig3"}, Scale: 0.5, Seed: 2}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, same := range []Spec{
		{IDs: []string{"fig3", "fig1"}, Scale: 0.5, Seed: 2},                   // order
		{IDs: []string{"fig1", "fig3"}, Scale: 0.5, Seed: 2, Workers: intp(8)}, // workers excluded
	} {
		c, err := same.canonicalize()
		if err != nil {
			t.Fatal(err)
		}
		if c.key() != base.key() {
			t.Errorf("spec %+v keyed differently from %+v", same, base)
		}
	}
	other, _ := Spec{IDs: []string{"fig1"}, Scale: 0.5, Seed: 2}.canonicalize()
	if other.key() == base.key() {
		t.Error("different experiment sets share a key")
	}

	// Duplicate IDs are a caller bug and must be rejected, not collapsed.
	if _, err := (Spec{IDs: []string{"fig1", "fig3", "fig1"}, Scale: 0.5, Seed: 2}).canonicalize(); err == nil {
		t.Error("duplicate experiment IDs accepted")
	}

	// Defaults: zero scale/seed become the registry defaults; naming every
	// experiment collapses to the full-suite spec.
	d, err := Spec{}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if d.Scale != 1 || d.Seed != 1 || d.IDs != nil {
		t.Errorf("defaults wrong: %+v", d)
	}
	var all []string
	for _, e := range core.Registry() {
		all = append(all, e.ID)
	}
	full, err := Spec{IDs: all}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if full.key() != d.key() {
		t.Error("explicit full registry keyed differently from the empty spec")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"malformed JSON":   `{"ids":`,
		"unknown field":    `{"sacle":2}`,
		"unknown id":       `{"ids":["nonexistent"]}`,
		"duplicate ids":    `{"ids":["fig1","fig1"]}`,
		"negative scale":   `{"scale":-1}`,
		"huge scale":       `{"scale":5000}`,
		"negative workers": `{"workers":-2}`,
		"zero workers":     `{"workers":0}`,
	} {
		if _, code := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, code)
		}
	}
	metricsText, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "zen2eed_bad_requests_total 8") {
		t.Errorf("bad requests not accounted:\n%s", metricsText)
	}
}

func TestQueueFullRejects(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 8)
	cfg := Config{QueueDepth: 1, Executors: 1,
		SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
			started <- struct{}{}
			<-gate
			return core.RunIDsConfig(ids, o, rc, progress)
		})}
	_, ts := newTestServer(t, cfg)

	// Distinct seeds make distinct jobs. Job 1 occupies the executor, then
	// job 2 occupies the single queue slot, so job 3 must bounce with 503.
	if _, code := postJob(t, ts, `{"ids":["fig1"],"seed":1}`); code != http.StatusAccepted {
		t.Fatalf("job 1: %d", code)
	}
	<-started // executor has picked up job 1 and is blocked
	if _, code := postJob(t, ts, `{"ids":["fig1"],"seed":2}`); code != http.StatusAccepted {
		t.Fatalf("job 2: %d", code)
	}
	if _, code := postJob(t, ts, `{"ids":["fig1"],"seed":3}`); code != http.StatusServiceUnavailable {
		t.Fatalf("job 3: got %d, want 503 (bounded queue)", code)
	}
	metricsText, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "zen2eed_queue_rejections_total 1") {
		t.Errorf("queue rejection not accounted:\n%s", metricsText)
	}
}

func TestUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/v1/jobs/deadbeef", "/v1/jobs/deadbeef/result", "/v1/jobs/deadbeef/events"} {
		if _, code := getBody(t, ts.URL+path); code != http.StatusNotFound {
			t.Errorf("%s: got %d, want 404", path, code)
		}
	}
}

func TestResultBeforeDone(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	cfg := Config{SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
		<-gate
		return core.RunIDsConfig(ids, o, rc, progress)
	})}
	_, ts := newTestServer(t, cfg)
	st, _ := postJob(t, ts, `{"ids":["fig1"]}`)
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of unfinished job: got %d, want 409", code)
	}
}

func TestFailedJobsRetryAndReportViaSSE(t *testing.T) {
	var calls atomic.Int32
	cfg := Config{SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("synthetic backend failure")
		}
		return core.RunIDsConfig(ids, o, rc, progress)
	})}
	srv, ts := newTestServer(t, cfg)

	st, _ := postJob(t, ts, `{"ids":["fig1"]}`)
	final := waitState(t, ts, st.ID)
	if final.State != StateFailed || !strings.Contains(final.Error, "synthetic") {
		t.Fatalf("first attempt: %+v, want failure", final)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); code != http.StatusInternalServerError {
		t.Errorf("failed job result: got %d, want 500", code)
	}
	// The replayed SSE stream of a finished job must carry the failure.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	if len(events) == 0 || events[len(events)-1].name != "failed" {
		t.Fatalf("SSE replay of failed job: %v", events)
	}

	// A failed spec is not pinned: resubmitting runs again and succeeds.
	st2, code := postJob(t, ts, `{"ids":["fig1"]}`)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit after failure: got %d, want 202", code)
	}
	if final := waitState(t, ts, st2.ID); final.State != StateDone {
		t.Fatalf("retry: %+v", final)
	}
	if calls.Load() != 2 {
		t.Fatalf("runner called %d times, want 2", calls.Load())
	}
	// The retry reuses the content address; the eviction order must hold
	// one live entry for the id, or the job would be listed or evicted
	// twice.
	srv.mu.Lock()
	seen := 0
	for _, e := range srv.jobOrder {
		if _, live := srv.liveLocked(e); live && e.id == st.ID {
			seen++
		}
	}
	srv.mu.Unlock()
	if seen != 1 {
		t.Fatalf("job id has %d live entries in the eviction order, want 1", seen)
	}
}

func TestExperimentsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, code := getBody(t, ts.URL+"/v1/experiments")
	if code != http.StatusOK {
		t.Fatalf("experiments returned %d", code)
	}
	var list []struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		PaperRef string `json:"paper_ref"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(core.Registry()) {
		t.Fatalf("%d experiments listed, registry has %d", len(list), len(core.Registry()))
	}
	if list[0].ID != "fig1" || list[0].Title == "" {
		t.Errorf("first entry wrong: %+v", list[0])
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if body, code := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, "true") {
		t.Fatalf("healthz: %d %s", code, body)
	}
}

// The result-cache LRU and byte-bound behaviors are covered in
// internal/store (TestMemoryLRU, TestMemoryByteBound), where the cache
// now lives.

func TestJobHistoryEvictionFallsBackToCache(t *testing.T) {
	// With a tiny job table, an old finished job's record is evicted, but
	// resubmitting its spec is still a cache hit (no new simulation).
	var runs atomic.Int32
	cfg := Config{JobHistory: 1, SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
		runs.Add(1)
		return core.RunIDsConfig(ids, o, rc, progress)
	})}
	_, ts := newTestServer(t, cfg)

	st1, _ := postJob(t, ts, `{"ids":["fig1"],"seed":1}`)
	waitState(t, ts, st1.ID)
	st2, _ := postJob(t, ts, `{"ids":["fig1"],"seed":2}`) // evicts job 1's record
	waitState(t, ts, st2.ID)

	if _, code := getBody(t, ts.URL+"/v1/jobs/"+st1.ID); code != http.StatusNotFound {
		t.Fatalf("evicted job record still served: %d", code)
	}
	st3, code := postJob(t, ts, `{"ids":["fig1"],"seed":1}`)
	if code != http.StatusOK || st3.State != StateDone || !st3.Cached {
		t.Fatalf("resubmit of evicted spec: code %d, %+v (want cached done job)", code, st3)
	}
	if runs.Load() != 2 {
		t.Fatalf("runner ran %d times, want 2 (cache must absorb the resubmit)", runs.Load())
	}
}

func TestMetricsRendersSortedExperiments(t *testing.T) {
	m := newMetrics()
	m.observeExperiment("fig7", 100*time.Millisecond)
	m.observeExperiment("fig1", 50*time.Millisecond)
	m.observeExperiment("fig1", 30*time.Millisecond)
	var buf bytes.Buffer
	m.write(&buf, gauges{queueDepth: 1, queueCap: 4, cacheEntries: 2, cacheCap: 8})
	out := buf.String()
	fig1 := strings.Index(out, `experiment="fig1"`)
	fig7 := strings.Index(out, `experiment="fig7"`)
	if fig1 < 0 || fig7 < 0 || fig1 > fig7 {
		t.Fatalf("experiment labels missing or unsorted:\n%s", out)
	}
	for _, want := range []string{
		"# TYPE zen2eed_experiment_latency_seconds histogram",
		`zen2eed_experiment_latency_seconds_bucket{experiment="fig1",le="0.025"} 0`,
		`zen2eed_experiment_latency_seconds_bucket{experiment="fig1",le="0.05"} 2`,
		`zen2eed_experiment_latency_seconds_bucket{experiment="fig1",le="+Inf"} 2`,
		`zen2eed_experiment_latency_seconds_count{experiment="fig1"} 2`,
		`zen2eed_experiment_latency_seconds_sum{experiment="fig1"} 0.08`,
		`zen2eed_experiment_latency_seconds_bucket{experiment="fig7",le="0.1"} 1`,
		"# TYPE zen2eed_shard_run_seconds histogram",
		`zen2eed_shard_run_seconds_bucket{le="+Inf"} 0`,
		"zen2eed_shard_run_seconds_count 0",
		"# TYPE zen2eed_shard_queue_wait_seconds histogram",
		`zen2eed_shard_queue_wait_seconds_bucket{le="0.001"} 0`,
		"zen2eed_queue_depth 1",
		"zen2eed_queue_capacity 4",
		"zen2eed_cache_entries 2",
		"zen2eed_cache_capacity 8",
		"# TYPE zen2eed_jobs_queued_total counter",
		"# TYPE zen2eed_jobs_running gauge",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestCacheHitRefreshesEvictionOrder: a submission answered by an existing
// job makes that job the youngest in the JobHistory eviction order, so the
// client's GET after its POST finds it even when other submissions insert
// jobs in between.
func TestCacheHitRefreshesEvictionOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{JobHistory: 8})
	spec := func(seed int) string { return fmt.Sprintf(`{"ids":["fig1"],"seed":%d}`, seed) }

	// Sequential: fill the table, hit the oldest job, insert one more.
	ids := map[int]string{}
	for seed := 1; seed <= 8; seed++ {
		st, _ := postJob(t, ts, spec(seed))
		waitState(t, ts, st.ID)
		ids[seed] = st.ID
	}
	if st, code := postJob(t, ts, spec(1)); code != http.StatusOK || st.ID != ids[1] {
		t.Fatalf("resubmit: code %d id %s, want 200 with %s", code, st.ID, ids[1])
	}
	st9, _ := postJob(t, ts, spec(9))
	waitState(t, ts, st9.ID)
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+ids[1]); code != http.StatusOK {
		t.Fatalf("cache-hit job evicted by the next insert: GET returned %d", code)
	}
	if _, code := getBody(t, ts.URL+"/v1/jobs/"+ids[2]); code != http.StatusNotFound {
		t.Fatalf("least recently submitted job still present: GET returned %d, want 404", code)
	}

	// Concurrent: two closed-loop clients mixing hits on a hot set with
	// cold inserts; every GET right after a POST must find the job.
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				seed := 1 + i%3
				if i%4 == 3 {
					seed = 1000 + 100*c + i
				}
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec(seed)))
				if err != nil {
					t.Error(err)
					return
				}
				var st Status
				err = json.NewDecoder(resp.Body).Decode(&st)
				resp.Body.Close()
				if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
					t.Errorf("POST seed %d: code %d err %v", seed, resp.StatusCode, err)
					return
				}
				get, err := http.Get(ts.URL + "/v1/jobs/" + st.ID)
				if err != nil {
					t.Error(err)
					return
				}
				get.Body.Close()
				if get.StatusCode != http.StatusOK {
					t.Errorf("GET after POST (seed %d): %d, want 200", seed, get.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
