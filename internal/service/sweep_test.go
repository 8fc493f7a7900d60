package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
)

func postSweep(t *testing.T, ts *httptest.Server, body string) (Status, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding sweep status: %v", err)
		}
	}
	return st, resp.StatusCode
}

// countingSweepRunner forwards to core.RunSweepStream while recording the
// configuration lists the daemon actually hands to the scheduler — the
// observable for "only the missing configurations run".
type countingSweepRunner struct {
	mu    sync.Mutex
	calls [][]core.Config
}

func (c *countingSweepRunner) run(sw core.Sweep, cfg core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error {
	c.mu.Lock()
	c.calls = append(c.calls, append([]core.Config(nil), sw.Configs...))
	c.mu.Unlock()
	return core.RunSweepStream(sw, cfg, onConfig, progress)
}

func (c *countingSweepRunner) ranConfigs() []core.Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []core.Config
	for _, call := range c.calls {
		out = append(out, call...)
	}
	return out
}

// TestSweepEndToEnd: submit a scales × seeds grid, stream progress with
// config indices, and read back a sweep document whose per-config sections
// are byte-identical to standalone single-config runs.
func TestSweepEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Executors: 4})

	st, code := postSweep(t, ts, `{"ids":["fig1","sec5a"],"scales":[0.2,0.4],"seeds":[3,4]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps returned %d, want 202", code)
	}
	if st.Kind != KindSweep || st.Sweep == nil || len(st.Sweep.Configs) != 4 {
		t.Fatalf("sweep status wrong: %+v", st)
	}

	// Progress must carry configuration indices covering the whole grid.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	seenConfigs := map[int]bool{}
	for _, e := range events {
		if e.name != "progress" {
			continue
		}
		var p progressEvent
		if err := json.Unmarshal([]byte(e.data), &p); err != nil {
			t.Fatalf("progress event not JSON: %q", e.data)
		}
		if p.Configs != 4 || p.Config < 0 || p.Config > 3 {
			t.Errorf("progress event config %d/%d out of range", p.Config, p.Configs)
		}
		seenConfigs[p.Config] = true
	}
	if len(seenConfigs) != 4 {
		t.Errorf("progress events covered configs %v, want all 4", seenConfigs)
	}

	final := waitState(t, ts, st.ID)
	if final.State != StateDone || final.Error != "" {
		t.Fatalf("sweep finished as %+v", final)
	}
	if len(final.CachedConfigs) != 4 {
		t.Fatalf("cached_configs %v, want 4 entries", final.CachedConfigs)
	}
	for i, c := range final.CachedConfigs {
		if c {
			t.Errorf("config %d reported cached on a cold sweep", i)
		}
	}

	payload, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("sweep result returned %d", code)
	}
	doc, err := report.UnmarshalSweep([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Configs) != 4 {
		t.Fatalf("sweep document has %d sections, want 4", len(doc.Configs))
	}
	// Byte-identity per section against the standalone computation.
	for _, section := range doc.Configs {
		results, err := core.RunIDsConfig([]string{"fig1", "sec5a"}, section.Config, core.RunConfig{Workers: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := report.MarshalResults(results, section.Config)
		if err != nil {
			t.Fatal(err)
		}
		got, err := section.Document()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("config %+v: sweep section differs from standalone run bytes", section.Config)
		}
	}

	// Identical resubmission is one cache hit, byte-identical.
	st2, code := postSweep(t, ts, `{"ids":["fig1","sec5a"],"scales":[0.2,0.4],"seeds":[3,4]}`)
	if code != http.StatusOK || st2.ID != st.ID || st2.State != StateDone {
		t.Fatalf("resubmitted sweep: code %d, %+v", code, st2)
	}

	metricsText, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"zen2eed_sweeps_queued_total 1",
		"zen2eed_sweep_configs_run_total 4",
		"zen2eed_sweep_configs_cached_total 0",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}
}

// TestSweepSharesCacheWithSingleJobs is the cache-interoperability
// acceptance test, both directions: a single job warms a sweep's config
// (the sweep runs only the missing ones and returns the single job's exact
// bytes), and the sweep's other configs then serve a single job without a
// run.
func TestSweepSharesCacheWithSingleJobs(t *testing.T) {
	counter := &countingSweepRunner{}
	_, ts := newTestServer(t, Config{SweepRunner: counter.run})

	// Direction 1: single job first.
	stSingle, code := postJob(t, ts, `{"ids":["fig1"],"scale":0.2,"seed":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("single job POST returned %d", code)
	}
	waitState(t, ts, stSingle.ID)
	singlePayload, _ := getBody(t, ts.URL+"/v1/jobs/"+stSingle.ID+"/result")
	// The single job is a one-config sweep through the same runner; what
	// the sweeps below run is counted from this snapshot on.
	before := len(counter.ranConfigs())
	if before != 1 {
		t.Fatalf("single job ran %d configs, want 1", before)
	}

	// Sweep covering the warmed config (seed 3) plus two cold ones.
	stSweep, code := postSweep(t, ts, `{"ids":["fig1"],"scales":[0.2],"seeds":[3,4,5]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep POST returned %d", code)
	}
	final := waitState(t, ts, stSweep.ID)
	if final.State != StateDone {
		t.Fatalf("sweep finished as %+v", final)
	}
	if want := []bool{true, false, false}; len(final.CachedConfigs) != 3 ||
		final.CachedConfigs[0] != want[0] || final.CachedConfigs[1] != want[1] || final.CachedConfigs[2] != want[2] {
		t.Fatalf("cached_configs %v, want %v", final.CachedConfigs, want)
	}
	// Execution-count observation: the scheduler saw only the two missing
	// configurations, never the warmed one.
	ran := counter.ranConfigs()[before:]
	if len(ran) != 2 || ran[0] != (core.Config{Scale: 0.2, Seed: 4}) || ran[1] != (core.Config{Scale: 0.2, Seed: 5}) {
		t.Fatalf("sweep ran configs %+v, want only seeds 4 and 5", ran)
	}

	// The warmed section's bytes are exactly the single job's payload.
	sweepPayload, _ := getBody(t, ts.URL+"/v1/jobs/"+stSweep.ID+"/result")
	doc, err := report.UnmarshalSweep([]byte(sweepPayload))
	if err != nil {
		t.Fatal(err)
	}
	sec0, err := doc.Configs[0].Document()
	if err != nil {
		t.Fatal(err)
	}
	if string(sec0) != singlePayload {
		t.Fatal("sweep section for the warmed config differs from the single job's payload bytes")
	}

	// Direction 2: a config the sweep computed now serves a single job from
	// cache — same bytes, no new run.
	stBack, code := postJob(t, ts, `{"ids":["fig1"],"scale":0.2,"seed":5}`)
	if code != http.StatusOK || stBack.State != StateDone || !stBack.Cached {
		t.Fatalf("single job for swept config: code %d, %+v (want cached done)", code, stBack)
	}
	backPayload, _ := getBody(t, ts.URL+"/v1/jobs/"+stBack.ID+"/result")
	sec2, err := doc.Configs[2].Document()
	if err != nil {
		t.Fatal(err)
	}
	if string(sec2) != backPayload {
		t.Fatal("single job served different bytes than the sweep's section for the same config")
	}

	// Re-submitting a widened sweep after the warm-up runs only the one new
	// config.
	stMore, code := postSweep(t, ts, `{"ids":["fig1"],"scales":[0.2],"seeds":[3,4,5,6]}`)
	if code != http.StatusAccepted {
		t.Fatalf("widened sweep POST returned %d", code)
	}
	if final := waitState(t, ts, stMore.ID); final.State != StateDone {
		t.Fatalf("widened sweep finished as %+v", final)
	}
	ran = counter.ranConfigs()[before:]
	if len(ran) != 3 || ran[2] != (core.Config{Scale: 0.2, Seed: 6}) {
		t.Fatalf("widened sweep re-ran configs: %+v (want one new run for seed 6)", ran)
	}

	metricsText, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "zen2eed_sweep_configs_cached_total 4") {
		t.Errorf("cached sweep configs not accounted:\n%s", metricsText)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"malformed JSON":    `{"configs":`,
		"unknown field":     `{"scalez":[1]}`,
		"no configurations": `{"ids":["fig1"]}`,
		"configs and grid":  `{"configs":[{"scale":1,"seed":1}],"scales":[1]}`,
		"duplicate config":  `{"configs":[{"scale":1,"seed":2},{"scale":1,"seed":2}]}`,
		"duplicate ids":     `{"ids":["fig1","fig1"],"scales":[1]}`,
		"unknown id":        `{"ids":["nonexistent"],"scales":[1]}`,
		"negative scale":    `{"scales":[-1]}`,
		"huge scale":        `{"scales":[5000]}`,
		"zero workers":      `{"scales":[1],"workers":0}`,
	} {
		if _, code := postSweep(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: got %d, want 400", name, code)
		}
	}
}

// TestSweepConfigCap pins the configuration bound as a sanity check, not a
// capacity limit: a study far beyond the old 256-config cap canonicalizes
// fine (the streaming executor's memory does not scale with sweep size),
// while a runaway grid past maxSweepConfigs is still rejected.
func TestSweepConfigCap(t *testing.T) {
	configs := func(n int) []core.Config {
		out := make([]core.Config, n)
		for i := range out {
			out[i] = core.Config{Scale: 1, Seed: uint64(i + 1)}
		}
		return out
	}
	if _, err := (SweepSpec{IDs: []string{"fig1"}, Configs: configs(1000)}).canonicalize(); err != nil {
		t.Fatalf("1000-config sweep rejected: %v", err)
	}
	if _, err := (SweepSpec{IDs: []string{"fig1"}, Configs: configs(maxSweepConfigs + 1)}).canonicalize(); err == nil {
		t.Fatal("sweep beyond maxSweepConfigs accepted")
	}

	// A runaway grid is rejected before it is expanded: 2048 × 2048
	// configurations would take 64 MiB, from a request body of ~20 KiB.
	grid := SweepSpec{Scales: make([]float64, 2048), Seeds: make([]uint64, 2048)}
	for i := range grid.Scales {
		grid.Scales[i], grid.Seeds[i] = float64(i+1), uint64(i+1)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := grid.canonicalize()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("2048 × 2048 grid accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 8<<20 {
		t.Errorf("rejecting the grid allocated %d bytes; it must not be expanded first", alloc)
	}
}

// TestSweepKeyCanonicalization: a grid request and its explicit-config
// expansion are the same sweep; different grids are not.
func TestSweepKeyCanonicalization(t *testing.T) {
	grid, err := SweepSpec{IDs: []string{"fig1"}, Scales: []float64{1, 2}, Seeds: []uint64{1, 2}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := SweepSpec{IDs: []string{"fig1"}, Configs: []core.Config{
		{Scale: 1, Seed: 1}, {Scale: 1, Seed: 2}, {Scale: 2, Seed: 1}, {Scale: 2, Seed: 2},
	}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if grid.key() != explicit.key() {
		t.Error("grid and its explicit expansion keyed differently")
	}
	other, err := SweepSpec{IDs: []string{"fig1"}, Scales: []float64{1, 2}, Seeds: []uint64{1, 3}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if other.key() == grid.key() {
		t.Error("different grids share a key")
	}
	// Config order is identity: a sweep's sections are positional.
	reordered, err := SweepSpec{IDs: []string{"fig1"}, Configs: []core.Config{
		{Scale: 1, Seed: 2}, {Scale: 1, Seed: 1}, {Scale: 2, Seed: 1}, {Scale: 2, Seed: 2},
	}}.canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if reordered.key() == grid.key() {
		t.Error("reordered configs share a key with the grid order")
	}
}

// TestJobsList: GET /v1/jobs enumerates run and sweep jobs newest first,
// with state and cache-hit flags, and without embedded payloads.
func TestJobsList(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	st1, _ := postJob(t, ts, `{"ids":["fig1"],"seed":1}`)
	waitState(t, ts, st1.ID)
	// Identical resubmit: served from the finished job, no new entry.
	postJob(t, ts, `{"ids":["fig1"],"seed":1}`)
	st2, _ := postSweep(t, ts, `{"ids":["fig1"],"seeds":[1,2]}`)
	waitState(t, ts, st2.ID)

	body, code := getBody(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/jobs returned %d", code)
	}
	var list []Status
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("%d jobs listed, want 2: %s", len(list), body)
	}
	// Newest first: the sweep, then the run job.
	if list[0].ID != st2.ID || list[0].Kind != KindSweep {
		t.Errorf("list[0] = %+v, want the sweep job", list[0])
	}
	if list[1].ID != st1.ID || list[1].Kind != KindRun {
		t.Errorf("list[1] = %+v, want the run job", list[1])
	}
	for i, st := range list {
		if st.State != StateDone {
			t.Errorf("list[%d] state %s, want done", i, st.State)
		}
		if len(st.Results) != 0 {
			t.Errorf("list[%d] embeds results; the list must stay light", i)
		}
	}
	// The sweep's cache-hit flags mark the config the single job warmed.
	if cc := list[0].CachedConfigs; len(cc) != 2 || !cc[0] || cc[1] {
		t.Errorf("sweep cached_configs %v, want [true false]", cc)
	}
}

// TestSweepWaitsForInFlightSingleJob is the per-configuration
// singleflight, direction 1: a sweep covering a configuration that a
// single job is *currently* simulating must not run it a second time — it
// waits for the holder and takes the cached payload.
func TestSweepWaitsForInFlightSingleJob(t *testing.T) {
	var singleRuns atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	counter := &countingSweepRunner{}
	cfg := Config{
		Executors: 2,
		// Seed 7 is the single job's configuration: it parks mid-run. Every
		// other configuration goes through the counter.
		SweepRunner: func(sw core.Sweep, rc core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error {
			if slices.ContainsFunc(sw.Configs, func(c core.Config) bool { return c.Seed == 7 }) {
				singleRuns.Add(1)
				started <- struct{}{}
				<-gate
				return core.RunSweepStream(sw, rc, onConfig, progress)
			}
			return counter.run(sw, rc, onConfig, progress)
		},
	}
	_, ts := newTestServer(t, cfg)

	// The single job claims (0.2, 7) and parks mid-simulation.
	stSingle, _ := postJob(t, ts, `{"ids":["fig1"],"scale":0.2,"seed":7}`)
	<-started
	// The sweep covers the in-flight configuration plus a cold one.
	stSweep, code := postSweep(t, ts, `{"ids":["fig1"],"scales":[0.2],"seeds":[7,8]}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep POST returned %d", code)
	}
	// Give the sweep executor time to claim seed 8 and reach the wait on
	// seed 7's holder, then release the single job.
	time.Sleep(20 * time.Millisecond)
	close(gate)

	final := waitState(t, ts, stSweep.ID)
	if final.State != StateDone {
		t.Fatalf("sweep finished as %+v", final)
	}
	if got := counter.ranConfigs(); len(got) != 1 || got[0] != (core.Config{Scale: 0.2, Seed: 8}) {
		t.Fatalf("sweep ran configs %+v, want only the cold seed 8 (seed 7 must come from the in-flight job)", got)
	}
	if n := singleRuns.Load(); n != 1 {
		t.Fatalf("configuration (0.2, 7) simulated %d times, want 1", n)
	}
	// The shared section's bytes are the single job's payload.
	waitState(t, ts, stSingle.ID)
	singlePayload, _ := getBody(t, ts.URL+"/v1/jobs/"+stSingle.ID+"/result")
	sweepPayload, _ := getBody(t, ts.URL+"/v1/jobs/"+stSweep.ID+"/result")
	doc, err := report.UnmarshalSweep([]byte(sweepPayload))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := doc.Configs[0].Document()
	if err != nil {
		t.Fatal(err)
	}
	if string(sec) != singlePayload {
		t.Fatal("sweep section for the in-flight config differs from the single job's payload")
	}
}

// TestSingleJobWaitsForInFlightSweep is direction 2: a single job for a
// configuration a sweep is currently simulating waits and is served from
// the sweep's cache fill, with zero additional simulations.
func TestSingleJobWaitsForInFlightSweep(t *testing.T) {
	var singleRuns atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	cfg := Config{
		Executors: 2,
		// A one-configuration call is the single job's; the two-config
		// sweep parks mid-run.
		SweepRunner: func(sw core.Sweep, rc core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error {
			if len(sw.Configs) == 1 {
				singleRuns.Add(1)
				return core.RunSweepStream(sw, rc, onConfig, progress)
			}
			started <- struct{}{}
			<-gate
			return core.RunSweepStream(sw, rc, onConfig, progress)
		},
	}
	_, ts := newTestServer(t, cfg)

	stSweep, _ := postSweep(t, ts, `{"ids":["fig1"],"scales":[0.2],"seeds":[11,12]}`)
	<-started // the sweep holds claims on both configs, parked mid-run
	stSingle, code := postJob(t, ts, `{"ids":["fig1"],"scale":0.2,"seed":11}`)
	if code != http.StatusAccepted {
		t.Fatalf("single POST returned %d (the sweep job has a different address, so this enqueues)", code)
	}
	time.Sleep(20 * time.Millisecond) // let the single executor reach the claim wait
	close(gate)

	finalSweep := waitState(t, ts, stSweep.ID)
	finalSingle := waitState(t, ts, stSingle.ID)
	if finalSweep.State != StateDone || finalSingle.State != StateDone {
		t.Fatalf("sweep %+v / single %+v", finalSweep, finalSingle)
	}
	if !finalSingle.Cached {
		t.Fatal("single job for the swept config did not report a cache hit")
	}
	if n := singleRuns.Load(); n != 0 {
		t.Fatalf("single runner simulated %d times, want 0 (the sweep's fill must serve it)", n)
	}
	singlePayload, _ := getBody(t, ts.URL+"/v1/jobs/"+stSingle.ID+"/result")
	sweepPayload, _ := getBody(t, ts.URL+"/v1/jobs/"+stSweep.ID+"/result")
	doc, err := report.UnmarshalSweep([]byte(sweepPayload))
	if err != nil {
		t.Fatal(err)
	}
	sec, err := doc.Configs[0].Document()
	if err != nil {
		t.Fatal(err)
	}
	if string(sec) != singlePayload {
		t.Fatal("single job payload differs from the sweep's section for the same config")
	}
}

// TestSweepServedByAssembly pins the no-double-buffering contract: a done
// sweep job holds no document of its own — not in the job record, not in
// the cache under the job id. The result endpoint streams the document
// assembled from the per-config cache entries (byte-identical to
// MarshalSweepSections over them), the status endpoint embeds the same
// bytes, and each section was announced with a config-done event the
// moment it landed.
func TestSweepServedByAssembly(t *testing.T) {
	s, ts := newTestServer(t, Config{Executors: 2})

	st, code := postSweep(t, ts, `{"ids":["fig1"],"scales":[0.2],"seeds":[3,4]}`)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps returned %d", code)
	}
	if final := waitState(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("sweep finished as %+v", final)
	}

	s.mu.Lock()
	j := s.jobs[st.ID]
	s.mu.Unlock()
	if payload, _, _ := j.result(); payload != nil {
		t.Error("done sweep job holds a whole-document payload; it must be assembled on demand")
	}
	if _, ok := s.cache.Get(st.ID); ok {
		t.Error("assembled sweep document cached under the job id (double-buffering)")
	}

	// The served document is exactly MarshalSweepSections over the
	// per-config cache entries.
	sections := make([][]byte, len(j.sweep.Configs))
	for i := range j.sweep.Configs {
		p, ok := s.cache.Get(j.sweep.configKey(i))
		if !ok {
			t.Fatalf("config %d missing from the per-config cache", i)
		}
		sections[i] = p
	}
	want, err := report.MarshalSweepSections(j.sweep.IDs, j.sweep.Configs, sections)
	if err != nil {
		t.Fatal(err)
	}
	got, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("sweep result returned %d", code)
	}
	if got != string(want) {
		t.Error("streamed sweep result differs from MarshalSweepSections over the cached sections")
	}
	// The status endpoint embeds the same document (its encoder re-indents
	// the embedded raw message, so compare compacted forms).
	statusBody, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	var full Status
	if err := json.Unmarshal([]byte(statusBody), &full); err != nil {
		t.Fatal(err)
	}
	var gotCompact, wantCompact bytes.Buffer
	if err := json.Compact(&gotCompact, full.Results); err != nil {
		t.Fatalf("status embeds invalid sweep JSON: %v", err)
	}
	if err := json.Compact(&wantCompact, want); err != nil {
		t.Fatal(err)
	}
	if gotCompact.String() != wantCompact.String() {
		t.Error("status endpoint embeds a different sweep document than the result endpoint")
	}

	// Every streamed configuration produced a config-done section event.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body)
	resp.Body.Close()
	doneConfigs := map[int]bool{}
	for _, e := range events {
		if e.name != "config-done" {
			continue
		}
		var ev configCachedEvent
		if err := json.Unmarshal([]byte(e.data), &ev); err != nil {
			t.Fatalf("config-done event not JSON: %q", e.data)
		}
		if ev.Cached {
			t.Errorf("config-done event %d claims a cache hit", ev.Config)
		}
		doneConfigs[ev.Config] = true
	}
	if len(doneConfigs) != 2 || !doneConfigs[0] || !doneConfigs[1] {
		t.Errorf("config-done events covered %v, want configs 0 and 1", doneConfigs)
	}

	// The byte-weighted cache gauge reflects the cached sections.
	metricsText, _ := getBody(t, ts.URL+"/metrics")
	if want := fmt.Sprintf("zen2eed_cache_bytes %d", s.cache.Bytes()); !strings.Contains(metricsText, want) {
		t.Errorf("metrics missing %q", want)
	}
}

// TestSweepEvictionRerun: when a done sweep's sections fall out of the
// cache, the result endpoint answers 410 Gone, the status endpoint omits
// (never fabricates) the document, and resubmitting the identical sweep
// reruns it instead of deduplicating onto the hollow job.
func TestSweepEvictionRerun(t *testing.T) {
	counter := &countingSweepRunner{}
	_, ts := newTestServer(t, Config{CacheEntries: 1, SweepRunner: counter.run})

	const body = `{"ids":["fig1"],"scales":[0.2],"seeds":[3,4]}`
	st, code := postSweep(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("POST /v1/sweeps returned %d", code)
	}
	if final := waitState(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("sweep finished as %+v", final)
	}
	if n := len(counter.ranConfigs()); n != 2 {
		t.Fatalf("cold sweep ran %d configs, want 2", n)
	}

	// The one-entry cache cannot hold both sections, so the document is gone.
	resBody, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusGone {
		t.Fatalf("evicted sweep result returned %d, want 410: %s", code, resBody)
	}
	statusBody, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("evicted sweep status returned %d", code)
	}
	var full Status
	if err := json.Unmarshal([]byte(statusBody), &full); err != nil {
		t.Fatal(err)
	}
	if full.State != StateDone || len(full.Results) != 0 {
		t.Fatalf("evicted sweep status must stay done with no embedded document, got %+v", full)
	}

	// Resubmission must requeue (202, same content address), not serve the
	// hollow job as a cache hit.
	st2, code := postSweep(t, ts, body)
	if code != http.StatusAccepted || st2.ID != st.ID {
		t.Fatalf("resubmit after eviction: code %d id %s, want 202 with id %s", code, st2.ID, st.ID)
	}
	if final := waitState(t, ts, st2.ID); final.State != StateDone {
		t.Fatalf("rerun finished as %+v", final)
	}
	if n := len(counter.ranConfigs()); n <= 2 {
		t.Fatalf("resubmission after eviction simulated nothing (total configs run %d)", n)
	}
}

// TestContentAddressKeyShape: content addresses are the full SHA-256
// digest — 64 hex characters, stable, pairwise distinct across near-miss
// specs — sweep keys live in a keyspace separate from run keys, and a
// sweep's per-config key deliberately aliases the single-job key for the
// same (experiment set, Scale, Seed): that alias is the cache seam.
func TestContentAddressKeyShape(t *testing.T) {
	isHex := func(k string) bool {
		for _, r := range k {
			if !strings.ContainsRune("0123456789abcdef", r) {
				return false
			}
		}
		return true
	}
	specs := []Spec{
		{IDs: []string{"fig1"}, Scale: 1, Seed: 12},
		{IDs: []string{"fig1"}, Scale: 11, Seed: 2},
		{IDs: []string{"fig1"}, Scale: 1.1, Seed: 2},
		{IDs: []string{"fig1", "sec5a"}, Scale: 1, Seed: 12},
		{IDs: nil, Scale: 1, Seed: 12},
	}
	seen := map[string]int{}
	for i, sp := range specs {
		k := sp.key()
		if len(k) != 64 || !isHex(k) {
			t.Errorf("spec %d key %q is not a full 64-char hex digest", i, k)
		}
		if k != sp.key() {
			t.Errorf("spec %d key is not stable", i)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("specs %d and %d share key %s", prev, i, k)
		}
		seen[k] = i
	}
	sweep := SweepSpec{IDs: []string{"fig1"}, Configs: []core.Config{{Scale: 1, Seed: 12}}}
	if k := sweep.key(); len(k) != 64 || !isHex(k) {
		t.Errorf("sweep key %q is not a full 64-char hex digest", k)
	}
	if sweep.key() == specs[0].key() {
		t.Error("a one-config sweep and the equivalent run share a key; the keyspaces must be distinct")
	}
	if sweep.configKey(0) != specs[0].key() {
		t.Error("sweep configKey does not alias the single-job key for the same configuration")
	}
}

// TestSSEKeepalive: an idle progress stream carries comment frames so
// proxies keep the connection alive.
func TestSSEKeepalive(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{
		SSEKeepAlive: 20 * time.Millisecond,
		SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
			<-gate
			return core.RunIDsConfig(ids, o, rc, progress)
		}),
	}
	_, ts := newTestServer(t, cfg)

	st, _ := postJob(t, ts, `{"ids":["fig1"]}`)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// The job is parked on the gate, so nothing but keepalives can arrive.
	sc := bufio.NewScanner(resp.Body)
	pings := 0
	for sc.Scan() && pings < 2 {
		if strings.HasPrefix(sc.Text(), ": ping") {
			pings++
		}
	}
	if pings < 2 {
		t.Fatalf("saw %d keepalive frames on an idle stream, want >= 2 (scan err %v)", pings, sc.Err())
	}
	close(gate)
	// The stream still terminates normally after the job finishes.
	events := readSSE(t, resp.Body)
	if len(events) == 0 || events[len(events)-1].name != "done" {
		t.Fatalf("stream after keepalives did not finish with done: %v", events)
	}
}
