// Service-level multi-tenancy tests: authentication at the submission
// endpoints, admission rejections with Retry-After, the /v1/tenants
// listing, gated tenant metric series, and — the acceptance test for the
// weighted-fair gate — a bulk sweep that must not starve another tenant's
// interactive job. The policy mechanisms themselves (buckets, breakers,
// stride scheduling) are unit-tested in internal/tenant; these tests pin
// the HTTP seams.

package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zen2ee/internal/core"
	"zen2ee/internal/tenant"
)

func mustRegistry(t *testing.T, cfg tenant.Config) *tenant.Registry {
	t.Helper()
	r, err := tenant.NewRegistry(cfg)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	return r
}

// postAuth submits a spec with an API key ("" sends no credential) and
// returns the decoded status (when 2xx), the response, and its body.
func postAuth(t *testing.T, ts *httptest.Server, path, body, key string) (Status, *http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decoding job status: %v (%s)", err, raw)
		}
	}
	return st, resp, string(raw)
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTenantAuthentication(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{Tenants: []tenant.Policy{
		{Name: "live", Key: "kl"},
	}})
	_, ts := newTestServer(t, Config{Tenants: reg})

	// No anonymous policy: keyless and unknown-key submissions are 401
	// with a challenge; read routes stay open.
	_, resp, _ := postAuth(t, ts, "/v1/jobs", testSpecJSON, "")
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless submit: %d, want 401", resp.StatusCode)
	}
	if got := resp.Header.Get("WWW-Authenticate"); !strings.Contains(got, "Bearer") {
		t.Errorf("401 missing WWW-Authenticate challenge (got %q)", got)
	}
	if _, resp, _ := postAuth(t, ts, "/v1/jobs", testSpecJSON, "wrong"); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: %d, want 401", resp.StatusCode)
	}
	if _, code := getBody(t, ts.URL+"/v1/experiments"); code != http.StatusOK {
		t.Fatalf("read route demanded auth: %d", code)
	}

	// Bearer and X-API-Key both authenticate.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(testSpecJSON))
	req.Header.Set("Authorization", "Bearer kl")
	bearerResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	bearerResp.Body.Close()
	if bearerResp.StatusCode != http.StatusAccepted {
		t.Fatalf("Bearer submit: %d, want 202", bearerResp.StatusCode)
	}
	st, resp, _ := postAuth(t, ts, "/v1/jobs", testSpecJSON, "kl")
	if resp.StatusCode != http.StatusOK || st.Tenant != "live" {
		t.Fatalf("X-API-Key resubmit: %d %+v, want 200 attributed to live", resp.StatusCode, st)
	}

	metricsText, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "zen2eed_auth_rejections_total 2") {
		t.Errorf("auth rejections not accounted:\n%s", metricsText)
	}
}

func TestTenantRateLimit429(t *testing.T) {
	// Burst 1 at a glacial refill: the first submission drains the bucket,
	// the second must bounce with 429 and a Retry-After measured from the
	// refill rate, and the rejection must show up in the tenant's usage.
	reg := mustRegistry(t, tenant.Config{Tenants: []tenant.Policy{
		{Name: "live", Key: "kl", RateRPS: 0.001, Burst: 1},
	}})
	_, ts := newTestServer(t, Config{Tenants: reg})

	if _, resp, _ := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":1}`, "kl"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d, want 202", resp.StatusCode)
	}
	_, resp, body := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":2}`, "kl")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: %d, want 429 (%s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if !strings.Contains(body, "rate limit") {
		t.Errorf("429 body %q does not name the rate limit", body)
	}

	// A deduplicated resubmission of the live job is NOT admission: it
	// must succeed even with the bucket empty (cache locality is free).
	if _, resp, _ := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":1}`, "kl"); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("dedup resubmit with empty bucket: %d, want 200", resp.StatusCode)
	}

	usages := getTenantUsages(t, ts)
	if len(usages) != 1 || usages[0].Name != "live" {
		t.Fatalf("usages = %+v", usages)
	}
	if usages[0].Admitted != 1 || usages[0].Rejected["rate"] != 1 {
		t.Fatalf("accounting wrong: admitted %d, rejected %v (want 1 and rate:1)",
			usages[0].Admitted, usages[0].Rejected)
	}
}

func TestTenantQueueQuota429(t *testing.T) {
	// One executor blocked on the gate channel, max_queued 1: job 1 runs,
	// job 2 occupies the tenant's queue allowance, job 3 is a 429 quota
	// rejection — while the daemon's own queue still has room.
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{}, 8)
	reg := mustRegistry(t, tenant.Config{Tenants: []tenant.Policy{
		{Name: "batch", Key: "kb", MaxQueued: 1},
	}})
	cfg := Config{Executors: 1, QueueDepth: 8, Tenants: reg,
		SweepRunner: perConfig(func(ids []string, o core.Options, rc core.RunConfig, progress func(core.Progress)) ([]*core.Result, error) {
			started <- struct{}{}
			<-gate
			return core.RunIDsConfig(ids, o, rc, progress)
		})}
	_, ts := newTestServer(t, cfg)

	if _, resp, _ := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":1}`, "kb"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d", resp.StatusCode)
	}
	<-started
	if _, resp, _ := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":2}`, "kb"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d", resp.StatusCode)
	}
	_, resp, body := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":3}`, "kb")
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, "max_queued") {
		t.Fatalf("job 3: %d %q, want 429 naming max_queued", resp.StatusCode, body)
	}

	usages := getTenantUsages(t, ts)
	if usages[0].Queued != 1 || usages[0].Running != 1 || usages[0].Rejected["quota"] != 1 {
		t.Fatalf("usage = %+v, want queued 1 / running 1 / quota:1", usages[0])
	}
}

func getTenantUsages(t *testing.T, ts *httptest.Server) []tenant.Usage {
	t.Helper()
	body, code := getBody(t, ts.URL+"/v1/tenants")
	if code != http.StatusOK {
		t.Fatalf("/v1/tenants: %d (%s)", code, body)
	}
	var usages []tenant.Usage
	if err := json.Unmarshal([]byte(body), &usages); err != nil {
		t.Fatalf("decoding usages: %v", err)
	}
	return usages
}

func TestTenantsEndpointDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, code := getBody(t, ts.URL+"/v1/tenants")
	if code != http.StatusNotFound || !strings.Contains(body, "-tenant-config") {
		t.Fatalf("/v1/tenants without tenancy: %d %q, want a 404 naming -tenant-config", code, body)
	}
}

func TestTenantMetricsSeries(t *testing.T) {
	reg := mustRegistry(t, tenant.Config{
		Tenants:   []tenant.Policy{{Name: "live", Key: "kl", RateRPS: 0.001, Burst: 1, Weight: 2}},
		Anonymous: &tenant.Policy{Name: "anon"},
	})
	_, ts := newTestServer(t, Config{Tenants: reg})

	st, resp, _ := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":1}`, "kl")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if _, resp, _ := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":2}`, "kl"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submit: %d, want 429", resp.StatusCode)
	}
	waitState(t, ts, st.ID)

	metricsText, _ := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"zen2eed_tenant_rejections_total 1",
		`zen2eed_tenant_admitted_total{tenant="anon"} 0`,
		`zen2eed_tenant_admitted_total{tenant="live"} 1`,
		`zen2eed_tenant_rejected_total{tenant="live",reason="rate"} 1`,
		`zen2eed_tenant_jobs_queued{tenant="live"} 0`,
		`zen2eed_tenant_jobs_running{tenant="live"} 0`,
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("metrics missing %q:\n%s", want, metricsText)
		}
	}
}

func TestSubmitOversizedSpec413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A syntactically valid body whose string content runs past the cap,
	// so the decoder reads until MaxBytesReader trips.
	huge := `{"ids":["` + strings.Repeat("x", maxSpecBytes) + `"]}`
	for _, path := range []string{"/v1/jobs", "/v1/sweeps"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s: %d, want 413", path, resp.StatusCode)
		}
	}
}

// TestInteractiveTenantNotStarvedByBulkSweep is the fair-queueing
// acceptance test (runs under -race in CI). A bulk sweep from one tenant
// saturates every executor slot and queues more shards behind them; when
// another tenant's interactive job arrives and a slot frees, the gate
// must grant it to the interactive shard ahead of the earlier-queued bulk
// shards — strict class priority at shard granularity, between shards of
// the running sweep.
func TestInteractiveTenantNotStarvedByBulkSweep(t *testing.T) {
	testInteractiveBeatsBulk(t, false)
}

// TestDistFallbackHonorsTenantPriority is the same acceptance test on a
// -listen-workers daemon with no workers: every shard runs through the
// coordinator's local fallback, which must hold a slot billed to the
// job's tenant and class like any in-process shard.
func TestDistFallbackHonorsTenantPriority(t *testing.T) {
	testInteractiveBeatsBulk(t, true)
}

func testInteractiveBeatsBulk(t *testing.T, dist bool) {
	var mu sync.Mutex
	var order []string
	grants := func(class string) int {
		mu.Lock()
		defer mu.Unlock()
		n := 0
		for _, g := range order {
			if g == class {
				n++
			}
		}
		return n
	}

	// Bulk shards block while holding their slot until the test releases
	// them (or free-run opens). Interactive shards record and proceed.
	release := make(chan struct{}, 64)
	freeRun := make(chan struct{})
	reg := mustRegistry(t, tenant.Config{Tenants: []tenant.Policy{
		{Name: "batch", Key: "kb"},
		{Name: "live", Key: "kl"},
	}})
	var fallbacks atomic.Int32
	cfg := Config{
		Executors: 2, Tenants: reg, Dist: dist,
		// A one-configuration call is the interactive run job's; the
		// six-config sweep is the bulk one.
		SweepRunner: func(sw core.Sweep, rc core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error {
			inner := rc.Acquire
			if inner == nil {
				t.Error("job run config has no Acquire: its shards run outside the tenant gate")
				return errors.New("no Acquire")
			}
			if dist {
				// With no workers connected, every shard must come back
				// from the coordinator as local fallback.
				hook := rc.RunShard
				rc.RunShard = func(st core.ShardTask) (any, string, error) {
					out, origin, err := hook(st)
					if origin == "" {
						fallbacks.Add(1)
					}
					return out, origin, err
				}
			}
			if len(sw.Configs) == 1 {
				rc.Acquire = func() func() {
					rel := inner()
					mu.Lock()
					order = append(order, "live")
					mu.Unlock()
					return rel
				}
				return core.RunSweepStream(sw, rc, onConfig, progress)
			}
			rc.Acquire = func() func() {
				rel := inner()
				mu.Lock()
				order = append(order, "bulk")
				mu.Unlock()
				select {
				case <-release:
				case <-freeRun:
				}
				return rel
			}
			return core.RunSweepStream(sw, rc, onConfig, progress)
		},
	}
	s, ts := newTestServer(t, cfg)

	// The sweep's 4 scheduler workers contend for the 2 executor slots:
	// two bulk shards hold them (blocked on release), two wait in the gate.
	// sec5b draws from the seed, so each of the six seeds is its own shard
	// (a seed-free experiment's six seeds would share one).
	sweepSt, resp, _ := postAuth(t, ts, "/v1/sweeps",
		`{"ids":["sec5b"],"seeds":[1,2,3,4,5,6],"workers":4}`, "kb")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit: %d", resp.StatusCode)
	}
	waitUntil(t, "bulk shards to saturate the gate", func() bool {
		return grants("bulk") == 2 && s.gate.Waiting() == 2
	})

	// The interactive job's shard joins the wait queue behind them.
	liveSt, resp, _ := postAuth(t, ts, "/v1/jobs", `{"ids":["fig1"],"seed":9}`, "kl")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit: %d", resp.StatusCode)
	}
	waitUntil(t, "the interactive shard to queue on the gate", func() bool {
		return s.gate.Waiting() == 3
	})

	// Free one slot. Two bulk shards queued first, but the interactive
	// shard must be granted next.
	release <- struct{}{}
	waitUntil(t, "the freed slot to be regranted", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(order) >= 3
	})
	mu.Lock()
	third := order[2]
	mu.Unlock()
	if third != "live" {
		t.Fatalf("grant order %v: freed slot went to a bulk shard queued behind the interactive one", order)
	}

	// Open the floodgates and let both jobs drain.
	close(freeRun)
	if final := waitState(t, ts, liveSt.ID); final.State != StateDone {
		t.Fatalf("interactive job finished as %+v", final)
	}
	if final := waitState(t, ts, sweepSt.ID); final.State != StateDone {
		t.Fatalf("sweep finished as %+v", final)
	}
	if dist && fallbacks.Load() != 7 {
		t.Fatalf("%d shards ran through the coordinator's local fallback, want all 7", fallbacks.Load())
	}
}
