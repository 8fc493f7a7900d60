package tenant

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func writeConfig(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

const testConfig = `{
  "tenants": [
    {"name": "alice", "key": "ka", "class": "interactive", "weight": 4, "rate_rps": 100, "max_inflight": 8},
    {"name": "bob", "key": "kb", "max_queued": 2}
  ],
  "anonymous": {"name": "anon"}
}`

func TestLoadFileAndAuthenticate(t *testing.T) {
	reg, err := LoadFile(writeConfig(t, testConfig))
	if err != nil {
		t.Fatal(err)
	}
	req := func(hdr, val string) *http.Request {
		r := httptest.NewRequest("POST", "/v1/jobs", nil)
		if hdr != "" {
			r.Header.Set(hdr, val)
		}
		return r
	}
	if tn, err := reg.Authenticate(req("Authorization", "Bearer ka")); err != nil || tn.Name() != "alice" {
		t.Fatalf("Bearer auth = %v, %v; want alice", tn, err)
	}
	if tn, err := reg.Authenticate(req("X-API-Key", "kb")); err != nil || tn.Name() != "bob" {
		t.Fatalf("X-API-Key auth = %v, %v; want bob", tn, err)
	}
	if tn, err := reg.Authenticate(req("", "")); err != nil || tn.Name() != "anon" {
		t.Fatalf("keyless auth = %v, %v; want anon", tn, err)
	}
	if _, err := reg.Authenticate(req("Authorization", "Bearer nope")); err == nil {
		t.Fatal("unknown key must be rejected, not mapped to anonymous")
	}
	names := []string{}
	for _, tn := range reg.Tenants() {
		names = append(names, tn.Name())
	}
	if len(names) != 3 || names[0] != "alice" || names[1] != "anon" || names[2] != "bob" {
		t.Fatalf("Tenants() order = %v, want sorted by name", names)
	}
}

func TestNoAnonymousRejectsKeyless(t *testing.T) {
	reg, err := NewRegistry(Config{Tenants: []Policy{{Name: "a", Key: "k"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Authenticate(httptest.NewRequest("POST", "/v1/jobs", nil)); err == nil {
		t.Fatal("keyless request must be rejected when no anonymous policy exists")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},
		{Tenants: []Policy{{Key: "k"}}},
		{Tenants: []Policy{{Name: "a"}}},
		{Tenants: []Policy{{Name: "a", Key: "k"}, {Name: "a", Key: "k2"}}},
		{Tenants: []Policy{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}}},
		{Tenants: []Policy{{Name: "a", Key: "k", Class: "urgent"}}},
		{Tenants: []Policy{{Name: "a", Key: "k", Weight: -1}}},
		{Anonymous: &Policy{Name: "x", Key: "boom"}},
		{Tenants: []Policy{{Name: "a", Key: "k", Breaker: &BreakerPolicy{FailureRatio: 1.5}}}},
		// A window past the bound would allocate its ring (4e12 slots
		// is out of memory); a cooldown past time.Duration would wrap
		// negative and open the breaker at once.
		{Anonymous: &Policy{Breaker: &BreakerPolicy{Window: maxBreakerWindow + 1, MinSamples: 1, FailureRatio: 0.5}}},
		{Anonymous: &Policy{Breaker: &BreakerPolicy{Window: 4000000000000, MinSamples: 1, FailureRatio: 0.5}}},
		{Anonymous: &Policy{Breaker: &BreakerPolicy{FailureRatio: 0.5, CooldownSeconds: 1e300}}},
		{Anonymous: &Policy{Breaker: &BreakerPolicy{FailureRatio: 0.5, CooldownSeconds: 9.3e9}}},
		// A subnormal rate would make the bucket's wait overflow
		// time.Duration.
		{Anonymous: &Policy{RateRPS: 1e-320}},
		{Anonymous: &Policy{RateRPS: minRateRPS / 2}},
	}
	for i, cfg := range bad {
		if _, err := NewRegistry(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

// TestBreakerBoundsAccepted: the largest window and a cooldown just
// inside time.Duration are valid.
func TestBreakerBoundsAccepted(t *testing.T) {
	b, err := NewBreaker(BreakerPolicy{Window: maxBreakerWindow, MinSamples: maxBreakerWindow, FailureRatio: 1, CooldownSeconds: 9.2e9})
	if err != nil {
		t.Fatal(err)
	}
	if b.window != maxBreakerWindow || b.cooldown <= 0 {
		t.Fatalf("breaker window %d cooldown %v", b.window, b.cooldown)
	}
}

func TestLoadFileRejectsUnknownFields(t *testing.T) {
	path := writeConfig(t, `{"tenants": [{"name": "a", "key": "k", "rate_limit": 5}]}`)
	if _, err := LoadFile(path); err == nil {
		t.Fatal("unknown field must be rejected (a typo'd limit defaults to unlimited otherwise)")
	}
}

func TestClassFor(t *testing.T) {
	reg, err := LoadFile(writeConfig(t, testConfig))
	if err != nil {
		t.Fatal(err)
	}
	alice, bob := reg.byKey["ka"], reg.byKey["kb"]
	if got := alice.ClassFor(true); got != ClassInteractive {
		t.Fatalf("pinned tenant sweep class = %v, want interactive", got)
	}
	if got := bob.ClassFor(true); got != ClassBulk {
		t.Fatalf("by-kind sweep class = %v, want bulk", got)
	}
	if got := bob.ClassFor(false); got != ClassInteractive {
		t.Fatalf("by-kind run class = %v, want interactive", got)
	}
}

func TestAdmitRateLimit(t *testing.T) {
	tn, err := newTenant(Policy{Name: "slow", RateRPS: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if rej := tn.Admit(); rej != nil {
		t.Fatalf("first submission rejected: %+v", rej)
	}
	rej := tn.Admit()
	if rej == nil {
		t.Fatal("second submission should exhaust the burst")
	}
	if rej.Status != http.StatusTooManyRequests || rej.Reason != "rate" || rej.RetryAfter <= 0 {
		t.Fatalf("rate rejection = %+v, want 429/rate with a Retry-After", rej)
	}
	u := tn.Usage()
	if u.Admitted != 1 || u.Rejected["rate"] != 1 {
		t.Fatalf("usage = %+v, want 1 admitted / 1 rate-rejected", u)
	}
}

func TestAdmitQuotas(t *testing.T) {
	tn, err := newTenant(Policy{Name: "q", MaxQueued: 1, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	admit := func() *Rejection { t.Helper(); return tn.Admit() }
	if rej := admit(); rej != nil {
		t.Fatalf("admit 1: %+v", rej)
	}
	tn.JobQueued()
	if rej := admit(); rej == nil || rej.Reason != "quota" || rej.Status != http.StatusTooManyRequests {
		t.Fatalf("max_queued breach = %+v, want 429/quota", rej)
	}
	tn.JobStarted() // queued 0, running 1
	if rej := admit(); rej != nil {
		t.Fatalf("admit under inflight cap: %+v", rej)
	}
	tn.JobQueued()
	tn.JobStarted() // running 2 = max_inflight
	if rej := admit(); rej == nil || rej.Reason != "quota" {
		t.Fatalf("max_inflight breach = %+v, want 429/quota", rej)
	}
	tn.JobFinished(false)
	if rej := admit(); rej != nil {
		t.Fatalf("admit after a job finished: %+v", rej)
	}
	u := tn.Usage()
	if u.Queued != 0 || u.Running != 1 || u.Rejected["quota"] != 2 {
		t.Fatalf("usage = %+v, want queued 0 / running 1 / 2 quota rejections", u)
	}
}

func TestBucketRefill(t *testing.T) {
	base := time.Unix(1000, 0)
	now := base
	b := NewBucket(2, 2) // 2 tokens/s, burst 2
	b.now = func() time.Time { return now }
	b.last = base
	b.tokens = 2
	for i := 0; i < 2; i++ {
		if ok, _ := b.Take(); !ok {
			t.Fatalf("burst token %d refused", i)
		}
	}
	ok, retry := b.Take()
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if want := 500 * time.Millisecond; retry != want {
		t.Fatalf("retryAfter = %v, want %v", retry, want)
	}
	now = now.Add(600 * time.Millisecond) // refills 1.2 tokens
	if ok, _ := b.Take(); !ok {
		t.Fatal("refilled bucket refused a token")
	}
	if ok, _ := b.Take(); ok {
		t.Fatal("0.2 tokens should not grant")
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b, err := NewBreaker(BreakerPolicy{Window: 4, MinSamples: 2, FailureRatio: 0.5, CooldownSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(5000, 0)
	b.now = func() time.Time { return now }

	b.Record(true)
	if ok, probe, _ := b.Allow(); !ok || probe {
		t.Fatal("closed breaker must allow without a probe")
	}
	b.Record(false)
	b.Record(false) // window [true,false,false]: ratio 2/3 >= 0.5 → open
	if b.State() != "open" {
		t.Fatalf("state = %s, want open", b.State())
	}
	ok, _, retry := b.Allow()
	if ok || retry != 10*time.Second {
		t.Fatalf("open breaker Allow = %v, %v; want shed with full cooldown", ok, retry)
	}

	now = now.Add(11 * time.Second)
	if ok, probe, _ := b.Allow(); !ok || !probe {
		t.Fatal("cooldown elapsed: the probe must be admitted and marked as such")
	}
	if b.State() != "half-open" {
		t.Fatalf("state = %s, want half-open", b.State())
	}
	if ok, _, _ := b.Allow(); ok {
		t.Fatal("only one probe may fly at a time")
	}
	b.Record(false) // probe failed → re-open
	if b.State() != "open" {
		t.Fatalf("state after failed probe = %s, want open", b.State())
	}

	now = now.Add(11 * time.Second)
	if ok, _, _ := b.Allow(); !ok {
		t.Fatal("second probe must be admitted")
	}
	b.Record(true) // probe succeeded → closed, window cleared
	if b.State() != "closed" {
		t.Fatalf("state after successful probe = %s, want closed", b.State())
	}
	b.Record(false) // 1 failure in a cleared window: below min_samples
	if b.State() != "closed" {
		t.Fatal("cleared window must not re-trip on one sample")
	}
}

// probeTenant builds a tenant whose breaker is open with its cooldown
// elapsed — the next Admit consumes the half-open probe — on a fake
// clock shared with the rate bucket when one is configured.
func probeTenant(t *testing.T, p Policy) (*Tenant, *time.Time) {
	t.Helper()
	p.Breaker = &BreakerPolicy{Window: 4, MinSamples: 2, FailureRatio: 1, CooldownSeconds: 10}
	tn, err := newTenant(p)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(9000, 0)
	tn.breaker.now = func() time.Time { return now }
	if tn.bucket != nil {
		tn.bucket.now = tn.breaker.now
		tn.bucket.last = now
	}
	tn.breaker.Record(false)
	tn.breaker.Record(false) // 2/2 failures ≥ ratio 1 → open
	if tn.breaker.State() != "open" {
		t.Fatalf("breaker state = %s, want open", tn.breaker.State())
	}
	now = now.Add(11 * time.Second) // cooldown elapsed: next Allow probes
	return tn, &now
}

func TestRateRejectionReturnsProbe(t *testing.T) {
	tn, now := probeTenant(t, Policy{Name: "p", RateRPS: 1, Burst: 1})
	tn.bucket.tokens, tn.bucket.last = 0, *now // retrying clients drained the bucket
	rej := tn.Admit()
	if rej == nil || rej.Reason != "rate" {
		t.Fatalf("rejection = %+v, want rate (the probe was granted, then rate-limited)", rej)
	}
	// The rate limiter ate the probe; without CancelProbe the breaker is
	// now stuck half-open with probing=true and sheds the tenant forever.
	tn.bucket.tokens = 1
	if rej := tn.Admit(); rej != nil {
		t.Fatalf("post-rejection Admit = %+v; the unconsumed probe must be returned", rej)
	}
	tn.JobQueued()
	tn.JobStarted()
	tn.JobFinished(false) // the real probe succeeds
	if got := tn.Usage().BreakerState; got != "closed" {
		t.Fatalf("breaker state = %s, want closed after the probe job succeeded", got)
	}
}

func TestQuotaRejectionReturnsProbe(t *testing.T) {
	tn, _ := probeTenant(t, Policy{Name: "p", MaxQueued: 1})
	tn.JobQueued() // a pre-incident job still occupies the queue quota
	if rej := tn.Admit(); rej == nil || rej.Reason != "quota" {
		t.Fatalf("rejection = %+v, want quota", rej)
	}
	tn.JobStarted() // quota clears
	if rej := tn.Admit(); rej != nil {
		t.Fatalf("post-rejection Admit = %+v; the unconsumed probe must be returned", rej)
	}
}

func TestCancelAdmitReturnsProbe(t *testing.T) {
	tn, _ := probeTenant(t, Policy{Name: "p"})
	if rej := tn.Admit(); rej != nil {
		t.Fatalf("probe admission rejected: %+v", rej)
	}
	// The daemon queue was full: the admission never became a job.
	tn.CancelAdmit()
	if rej := tn.Admit(); rej != nil {
		t.Fatalf("Admit after CancelAdmit = %+v; the probe must be available again", rej)
	}
}

func TestBreakerFeedsAdmit(t *testing.T) {
	tn, err := newTenant(Policy{Name: "flaky", Breaker: &BreakerPolicy{Window: 4, MinSamples: 2, FailureRatio: 1, CooldownSeconds: 60}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rej := tn.Admit(); rej != nil {
			t.Fatalf("admit %d: %+v", i, rej)
		}
		tn.JobQueued()
		tn.JobStarted()
		tn.JobFinished(true) // failure
	}
	rej := tn.Admit()
	if rej == nil || rej.Status != http.StatusServiceUnavailable || rej.Reason != "breaker" {
		t.Fatalf("rejection = %+v, want 503/breaker", rej)
	}
	if tn.Usage().BreakerState != "open" {
		t.Fatalf("breaker state = %s, want open", tn.Usage().BreakerState)
	}
}
