package tenant

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

func TestLoadFileRejectsUnknownFields(t *testing.T) {
	path := writeConfig(t, `{"tenants": [{"name": "a", "key": "k", "rate_limit": 5}]}`)
	if _, err := LoadFile(path); err == nil {
		t.Fatal("unknown field must be rejected (a typo'd limit defaults to unlimited otherwise)")
	}
}

// TestLoadFileRejectsBreaker: a config written for the retired circuit
// breaker fails to load, and the error names the file and the key.
func TestLoadFileRejectsBreaker(t *testing.T) {
	path := writeConfig(t, `{"anonymous": {"rate_rps": 2, "breaker": {"failure_ratio": 0.5}}}`)
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("a breaker key must be rejected")
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, `unknown field "breaker"`) {
		t.Fatalf("error %q does not name the file and the breaker key", msg)
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
	if rej.Reason != "rate" || rej.RetryAfter <= 0 {
		t.Fatalf("rate rejection = %+v, want rate with a Retry-After", rej)
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
	if rej := admit(); rej == nil || rej.Reason != "quota" {
		t.Fatalf("max_queued breach = %+v, want quota", rej)
	}
	tn.JobStarted() // queued 0, running 1
	if rej := admit(); rej != nil {
		t.Fatalf("admit under inflight cap: %+v", rej)
	}
	tn.JobQueued()
	tn.JobStarted() // running 2 = max_inflight
	if rej := admit(); rej == nil || rej.Reason != "quota" {
		t.Fatalf("max_inflight breach = %+v, want quota", rej)
	}
	tn.JobFinished()
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
