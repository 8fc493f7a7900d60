package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/tenant"
)

// referenceStatus renders job id's status both ways: through writeJSON,
// which has encoding/json validate, compact and re-indent the embedded
// document (the reference encoder), and through writeStatus, which
// splices the stored bytes. Code, headers and body must match; it returns
// the reference body.
func referenceStatus(t *testing.T, s *Server, id string) (Status, []byte) {
	t.Helper()
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		t.Fatalf("job %s is not in the job table", id)
	}
	st := s.statusOf(j, true)
	if len(st.Results) == 0 {
		t.Fatalf("job %s: status embeds no document", id)
	}
	ref, got := httptest.NewRecorder(), httptest.NewRecorder()
	writeJSON(ref, http.StatusOK, st)
	writeStatus(got, http.StatusOK, st)
	if got.Code != ref.Code || !reflect.DeepEqual(got.Header(), ref.Header()) {
		t.Fatalf("job %s: writeStatus answered %d %v, writeJSON %d %v", id, got.Code, got.Header(), ref.Code, ref.Header())
	}
	if !bytes.Equal(got.Body.Bytes(), ref.Body.Bytes()) {
		t.Fatalf("job %s: spliced status differs from the encoder's (%d vs %d bytes)", id, got.Body.Len(), ref.Body.Len())
	}
	return st, ref.Body.Bytes()
}

// checkStatusPaths compares the daemon's own status answers for a done
// job with the reference: GET /v1/jobs/{id} and a resubmission's 200 hit.
func checkStatusPaths(t *testing.T, ts *httptest.Server, path, spec, key, id string, want []byte) {
	t.Helper()
	body, code := getBody(t, ts.URL+"/v1/jobs/"+id)
	if code != http.StatusOK || body != string(want) {
		t.Fatalf("GET status of %s: %d, body differs from the reference: %t", id, code, body != string(want))
	}
	st, resp, body := postAuth(t, ts, path, spec, key)
	if resp.StatusCode != http.StatusOK || st.ID != id || body != string(want) {
		t.Fatalf("resubmitting %s: %d (job %s), body differs from the reference: %t", spec, resp.StatusCode, st.ID, body != string(want))
	}
}

// runDone submits spec, waits for it, and checks it finished.
func runDone(t *testing.T, ts *httptest.Server, path, spec, key string) string {
	t.Helper()
	st, resp, body := postAuth(t, ts, path, spec, key)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submitting %s: %d %s", spec, resp.StatusCode, body)
	}
	if done := waitState(t, ts, st.ID); done.State != StateDone {
		t.Fatalf("%s ended %s: %s", spec, done.State, done.Error)
	}
	return st.ID
}

// TestStatusSpliceMatchesEncoder is the byte-identity gate of the status
// paths: for done run and sweep jobs, executed and materialized from the
// store, untenanted and tenanted, writeStatus writes what writeJSON wrote
// before it, and the daemon's status and hit responses are those bytes.
func TestStatusSpliceMatchesEncoder(t *testing.T) {
	t.Run("every experiment at scale 1", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		for _, e := range core.Registry() {
			spec := fmt.Sprintf(`{"ids":[%q],"scale":1,"seed":1}`, e.ID)
			id := runDone(t, ts, "/v1/jobs", spec, "")
			st, want := referenceStatus(t, s, id)
			if st.Latency == nil {
				t.Fatalf("%s: an executed job's status carries no latency", e.ID)
			}
			checkStatusPaths(t, ts, "/v1/jobs", spec, "", id, want)
		}
	})
	t.Run("full suite at scale 0.3", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		const spec = `{"scale":0.3,"seed":1}`
		id := runDone(t, ts, "/v1/jobs", spec, "")
		_, want := referenceStatus(t, s, id)
		checkStatusPaths(t, ts, "/v1/jobs", spec, "", id, want)
	})
	t.Run("materialized from the store", func(t *testing.T) {
		s, ts := newTestServer(t, Config{JobHistory: 1})
		runDone(t, ts, "/v1/jobs", testSpecJSON, "")
		// A second job evicts the first from the job table; its document
		// stays in the store.
		runDone(t, ts, "/v1/jobs", `{"ids":["fig1"],"scale":0.2,"seed":1}`, "")
		st, resp, body := postAuth(t, ts, "/v1/jobs", testSpecJSON, "")
		if resp.StatusCode != http.StatusOK || !st.Cached {
			t.Fatalf("resubmitting an evicted job: %d, cached %t", resp.StatusCode, st.Cached)
		}
		got, want := referenceStatus(t, s, st.ID)
		if !got.Cached || got.Latency != nil {
			t.Fatalf("materialized status: cached %t, latency %v", got.Cached, got.Latency)
		}
		if body != string(want) {
			t.Fatal("the materializing submit's body differs from the reference")
		}
		checkStatusPaths(t, ts, "/v1/jobs", testSpecJSON, "", st.ID, want)
	})
	t.Run("tenanted", func(t *testing.T) {
		reg := mustRegistry(t, tenant.Config{Tenants: []tenant.Policy{{Name: "lab", Key: "kl"}}})
		s, ts := newTestServer(t, Config{Tenants: reg})
		id := runDone(t, ts, "/v1/jobs", testSpecJSON, "kl")
		st, want := referenceStatus(t, s, id)
		if st.Tenant != "lab" {
			t.Fatalf("tenanted status names tenant %q", st.Tenant)
		}
		checkStatusPaths(t, ts, "/v1/jobs", testSpecJSON, "kl", id, want)
	})
	t.Run("done sweep", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		const spec = `{"ids":["fig1","sec5a"],"scales":[0.2,0.3],"seeds":[1,2]}`
		id := runDone(t, ts, "/v1/sweeps", spec, "")
		st, want := referenceStatus(t, s, id)
		if st.Kind != KindSweep {
			t.Fatalf("sweep job has kind %s", st.Kind)
		}
		checkStatusPaths(t, ts, "/v1/sweeps", spec, "", id, want)
	})
}
