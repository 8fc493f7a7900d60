package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"zen2ee/internal/shardcache"
)

// The identities a fresh coordinator assigns to its first worker and its
// first task; the seed corpus addresses completions to them.
const (
	fuzzWorker = "w001"
	fuzzTask   = "t000001"
)

// FuzzCompleteRequest feeds arbitrary bytes to the coordinator's
// completion path while one task is leased: once as the whole body of
// POST /dist/v1/complete, and once as the Output of a well-addressed
// completion. The handler must not panic and must answer only 200, 400,
// 404, 410 or 413; an output must fail its shard exactly when it does not
// decode; and the leased task must end with an output or an error. The
// seed corpus is in testdata/fuzz/FuzzCompleteRequest, plus one seed built
// here: the encoding of a 512-element series, an output as large as the
// bigger experiments' shards return.
func FuzzCompleteRequest(f *testing.F) {
	series := make([]float64, 512)
	for i := range series {
		series[i] = float64(i%7) / 3
	}
	enc, err := shardcache.EncodeOutput(series)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)

	f.Fuzz(func(t *testing.T, data []byte) {
		completeLeased(t, data)
		body, err := json.Marshal(completeRequest{
			WorkerID: fuzzWorker, TaskID: fuzzTask, Output: data, DurNS: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		status, o := completeLeased(t, body)
		if status != http.StatusOK {
			t.Fatalf("well-addressed completion answered %d", status)
		}
		_, decErr := shardcache.DecodeOutput(data)
		if (o.err != nil) != (decErr != nil) {
			t.Fatalf("shard error %v, decode error %v: want both or neither", o.err, decErr)
		}
	})
}

// completeLeased leases one task from a fresh coordinator to fuzzWorker,
// posts body as its completion, and returns the status and the task's
// outcome. A rejected completion leaves the lease standing, so a valid
// completion then ends the task and must deliver its output.
func completeLeased(t *testing.T, body []byte) (int, shardOutcome) {
	t.Helper()
	c := NewCoordinator(Config{})
	defer c.Close()
	h := c.StartRun(nil)
	defer h.Finish()
	srv := c.Handler()
	post := func(path string, body []byte) (int, []byte) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	postJSON := func(path string, req, resp any) {
		b, _ := json.Marshal(req)
		status, out := post(path, b)
		if status != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, status, out)
		}
		if err := json.Unmarshal(out, resp); err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
	}

	var reg registerResponse
	postJSON("/dist/v1/register", registerRequest{Name: "fuzz", Slots: 1}, &reg)
	ch := runShardAsync(h, shardTask(0, 0, nil))
	deadline := time.Now().Add(10 * time.Second)
	var lease leaseResponse
	for len(lease.Tasks) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no task leased")
		}
		postJSON("/dist/v1/lease", leaseRequest{WorkerID: reg.WorkerID, WaitMillis: 100}, &lease)
	}
	if reg.WorkerID != fuzzWorker || lease.Tasks[0].ID != fuzzTask {
		t.Fatalf("leased %s to %s, want %s to %s", lease.Tasks[0].ID, reg.WorkerID, fuzzTask, fuzzWorker)
	}

	status, _ := post("/dist/v1/complete", body)
	switch status {
	case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusGone, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("complete answered %d", status)
	}
	if status == http.StatusOK {
		return status, waitOutcome(t, ch)
	}
	enc, err := shardcache.EncodeOutput(1.5)
	if err != nil {
		t.Fatal(err)
	}
	var done completeResponse
	postJSON("/dist/v1/complete", completeRequest{WorkerID: fuzzWorker, TaskID: fuzzTask, Output: enc, DurNS: 1}, &done)
	if o := waitOutcome(t, ch); o.err != nil || o.out != 1.5 {
		t.Fatalf("after a rejected completion (%d), a valid one ended the task with %+v", status, o)
	}
	return status, shardOutcome{}
}
