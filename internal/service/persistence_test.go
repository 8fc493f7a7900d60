// The persistent store tier through the daemon: results evicted from the
// in-memory tier resurrect from disk instead of answering 410 Gone or
// re-running, and a daemon restarted over a warm store directory serves
// previously computed configurations without executing anything. Both
// tests count runner invocations — the contract is "no re-execution",
// not just "right bytes".

package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
	"zen2ee/internal/store"
)

// countingConfig wires a counting runner into cfg and returns the
// counters: one-configuration calls (run jobs) count as runs, wider calls
// as sweep runs.
func countingConfig(cfg Config) (Config, *atomic.Int32, *atomic.Int32) {
	runs, sweepRuns := &atomic.Int32{}, &atomic.Int32{}
	cfg.SweepRunner = func(sw core.Sweep, rc core.RunConfig, onConfig core.ReduceConfig, progress func(core.Progress)) error {
		if len(sw.Configs) == 1 {
			runs.Add(1)
		} else {
			sweepRuns.Add(1)
		}
		return core.RunSweepStream(sw, rc, onConfig, progress)
	}
	return cfg, runs, sweepRuns
}

func newTieredStore(t *testing.T, dir string, memEntries int) *store.Tiered {
	t.Helper()
	disk, err := store.NewDisk(dir, 0)
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	return store.NewTiered(store.NewMemory(memEntries, 0), disk)
}

func TestDiskTierResurrectsEvictedSweepSections(t *testing.T) {
	// A single-entry memory tier cannot hold both sweep sections at once:
	// by the time the sweep finishes, at least one section lives only on
	// disk. Serving the document must pull the evicted sections back
	// through the disk tier — a memory-only daemon answers 410 here.
	const sweepSpec = `{"ids":["fig1"],"seeds":[1,2]}`

	_, tsCold := newTestServer(t, Config{Store: store.NewMemory(1, 0)})
	coldSt, code := postSweep(t, tsCold, sweepSpec)
	if code != http.StatusAccepted {
		t.Fatalf("memory-only sweep submit: %d", code)
	}
	waitState(t, tsCold, coldSt.ID)
	if _, code := getBody(t, tsCold.URL+"/v1/jobs/"+coldSt.ID+"/result"); code != http.StatusGone {
		t.Fatalf("memory-only sweep with evicted sections: %d, want 410", code)
	}

	tiered := newTieredStore(t, t.TempDir(), 1)
	cfg, _, sweepRuns := countingConfig(Config{Store: tiered})
	_, ts := newTestServer(t, cfg)
	st, code := postSweep(t, ts, sweepSpec)
	if code != http.StatusAccepted {
		t.Fatalf("tiered sweep submit: %d", code)
	}
	if final := waitState(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("sweep finished as %+v", final)
	}
	payload, code := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("tiered sweep result: %d, want 200 (disk must resurrect evicted sections)", code)
	}
	if sweepRuns.Load() != 1 {
		t.Fatalf("sweep ran %d times, want 1 (resurrection must not re-execute)", sweepRuns.Load())
	}

	// Byte-identical sections against the standalone computation — the
	// tier shuffle cannot touch payload bytes.
	doc, err := report.UnmarshalSweep([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Configs) != 2 {
		t.Fatalf("sweep document has %d sections, want 2", len(doc.Configs))
	}
	for _, section := range doc.Configs {
		results, err := core.RunIDsConfig([]string{"fig1"}, section.Config, core.RunConfig{Workers: 1}, nil)
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
			t.Errorf("config %+v: disk-resurrected section differs from standalone run bytes", section.Config)
		}
	}

	if hits := tiered.DiskTier().Stats().Hits; hits == 0 {
		t.Fatal("disk tier recorded no hits; sections were not served from disk")
	}
	metricsText, _ := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "zen2eed_store_disk_entries") {
		t.Errorf("disk series missing from metrics:\n%s", metricsText)
	}
}

func TestColdRestartServesWarmResultsWithoutReexecution(t *testing.T) {
	dir := t.TempDir()
	const jobSpec = `{"ids":["fig1"],"scale":0.2,"seed":7}`

	// First daemon lifetime: compute, then shut down cleanly (Close
	// flushes and closes the store, releasing the directory).
	cfg1, runs1, _ := countingConfig(Config{Store: newTieredStore(t, dir, 256)})
	s1 := New(cfg1)
	ts1 := httptest.NewServer(s1)
	st1, code := postJob(t, ts1, jobSpec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	waitState(t, ts1, st1.ID)
	payload1, _ := getBody(t, ts1.URL+"/v1/jobs/"+st1.ID+"/result")
	ts1.Close()
	s1.Close()
	if runs1.Load() != 1 {
		t.Fatalf("first daemon ran %d times, want 1", runs1.Load())
	}

	// Second daemon lifetime over the same directory: the spec must be a
	// cache hit served from disk — same content address, same bytes, zero
	// executions — even though no job history carried over.
	cfg2, runs2, _ := countingConfig(Config{Store: newTieredStore(t, dir, 256)})
	_, ts2 := newTestServer(t, cfg2)
	st2, code := postJob(t, ts2, jobSpec)
	if code != http.StatusOK {
		t.Fatalf("restart submit: %d, want 200 (warm disk state)", code)
	}
	if st2.State != StateDone || !st2.Cached {
		t.Fatalf("restart submit status %+v, want a cached done job", st2)
	}
	payload2, code := getBody(t, ts2.URL+"/v1/jobs/"+st2.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("restart result: %d", code)
	}
	if payload2 != payload1 {
		t.Fatal("restarted daemon served different bytes for the same spec")
	}
	if runs2.Load() != 0 {
		t.Fatalf("restarted daemon executed %d runs, want 0", runs2.Load())
	}
}
