// Daemon-side shard memoization: the gated zen2eed_shard_cache_* metrics
// series appear only when the feature is on (the golden scrape pins the
// off-state bytes), and a second job overlapping the first's experiments
// reuses its shard outputs with byte-identical results.

package service

import (
	"net/http"
	"strings"
	"testing"
)

func TestShardCacheMetricsGated(t *testing.T) {
	series := []string{
		"zen2eed_shard_cache_hits_total",
		"zen2eed_shard_cache_misses_total",
		"zen2eed_shard_cache_bytes_total",
	}

	_, off := newTestServer(t, Config{})
	offText, _ := getBody(t, off.URL+"/metrics")
	for _, s := range series {
		if strings.Contains(offText, s) {
			t.Errorf("metrics expose %s with the shard cache off", s)
		}
	}

	s, on := newTestServer(t, Config{ShardCache: true})
	st, code := postJob(t, on, testSpecJSON)
	if code != http.StatusAccepted {
		t.Fatalf("POST returned %d", code)
	}
	if final := waitState(t, on, st.ID); final.State != StateDone {
		t.Fatalf("job finished as %+v", final)
	}
	onText, _ := getBody(t, on.URL+"/metrics")
	for _, name := range series {
		if !strings.Contains(onText, name) {
			t.Errorf("metrics missing %s with the shard cache on:\n%s", name, onText)
		}
	}
	if stats := s.shardCache.Stats(); stats.Misses == 0 {
		t.Fatalf("shard cache stats = %+v after a cold job, want recorded misses", stats)
	}
}

// TestShardCacheCrossJobReuse submits two distinct jobs sharing one
// experiment: the second job's shards for the shared experiment are served
// from the cache, and its payload is byte-identical to the same job run on
// a daemon without the cache.
func TestShardCacheCrossJobReuse(t *testing.T) {
	const broadSpec = `{"ids":["tab1","sec6acpi"],"scale":0.25,"seed":1}`
	const narrowSpec = `{"ids":["tab1"],"scale":0.25,"seed":1}`

	s, ts := newTestServer(t, Config{ShardCache: true})

	st, code := postJob(t, ts, broadSpec)
	if code != http.StatusAccepted {
		t.Fatalf("broad POST returned %d", code)
	}
	if final := waitState(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("broad job finished as %+v", final)
	}
	if stats := s.shardCache.Stats(); stats.Hits != 0 {
		t.Fatalf("cold job recorded %d hits, want 0", stats.Hits)
	}

	// A different spec — the job-level result cache cannot serve it — whose
	// every shard the shard cache has already seen.
	st2, code := postJob(t, ts, narrowSpec)
	if code != http.StatusAccepted {
		t.Fatalf("narrow POST returned %d (the job cache must not have served a distinct spec)", code)
	}
	if final := waitState(t, ts, st2.ID); final.State != StateDone {
		t.Fatalf("narrow job finished as %+v", final)
	}
	if stats := s.shardCache.Stats(); stats.Hits != 9 {
		t.Fatalf("narrow job over a warm cache recorded %d hits, want tab1's 9 shards", stats.Hits)
	}

	payload, code := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	_, control := newTestServer(t, Config{})
	cst, _ := postJob(t, control, narrowSpec)
	if final := waitState(t, control, cst.ID); final.State != StateDone {
		t.Fatalf("control job finished as %+v", final)
	}
	controlPayload, _ := getBody(t, control.URL+"/v1/jobs/"+cst.ID+"/result")
	if payload != controlPayload {
		t.Fatalf("cache-served job payload differs from an uncached daemon's (%d vs %d bytes)",
			len(payload), len(controlPayload))
	}
}

// TestShardCacheSharesSeedFreeAcrossSeeds: sec5a, fig4 and fig7 are
// seed-free, so a cold job for them at a new seed addresses the shards the
// first job stored and executes nothing, and its payload is byte-identical
// to the same job on a fresh daemon.
func TestShardCacheSharesSeedFreeAcrossSeeds(t *testing.T) {
	const first = `{"ids":["sec5a","fig4","fig7"],"scale":0.25,"seed":2}`
	const second = `{"ids":["sec5a","fig4","fig7"],"scale":0.25,"seed":3}`

	s, ts := newTestServer(t, Config{ShardCache: true})
	st, code := postJob(t, ts, first)
	if code != http.StatusAccepted {
		t.Fatalf("first POST returned %d", code)
	}
	if final := waitState(t, ts, st.ID); final.State != StateDone {
		t.Fatalf("first job finished as %+v", final)
	}
	cold := s.shardCache.Stats()
	if cold.Misses == 0 {
		t.Fatalf("first job recorded no misses: %+v", cold)
	}

	st2, code := postJob(t, ts, second)
	if code != http.StatusAccepted {
		t.Fatalf("second POST returned %d (a new seed is a new job)", code)
	}
	if final := waitState(t, ts, st2.ID); final.State != StateDone {
		t.Fatalf("second job finished as %+v", final)
	}
	warm := s.shardCache.Stats()
	if warm.Misses != cold.Misses {
		t.Fatalf("second job at a new seed recorded %d shard-cache misses, want 0", warm.Misses-cold.Misses)
	}
	if warm.Hits-cold.Hits != cold.Misses {
		t.Fatalf("second job recorded %d hits, want the %d shards the first job stored", warm.Hits-cold.Hits, cold.Misses)
	}

	payload, code := getBody(t, ts.URL+"/v1/jobs/"+st2.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result returned %d", code)
	}
	_, fresh := newTestServer(t, Config{})
	fst, _ := postJob(t, fresh, second)
	if final := waitState(t, fresh, fst.ID); final.State != StateDone {
		t.Fatalf("fresh daemon's job finished as %+v", final)
	}
	freshPayload, _ := getBody(t, fresh.URL+"/v1/jobs/"+fst.ID+"/result")
	if payload != freshPayload {
		t.Fatalf("cache-served job payload differs from a fresh daemon's (%d vs %d bytes)",
			len(payload), len(freshPayload))
	}
}
