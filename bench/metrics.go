package main

import (
	"fmt"

	"zen2ee/internal/core"
)

// metricDef is a metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Metric is one reported number: its value as measured, its unit, and how
// many samples stand behind it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	// Beyond, on tail percentiles, counts the samples above the reported
	// value (the rule asks for at least minBeyond).
	Beyond int `json:"beyond,omitempty"`
}

// endToEnd are the metrics every untraced run reports, whatever its
// workload. Each workload gives them its own operation, and their times are
// adjusted to the reference host (pace.go): see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"latency_ms.p50", "ms", "lower"},
}

// detailDefs are the workload-specific end-to-end numbers an untraced run
// reports beside endToEnd, as measured on the host. They carry no
// regression bound; compare prints them for reading.
var detailDefs = defsByName([]metricDef{
	{"run_all_s.p50", "s", "lower"},
	{"run_all_s.p75", "s", "lower"},
	{"shards_per_s", "shards/s", "higher"},
	{"hit_ms.p50", "ms", "lower"},
	{"hit_ms.p99", "ms", "lower"},
	{"cold_ms.p50", "ms", "lower"},
	{"cold_ms.p95", "ms", "lower"},
	{"sweep_ms.p50", "ms", "lower"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"failed_frac", "fraction", "lower"},
	{"paper_checks_ok", "count", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"host.pace_ms", "ms", "lower"},
	{"host.steal_frac", "fraction", "lower"},
})

// perLayer are the metrics every traced run reports. A layer a workload
// does not reach reports 0 with no samples.
var perLayer = func() []metricDef {
	l := []metricDef{
		{"sim.ns_per_event", "ns", "lower"},
		{"sim.allocs_per_event", "count", "lower"},
		{"machine.us_per_advance", "us", "lower"},
		{"machine.allocs_per_advance", "count", "lower"},
	}
	for _, e := range core.Registry() {
		l = append(l, metricDef{"core.shard_ms." + e.ID, "ms", "lower"})
	}
	return append(l, []metricDef{
		{"core.longest_shard_ms", "ms", "lower"},
		{"core.idle_frac", "fraction", "lower"},
		{"core.queue_wait_ms.p50", "ms", "lower"},
		{"core.queue_wait_ms.p99", "ms", "lower"},
		{"core.plan_ms", "ms", "lower"},
		{"core.reduce_ms", "ms", "lower"},
		{"core.shards_per_config", "count", "lower"},
		{"report.marshal_ms", "ms", "lower"},
		{"report.doc_kb", "KB", "lower"},
		{"shardcache.hit_ratio", "fraction", "higher"},
		{"shardcache.hit_us.p50", "us", "lower"},
		{"store.get_us.p50", "us", "lower"},
		{"store.get_us.p99", "us", "lower"},
		{"store.put_us.p50", "us", "lower"},
		{"store.put_us.p99", "us", "lower"},
		{"service.submit_ms.p50", "ms", "lower"},
		{"service.events_ms.p50", "ms", "lower"},
		{"service.result_ms.p50", "ms", "lower"},
		{"service.queue_ms.p50", "ms", "lower"},
		{"service.run_ms.p50", "ms", "lower"},
		{"service.marshal_ms.p50", "ms", "lower"},
		{"service.cache_hit_ratio", "fraction", "higher"},
		{"host.pace_ms", "ms", "lower"},
		{"host.trace_overhead_frac", "fraction", "lower"},
	}...)
}()

// layers names the modules self time is attributed to, in stack order.
var layers = []string{"core", "report", "shardcache"}

// defsByName indexes metric definitions for lookups by name.
func defsByName(lists ...[]metricDef) map[string]metricDef {
	out := map[string]metricDef{}
	for _, l := range lists {
		for _, d := range l {
			out[d.Name] = d
		}
	}
	return out
}

// fill completes a metric set against its definitions: every defined name
// is present (0 with no samples when unmeasured), units come from the
// definition, and names outside the definitions are an error.
func fill(got map[string]Metric, defs []metricDef) (map[string]Metric, error) {
	byName := defsByName(defs)
	for name := range got {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("bench: metric %q is not defined", name)
		}
	}
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m := got[d.Name]
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out, nil
}
