package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	cases := []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"within bound", steady(100), steady(105), "lower", 0.1, "same"},
		{"exactly at the bound is the same", steady(100), steady(110), "lower", 0.1, "same"},
		{"past the bound", steady(100), steady(111), "lower", 0.1, "worse"},
		{"improved past the bound", steady(100), steady(89), "lower", 0.1, "better"},
		{"higher is better", steady(100), steady(89), "higher", 0.1, "worse"},
		{"higher is better, improved", steady(100), steady(120), "higher", 0.1, "better"},
		// Quartile spread (110-90)/100 = 0.2 equals the bound: resolved.
		{"spread exactly at the bound", []float64{90, 100, 110}, []float64{90, 100, 110}, "lower", 0.2, "same"},
		{"spread past the bound", []float64{80, 100, 120}, []float64{85, 101, 118}, "lower", 0.1, "unresolved"},
		{"wide but separated, worse", []float64{80, 100, 120}, []float64{130, 150, 170}, "lower", 0.1, "worse"},
		{"wide but separated, better", []float64{80, 100, 120}, []float64{30, 50, 70}, "lower", 0.1, "better"},
		{"zero bound, identical", steady(92), steady(92), "higher", 0, "same"},
		{"zero bound, one fewer", steady(92), steady(91), "higher", 0, "worse"},
		{"no runs", nil, steady(1), "lower", 0.1, "missing"},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: verdict = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestUnboundedVerdictJudgesOnlyConstantMetrics(t *testing.T) {
	if got := unboundedVerdict([]float64{0.5, 0.5}, []float64{0.5, 0.5}, "higher"); got != "same" {
		t.Errorf("identical deterministic metric: %q, want same", got)
	}
	if got := unboundedVerdict([]float64{35, 35}, []float64{36, 36}, "lower"); got != "worse" {
		t.Errorf("changed deterministic metric: %q, want worse", got)
	}
	if got := unboundedVerdict([]float64{92, 91, 92}, []float64{91, 92, 92}, "higher"); got != "same" {
		t.Errorf("seed-dependent metric over the same seeds: %q, want same", got)
	}
	if got := unboundedVerdict([]float64{1, 2}, []float64{1, 3}, "lower"); got != "-" {
		t.Errorf("noisy metric: %q, want -", got)
	}
}

func TestCompareRowsPerWorkloadAndMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(v float64, traced bool) *Result {
		r := &Result{Workload: "run-all", Traced: traced, Metrics: map[string]Metric{}}
		if traced {
			r.Metrics["core.shards_per_config"] = Metric{Value: 50}
			r.SelfMS = map[string]float64{"core": 900}
			r.CapacityMS = 1000
			return r
		}
		for _, m := range endToEnd {
			r.Metrics[m.Name] = Metric{Value: v}
		}
		r.Detail = map[string]Metric{"paper_checks_ok": {Value: 92}}
		return r
	}
	a := &resultFile{Runs: []*Result{run(10, false), run(10, false), run(10, true)}}
	b := &resultFile{Runs: []*Result{run(10.5, false), run(10.4, false), run(10, true)}}
	var out bytes.Buffer
	if err := compare(&out, spec, a, b); err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && f[0] == "run-all" {
			rows[f[1]] = f[len(f)-1]
		}
	}
	for _, m := range endToEnd {
		if rows[m.Name] != "same" {
			t.Errorf("%s: verdict %q, want same", m.Name, rows[m.Name])
		}
	}
	for name, want := range map[string]string{
		"paper_checks_ok": "same", "core.shards_per_config": "same",
		"core.plan_ms": "missing", "self.core": "-", "self.unowned": "-",
	} {
		if rows[name] != want {
			t.Errorf("%s: verdict %q, want %q", name, rows[name], want)
		}
	}
}
