package core

import (
	"math"
	"strings"
	"testing"
)

func quick() Options { return Options{Scale: 0.3, Seed: 1} }

// runExp runs one experiment and fails the test on any comparison that
// deviates from the paper beyond its tolerance.
func runExp(t *testing.T, id string) *Result {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	r, err := serialRun(e, quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	for _, c := range r.Comparisons {
		if !c.OK() {
			t.Errorf("%s: %q paper %.4g measured %.4g (%+.1f%%, tol ±%.0f%%)",
				id, c.Name, c.Paper, c.Measured, 100*c.Deviation(), 100*c.RelTol)
		}
	}
	return r
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig1", "sec5a", "fig3", "sec5b", "tab1", "fig4",
		"fig5a", "fig5b", "fig6", "fig7", "sec6acpi", "sec6b", "fig8",
		"sec7u", "fig9", "fig10", "sec7b", "extboost", "ext7742"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, id := range want {
		if reg[i].ID != id {
			t.Errorf("registry[%d] = %s, want %s (paper order)", i, reg[i].ID, id)
		}
		if reg[i].Bench == "" || reg[i].Title == "" || reg[i].PaperRef == "" {
			t.Errorf("%s: incomplete metadata", reg[i].ID)
		}
	}
	if _, err := ByID("nonexistent"); err == nil {
		t.Error("ByID accepted an unknown experiment")
	}
}

func TestFig1(t *testing.T) {
	r := runExp(t, "fig1")
	rome, _ := r.Metric("rome_median")
	intel, _ := r.Metric("best_intel_median")
	if rome <= intel {
		t.Fatalf("Rome median %.2f not ahead of Intel %.2f", rome, intel)
	}
}

func TestSec5AIdleSibling(t *testing.T) {
	r := runExp(t, "sec5a")
	if v, _ := r.Metric("idle_sibling_ghz"); math.Abs(v-2.5) > 0.01 {
		t.Fatalf("idle sibling elevation %.3f GHz", v)
	}
	if v, _ := r.Metric("sibling_cycles_per_s"); v >= 60000 {
		t.Fatalf("idling thread reports %.0f cycle/s, paper bound is 60000", v)
	}
}

func TestFig3TransitionDistribution(t *testing.T) {
	r := runExp(t, "fig3")
	lo, _ := r.Metric("min_us")
	hi, _ := r.Metric("max_us")
	if lo < 380 || lo > 420 {
		t.Errorf("min delay %.0f µs, want ~390", lo)
	}
	if hi < 1340 || hi > 1400 {
		t.Errorf("max delay %.0f µs, want ~1390", hi)
	}
	// Uniformity: mean of U(390, 1390) is 890.
	if m, _ := r.Metric("mean_us"); math.Abs(m-890) > 40 {
		t.Errorf("mean %.0f µs, uniform distribution should center at 890", m)
	}
	delays := r.Series["delays_us"]
	if len(delays) < 100 {
		t.Fatalf("only %d samples", len(delays))
	}
}

func TestSec5BFastReturn(t *testing.T) {
	r := runExp(t, "sec5b")
	if v, _ := r.Metric("min_up_us"); v > 2 {
		t.Errorf("fastest up-return %.1f µs, want ~1 (instantaneous)", v)
	}
	if v, _ := r.Metric("min_down_us"); v >= 390 || v < 100 {
		t.Errorf("fastest down-return %.1f µs, want in [160, 390)", v)
	}
	if v, _ := r.Metric("min_up_slow_us"); v < 300 {
		t.Errorf("with ≥5 ms waits the up-return is still fast: %.1f µs", v)
	}
	if v, _ := r.Metric("fast_up_fraction"); v == 0 {
		t.Error("no instantaneous up-returns observed")
	}
}

func TestTable1(t *testing.T) {
	r := runExp(t, "tab1")
	// The headline cell: 2.2 GHz set, others 2.5 → 2.0 GHz applied.
	if v, _ := r.Metric("set2200_others2500"); math.Abs(v-2.0) > 0.02 {
		t.Fatalf("2.2|2.5 cell: %.3f GHz, want 2.000", v)
	}
	// 2.5 GHz rows unaffected.
	if v, _ := r.Metric("set2500_others1500"); math.Abs(v-2.5) > 0.01 {
		t.Fatalf("2.5|1.5 cell: %.3f GHz", v)
	}
}

func TestFig4L3Latency(t *testing.T) {
	r := runExp(t, "fig4")
	// Key inversion: a 1.5 GHz reader gets *faster* L3 when others clock up.
	slow, _ := r.Metric("reader1500_others1500_ns")
	fast, _ := r.Metric("reader1500_others2500_ns")
	if fast >= slow {
		t.Fatalf("L3 latency did not improve: %.1f vs %.1f ns", fast, slow)
	}
}

func TestFig5Matrices(t *testing.T) {
	ra := runExp(t, "fig5a")
	if v, _ := ra.Metric("worst_rel_dev"); v > 0.02 {
		t.Fatalf("bandwidth matrix deviates up to %.1f%%", v*100)
	}
	rb := runExp(t, "fig5b")
	auto, _ := rb.Metric("lat_auto_1467")
	p0, _ := rb.Metric("lat_P0_1467")
	if auto >= p0 {
		t.Fatalf("auto (%v ns) must beat P0 (%v ns)", auto, p0)
	}
}

func TestFig6Firestarter(t *testing.T) {
	r := runExp(t, "fig6")
	smt, _ := r.Metric("smt_freq_ghz")
	nosmt, _ := r.Metric("nosmt_freq_ghz")
	if smt >= nosmt {
		t.Fatalf("SMT (%.3f GHz) must throttle below no-SMT (%.3f GHz)", smt, nosmt)
	}
	rapl, _ := r.Metric("smt_rapl_pkg_watts")
	if rapl >= 180 {
		t.Fatalf("RAPL package %.0f W must stay below the 180 W TDP", rapl)
	}
	sSMT, _ := r.Metric("smt_freq_std_mhz")
	sNo, _ := r.Metric("nosmt_freq_std_mhz")
	if sNo > sSMT+1e-9 && sNo > 3 {
		t.Fatalf("no-SMT jitter (%.2f MHz) should not exceed SMT jitter (%.2f)", sNo, sSMT)
	}
}

func TestFig7IdlePower(t *testing.T) {
	r := runExp(t, "fig7")
	c1 := r.Series["c1_watts"]
	if len(c1) != 128 {
		t.Fatalf("C1 series length %d", len(c1))
	}
	// Monotone non-decreasing.
	for i := 1; i < len(c1); i++ {
		if c1[i] < c1[i-1]-1e-9 {
			t.Fatalf("C1 series decreases at %d", i)
		}
	}
	// Frequency independence of C1 vs dependence of active.
	lo, _ := r.Metric("active64_1500_watts")
	hi, _ := r.Metric("active64_2500_watts")
	if hi-lo < 5 {
		t.Fatalf("active power barely depends on frequency: Δ %.1f W", hi-lo)
	}
}

func TestSec6BOfflineAnomaly(t *testing.T) {
	r := runExp(t, "sec6b")
	off, _ := r.Metric("offline_watts")
	floor, _ := r.Metric("floor_watts")
	restored, _ := r.Metric("restored_watts")
	if off-floor < 80 {
		t.Fatalf("offline anomaly adds only %.1f W", off-floor)
	}
	if math.Abs(restored-floor) > 0.1 {
		t.Fatalf("re-onlining left %.1f W vs floor %.1f", restored, floor)
	}
}

func TestFig8Wakeups(t *testing.T) {
	r := runExp(t, "fig8")
	c1lo, _ := r.Metric("C1_1500_local_median_us")
	c1hi, _ := r.Metric("C1_2500_local_median_us")
	if c1lo <= c1hi {
		t.Fatalf("C1 wake not frequency-dependent: %.2f vs %.2f µs", c1lo, c1hi)
	}
	c2, _ := r.Metric("C2_2500_local_median_us")
	if c2 < 20 || c2 > 25 {
		t.Fatalf("C2 wake %.1f µs outside the paper's 20–25 µs", c2)
	}
}

func TestSec7URAPLUpdateRate(t *testing.T) {
	r := runExp(t, "sec7u")
	if v, _ := r.Metric("update_interval_ms"); math.Abs(v-1.0) > 0.05 {
		t.Fatalf("update interval %.3f ms, want 1.000", v)
	}
}

func TestFig9RAPLQuality(t *testing.T) {
	r := runExp(t, "fig9")
	if v, _ := r.Metric("all_pkg_below_ac"); v != 1 {
		t.Fatal("a RAPL package reading met or exceeded the AC reference")
	}
	mem, _ := r.Metric("mem_pkg_over_ac")
	cmp, _ := r.Metric("compute_pkg_over_ac")
	if cmp-mem < 0.15 {
		t.Fatalf("memory workloads not under-reported: compute ratio %.2f vs memory %.2f", cmp, mem)
	}
}

func TestFig10Hamming(t *testing.T) {
	r := runExp(t, "fig10")
	if v, _ := r.Metric("ac_overlap"); v > 0.01 {
		t.Fatalf("AC distributions overlap (%.2f) — paper: no overlap", v)
	}
	if v, _ := r.Metric("rapl_core_overlap"); v < 0.3 {
		t.Fatalf("RAPL distributions too well separated (overlap %.2f) — RAPL must not reflect operand data", v)
	}
	swing, _ := r.Metric("ac_swing_watts")
	if math.Abs(swing-21) > 2.5 {
		t.Fatalf("AC swing %.1f W, want ~21", swing)
	}
}

func TestSec7BShr(t *testing.T) {
	r := runExp(t, "sec7b")
	if v, _ := r.Metric("ac_rel_diff"); v > 0.009 {
		t.Fatalf("shr AC difference %.3f%%, paper bound 0.9%%", v*100)
	}
}

func TestResultTableRendering(t *testing.T) {
	r := newResult()
	r.ID, r.Title, r.PaperRef = "x", "Title", "Ref"
	r.Columns = []string{"a", "bb"}
	r.addRow("1", "2")
	r.compare("metric", "W", 10, 10.5, 0.1)
	r.note("hello")
	s := r.Table()
	for _, want := range []string{"x — Title (Ref)", "a", "bb", "note: hello", "OK", "+5.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("table missing %q:\n%s", want, s)
		}
	}
}

func TestComparisonEdgeCases(t *testing.T) {
	c := Comparison{Paper: 0, Measured: 0, RelTol: 0}
	if !c.OK() {
		t.Error("0 vs 0 should be OK")
	}
	c2 := Comparison{Paper: 0, Measured: 1, RelTol: 0.5}
	if c2.OK() {
		t.Error("0 vs 1 without an absolute tolerance should fail")
	}
	// Zero paper values fall back to the absolute tolerance: a relative
	// tolerance can never be met (the deviation is ±Inf).
	c3 := Comparison{Paper: 0, Measured: 0.005, RelTol: 0.5, AbsTol: 0.01}
	if !c3.OK() {
		t.Error("0 vs 0.005 within AbsTol 0.01 should be OK")
	}
	c4 := Comparison{Paper: 0, Measured: -0.02, AbsTol: 0.01}
	if c4.OK() {
		t.Error("0 vs -0.02 outside AbsTol 0.01 should fail")
	}
	// Tables must not render "+Inf%" for zero-paper comparisons.
	if cell := c2.DeviationCell(); strings.Contains(cell, "Inf") {
		t.Errorf("deviation cell leaks Inf: %q", cell)
	}
	if cell := c3.DeviationCell(); !strings.Contains(cell, "Δ") {
		t.Errorf("zero-paper deviation should render as absolute delta, got %q", cell)
	}
	if cell := (Comparison{Paper: 10, Measured: 10.5}).DeviationCell(); cell != "+5.0%" {
		t.Errorf("relative deviation cell %q, want +5.0%%", cell)
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the full suite is covered by per-experiment tests")
	}
	results, err := RunIDsConfig(nil, Options{Scale: 0.1, Seed: 2}, RunConfig{Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(Registry()) {
		t.Fatalf("%d results", len(results))
	}
	for _, r := range results {
		if r.Table() == "" {
			t.Errorf("%s: empty table", r.ID)
		}
	}
}

func TestDeterministicResults(t *testing.T) {
	e, _ := ByID("fig3")
	r1, err := serialRun(e, Options{Scale: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := serialRun(e, Options{Scale: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a, b := r1.Series["delays_us"], r2.Series["delays_us"]
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different delays")
		}
	}
}
