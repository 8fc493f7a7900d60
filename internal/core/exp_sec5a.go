package core

import (
	"zen2ee/internal/osmodel"
	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

func init() {
	register(whole(Experiment{
		ID:       "sec5a",
		Title:    "Idling hardware threads elevate core frequency",
		PaperRef: "§V-A",
		Bench:    "BenchmarkSec5AIdleSibling",
	}, runSec5A))
}

// runSec5A reproduces the §V-A protocol: a constant workload (while(1);)
// runs on one thread at the minimum frequency while its sibling — first
// idle, then offline — requests the nominal frequency. The active thread's
// frequency is monitored with perf.
func runSec5A(o Options) (*Result, error) {
	r := newResult("sec5a", "Idling hardware threads elevate core frequency", "§V-A")
	r.Columns = []string{"sibling state", "sibling request", "measured freq [GHz]", "sibling cycles/s"}

	m := testSystem(o)
	const worker, sibling = 0, 64 // SMT pair of core 0

	if err := m.SetThreadFrequencyMHz(worker, 1500); err != nil {
		return nil, err
	}
	if _, err := m.StartKernel(worker, workload.Busywait, 0); err != nil {
		return nil, err
	}
	m.Eng.RunFor(20 * sim.Millisecond)

	intervals := o.scaled(5)
	sample := func() (float64, float64) {
		s := osmodel.PerfStat(m, worker, 200*sim.Millisecond, intervals)
		sibBefore := m.ReadCounters(sibling)
		m.Eng.RunFor(200 * sim.Millisecond)
		sibAfter := m.ReadCounters(sibling)
		sibRate := (sibAfter.Cycles - sibBefore.Cycles) / 0.2
		return osmodel.MeanFrequencyGHz(s), sibRate
	}

	// Baseline: sibling idle, also requesting the minimum.
	if err := m.SetThreadFrequencyMHz(sibling, 1500); err != nil {
		return nil, err
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	base, _ := sample()
	r.addRow("idle (C2)", "1.5 GHz", fmtGHzVal(base), "0")

	// Sibling idle but requesting nominal: the core follows the idler.
	if err := m.SetThreadFrequencyMHz(sibling, 2500); err != nil {
		return nil, err
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	idleElev, sibCycles := sample()
	r.addRow("idle (C2)", "2.5 GHz", fmtGHzVal(idleElev), fmtW(sibCycles))

	// Sibling offline: the offline thread's request still defines the core.
	if err := m.SetOnline(sibling, false); err != nil {
		return nil, err
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	offElev, _ := sample()
	r.addRow("offline", "2.5 GHz", fmtGHzVal(offElev), "0")

	r.Metrics["baseline_ghz"] = base
	r.Metrics["idle_sibling_ghz"] = idleElev
	r.Metrics["offline_sibling_ghz"] = offElev
	r.Metrics["sibling_cycles_per_s"] = sibCycles

	r.compare("worker at own request (baseline)", "GHz", 1.5, base, 0.01)
	r.compare("idle sibling elevates worker", "GHz", 2.5, idleElev, 0.01)
	r.compare("offline sibling still elevates worker", "GHz", 2.5, offElev, 0.01)
	r.compare("idling thread cycle usage below 60k/s", "cyc/s", 0, sibCycles, 0)
	r.note("unused hardware threads should be set to the minimum frequency, otherwise they control their sibling's effective frequency")
	return r, nil
}

func fmtGHzVal(ghz float64) string { return fmtGHz(ghz * 1000) }
