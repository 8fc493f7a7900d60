package core

import (
	"fmt"

	"zen2ee/internal/cstate"
	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "fig7",
		Title:    "System power vs number of threads not in C2",
		PaperRef: "Fig. 7 / §VI-A",
		Bench:    "BenchmarkFig7IdlePowerSweep",
		Plan:     planFig7,
	})
	register(whole(Experiment{
		ID:       "sec6b",
		Title:    "Offline hardware threads block package sleep",
		PaperRef: "§VI-B",
		Bench:    "BenchmarkSec6BOfflineAnomaly",
	}, runSec6B))
	register(whole(Experiment{
		ID:       "sec6acpi",
		Title:    "ACPI-reported C-state latencies and power",
		PaperRef: "§VI",
		Bench:    "BenchmarkSec6ACPITable",
	}, runSec6ACPI))
}

// fig7Dwell is the settle time between sweep steps.
const fig7Dwell = 2 * sim.Millisecond

// fig7Freqs are the active-sweep frequencies of the figure.
var fig7Freqs = []int{1500, 2200, 2500}

// planFig7 decomposes the figure into five independent shards — the all-C2
// baseline, the 128-step C1 enumeration sweep, and one active (pause) sweep
// per frequency — each driving its own simulated system, with the reducer
// reassembling the paper's series, slopes, and comparisons. The C1 and
// active sweeps are cumulative walks over one machine, so the sweep itself
// is the smallest independently schedulable unit.
func planFig7(o Options) ([]Shard, Reduce, error) {
	shards := []Shard{
		{Label: "floor", Run: fig7Floor},
		{Label: "c1-sweep", Run: fig7C1Sweep},
	}
	for _, mhz := range fig7Freqs {
		shards = append(shards, Shard{
			Label: fmt.Sprintf("active-%d", mhz),
			Run:   func(so Options) (any, error) { return fig7ActiveSweep(so, mhz) },
		})
	}
	return shards, reduceFig7, nil
}

// fig7Floor measures the all-C2 package-deep-sleep baseline.
func fig7Floor(o Options) (any, error) {
	m := testSystem(o)
	m.Eng.RunFor(10 * sim.Millisecond)
	return m.SystemWatts(), nil
}

// fig7C1Sweep disables C2 thread by thread in the paper's enumeration order
// (first threads per package, then the siblings) and records system power
// after each step.
func fig7C1Sweep(o Options) (any, error) {
	m := testSystem(o)
	m.Eng.RunFor(10 * sim.Millisecond)
	order := m.Top.EnumerationOrder()
	series := make([]float64, 0, len(order))
	for _, t := range order {
		if err := m.SetCStateEnabled(t, cstate.C2, false); err != nil {
			return nil, err
		}
		m.Eng.RunFor(fig7Dwell)
		series = append(series, m.SystemWatts())
	}
	return series, nil
}

// fig7ActiveSweep starts the pause kernel thread by thread at a fixed
// frequency and records system power after each step.
func fig7ActiveSweep(o Options, mhz int) ([]float64, error) {
	m := testSystem(o)
	if err := m.SetAllFrequenciesMHz(mhz); err != nil {
		return nil, err
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	order := m.Top.EnumerationOrder()
	series := make([]float64, 0, len(order))
	for _, t := range order {
		if _, err := m.StartKernel(t, workload.Pause, 0); err != nil {
			return nil, err
		}
		m.Eng.RunFor(fig7Dwell)
		series = append(series, m.SystemWatts())
	}
	return series, nil
}

func reduceFig7(o Options, outs []any) (*Result, error) {
	r := newResult("fig7", "System power vs number of threads not in C2", "Fig. 7 / §VI-A")
	r.Columns = []string{"series", "threads", "power [W]"}

	floor := outs[0].(float64)
	r.addRow("all C2", "0", fmtW(floor))
	r.Metrics["floor_watts"] = floor

	c1Series := outs[1].([]float64)
	r.Series["c1_watts"] = c1Series
	r.Metrics["first_c1_watts"] = c1Series[0]
	r.addRow("C1", "1", fmtW(c1Series[0]))
	r.addRow("C1", "64", fmtW(c1Series[63]))
	r.addRow("C1", "128", fmtW(c1Series[127]))

	activeSeries := map[int][]float64{}
	for i, mhz := range fig7Freqs {
		series := outs[2+i].([]float64)
		activeSeries[mhz] = series
		r.Series[fmt.Sprintf("active_%d_watts", mhz)] = series
		r.addRow(fmt.Sprintf("active %d MHz", mhz), "1", fmtW(series[0]))
		r.addRow(fmt.Sprintf("active %d MHz", mhz), "64", fmtW(series[63]))
		r.addRow(fmt.Sprintf("active %d MHz", mhz), "128", fmtW(series[127]))
	}

	a25 := activeSeries[2500]
	coreSlope := (a25[63] - a25[0]) / 63     // cores 2..64 each add one active core
	threadSlope := (a25[127] - a25[64]) / 63 // second threads
	c1Slope := (c1Series[63] - c1Series[0]) / 63
	c1ThreadDelta := c1Series[127] - c1Series[63]

	r.Metrics["first_active_watts"] = a25[0]
	r.Metrics["active_core_slope_watts"] = coreSlope
	r.Metrics["active_thread_slope_watts"] = threadSlope
	r.Metrics["c1_core_slope_watts"] = c1Slope
	r.Metrics["c1_thread_delta_watts"] = c1ThreadDelta

	r.compare("all-C2 floor", "W", 99.1, floor, 0.005)
	r.compare("one thread in C1", "W", 180.3, c1Series[0], 0.005)
	r.compare("one active (pause) thread @2.5 GHz", "W", 180.4, a25[0], 0.005)
	r.compare("per additional C1 core", "W", 0.09, c1Slope, 0.05)
	r.compare("per additional active core @2.5 GHz", "W", 0.33, coreSlope, 0.05)
	r.compare("per additional active thread @2.5 GHz", "W", 0.05, threadSlope, 0.1)
	r.compareAbs("second threads in C1 add nothing", "W", 0, c1ThreadDelta, 0.01)

	// C1/C2 power is frequency independent; active power is not.
	lowF := activeSeries[1500][63]
	highF := activeSeries[2500][63]
	r.Metrics["active64_1500_watts"] = lowF
	r.Metrics["active64_2500_watts"] = highF
	r.compare("active power frequency-dependent (Δ 64 cores)", "W",
		12.4, highF-lowF, 0.5)
	r.note("disproportionately high cost of the first thread leaving the deepest sleep state: +%.1f W; Intel Skylake-SP adds ~3.5 W per active core, about ten times the %.2f W measured here", c1Series[0]-floor, coreSlope)
	return r, nil
}

func runSec6B(o Options) (*Result, error) {
	r := newResult("sec6b", "Offline hardware threads block package sleep", "§VI-B")
	r.Columns = []string{"state", "power [W]"}
	m := testSystem(o)
	m.Eng.RunFor(10 * sim.Millisecond)
	floor := m.SystemWatts()
	r.addRow("all threads online, all C2", fmtW(floor))

	// Disable the second hardware thread of each core on package 0 — the
	// administrator "optimization" the paper warns against.
	if err := setSiblingsOnline(m, false); err != nil {
		return nil, err
	}
	m.Eng.RunFor(10 * sim.Millisecond)
	offline := m.SystemWatts()
	r.addRow("32 sibling threads offline", fmtW(offline))

	// Re-online: only this fixes the power level.
	if err := setSiblingsOnline(m, true); err != nil {
		return nil, err
	}
	m.Eng.RunFor(10 * sim.Millisecond)
	restored := m.SystemWatts()
	r.addRow("re-onlined, all C2", fmtW(restored))

	r.Metrics["floor_watts"] = floor
	r.Metrics["offline_watts"] = offline
	r.Metrics["restored_watts"] = restored

	// The offline threads are elevated to C1: power sits at the C1 level
	// (floor + I/O wake + per-core C1 costs).
	c1Level := 99.1 + 81.2 + 32*0.09
	r.compare("power with offline threads at C1 level", "W", c1Level, offline, 0.01)
	r.compare("explicit re-onlining restores deep sleep", "W", 99.1, restored, 0.005)
	r.note("we would strongly discourage disabling hardware threads on AMD Rome: system power is increased to the C1 level as long as threads are offline")
	return r, nil
}

// setSiblingsOnline flips the second hardware thread of every package-0
// core online or offline in one batched refresh.
func setSiblingsOnline(m *machine.Machine, online bool) error {
	var err error
	m.Batch(func() {
		for c := 0; c < 32 && err == nil; c++ {
			err = m.SetOnline(m.Top.Cores[c].Threads[1], online)
		}
	})
	return err
}

func runSec6ACPI(o Options) (*Result, error) {
	r := newResult("sec6acpi", "ACPI-reported C-state latencies and power", "§VI")
	r.Columns = []string{"state", "entry", "reported latency [µs]", "reported power"}
	m := testSystem(o)
	for _, e := range m.CStates.ACPITable() {
		power := fmt.Sprint(e.PowerMilliwatts)
		if e.PowerMilliwatts == 4294967295 {
			power = "UINT_MAX"
		}
		r.addRow(e.State.String(), e.Entry, fmt.Sprintf("%.0f", e.Latency.Micros()), power)
	}
	tab := m.CStates.ACPITable()
	r.Metrics["c1_latency_us"] = tab[1].Latency.Micros()
	r.Metrics["c2_latency_us"] = tab[2].Latency.Micros()
	r.compare("ACPI C1 latency", "µs", 1, tab[1].Latency.Micros(), 0)
	r.compare("ACPI C2 latency", "µs", 400, tab[2].Latency.Micros(), 0)
	r.compareAbs("idle-state reported power (useless)", "mW", 0, float64(tab[1].PowerMilliwatts), 0.5)
	r.note("reported power values (UINT_MAX for C0, 0 for idle states) cannot contribute towards an informed selection of C-states")
	return r, nil
}
