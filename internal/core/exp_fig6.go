package core

import (
	"fmt"

	"zen2ee/internal/machine"
	"zen2ee/internal/measure"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// firestarterMetrics are the steady-state metrics of one firestarterRun.
type firestarterMetrics struct {
	FreqGHz, FreqStdMHz float64
	IPC, IPCStd         float64
	ACWatts             float64
	RAPLPkgWatts        float64 // per package
}

// firestarterRun drives FIRESTARTER on all cores of m, a freshly booted
// test system (optionally on both hardware threads), at nominal frequency
// and reports the steady-state metrics.
func firestarterRun(m *machine.Machine, o Options, smt bool) (*firestarterMetrics, error) {
	pa := acMeter(m)
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		return nil, err
	}
	var threads []soc.ThreadID
	if smt {
		threads = allThreads(m)
	} else {
		threads = firstThreadsOfCores(m, m.Top.NumCores())
	}
	if err := startOn(m, workload.Firestarter, 0, threads...); err != nil {
		return nil, err
	}

	// Warm-up: the paper runs FIRESTARTER for 15 min to stabilize the
	// temperature and excludes the first seconds of the measurement.
	m.Eng.RunFor(sim.Duration(o.scaled(300)) * sim.Millisecond)
	m.Preheat()
	pa.Reset()

	// Measure frequency/IPC in 1 s intervals (scaled to 100 ms).
	n := o.scaled(10)
	var freqs, ipcs []float64
	start := m.Eng.Now()
	interval := 100 * sim.Millisecond
	prev0 := m.ReadCounters(0)
	prev1 := m.ReadCounters(64)
	for i := 0; i < n; i++ {
		m.Eng.RunFor(interval)
		cur0 := m.ReadCounters(0)
		cur1 := m.ReadCounters(64)
		cyc := cur0.Cycles - prev0.Cycles
		ins := (cur0.Instructions - prev0.Instructions) + (cur1.Instructions - prev1.Instructions)
		freqs = append(freqs, cyc/interval.Seconds()/1e6) // MHz
		if cyc > 0 {
			ipcs = append(ipcs, ins/cyc)
		}
		prev0, prev1 = cur0, cur1
	}
	total := m.Eng.Now().Sub(start)
	ac, err := pa.InnerAverage(start, total, total*8/10)
	if err != nil {
		return nil, err
	}
	raplPkg := raplPackageWatts(m, 0, sim.Duration(o.scaled(500))*sim.Millisecond)

	return &firestarterMetrics{
		FreqGHz:      measure.Mean(freqs) / 1000,
		FreqStdMHz:   measure.StdDev(freqs),
		IPC:          measure.Mean(ipcs),
		IPCStd:       measure.StdDev(ipcs),
		ACWatts:      ac,
		RAPLPkgWatts: raplPkg,
	}, nil
}

func runFig6(o Options) (*Result, error) {
	r := newResult()
	r.Columns = []string{"config", "freq [GHz]", "σ(f) [MHz]", "IPC/core", "AC power [W]", "RAPL pkg [W]"}

	m := testSystem(o)
	withSMT, err := firestarterRun(m, o, true)
	if err != nil {
		return nil, err
	}
	m.Reset()
	noSMT, err := firestarterRun(m, o, false)
	if err != nil {
		return nil, err
	}

	r.addRow("with SMT", fmt.Sprintf("%.3f", withSMT.FreqGHz),
		fmt.Sprintf("%.2f", withSMT.FreqStdMHz), fmt.Sprintf("%.2f", withSMT.IPC),
		fmtW(withSMT.ACWatts), fmtW(withSMT.RAPLPkgWatts))
	r.addRow("without SMT", fmt.Sprintf("%.3f", noSMT.FreqGHz),
		fmt.Sprintf("%.2f", noSMT.FreqStdMHz), fmt.Sprintf("%.2f", noSMT.IPC),
		fmtW(noSMT.ACWatts), fmtW(noSMT.RAPLPkgWatts))

	r.Metrics["smt_freq_ghz"] = withSMT.FreqGHz
	r.Metrics["nosmt_freq_ghz"] = noSMT.FreqGHz
	r.Metrics["smt_ipc"] = withSMT.IPC
	r.Metrics["nosmt_ipc"] = noSMT.IPC
	r.Metrics["smt_ac_watts"] = withSMT.ACWatts
	r.Metrics["nosmt_ac_watts"] = noSMT.ACWatts
	r.Metrics["smt_rapl_pkg_watts"] = withSMT.RAPLPkgWatts
	r.Metrics["smt_freq_std_mhz"] = withSMT.FreqStdMHz
	r.Metrics["nosmt_freq_std_mhz"] = noSMT.FreqStdMHz

	r.compare("frequency with SMT", "GHz", 2.03, withSMT.FreqGHz, 0.02)
	r.compare("frequency without SMT", "GHz", 2.10, noSMT.FreqGHz, 0.02)
	r.compare("IPC per core with SMT", "ipc", 3.56, withSMT.IPC, 0.02)
	r.compare("IPC per core without SMT", "ipc", 3.23, noSMT.IPC, 0.02)
	r.compare("AC power with SMT", "W", 509, withSMT.ACWatts, 0.02)
	r.compare("AC power without SMT", "W", 489, noSMT.ACWatts, 0.02)
	r.compare("RAPL package reading", "W", 170, withSMT.RAPLPkgWatts, 0.05)
	r.note("the EDC manager lowers frequencies below nominal for dense 256-bit FMA code; RAPL reports %.0f W against a 180 W TDP", withSMT.RAPLPkgWatts)
	return r, nil
}
