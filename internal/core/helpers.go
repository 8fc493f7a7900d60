package core

import (
	"fmt"

	"zen2ee/internal/machine"
	"zen2ee/internal/measure"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// testSystem builds the paper's test system with the experiment seed.
func testSystem(o Options) *machine.Machine {
	cfg := machine.DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	return machine.New(cfg)
}

// resetSystem returns what testSystem(o) would build: m reset in place, or
// a new system when m is nil. A shard whose loop measures every point on a
// freshly booted system builds one machine and resets it per point.
func resetSystem(m *machine.Machine, o Options) *machine.Machine {
	if m == nil {
		return testSystem(o)
	}
	m.Reset()
	return m
}

// acMeter attaches the LMG670-class reference meter to a machine.
func acMeter(m *machine.Machine) *measure.PowerAnalyzer {
	return measure.NewPowerAnalyzer(m.Eng, measure.DefaultAnalyzerConfig(), m)
}

// raplPackageWatts measures the RAPL package-domain power of pkg over d.
func raplPackageWatts(m *machine.Machine, pkg soc.PackageID, d sim.Duration) float64 {
	e0 := m.RAPL.PackageEnergyJoules(pkg)
	t0 := m.Eng.Now()
	m.Eng.RunFor(d)
	return (m.RAPL.PackageEnergyJoules(pkg) - e0) / m.Eng.Now().Sub(t0).Seconds()
}

// startOn starts a kernel on a set of threads, failing loudly on error.
func startOn(m *machine.Machine, k workload.Kernel, weight float64, threads ...soc.ThreadID) error {
	for _, t := range threads {
		if _, err := m.StartKernel(t, k, weight); err != nil {
			return fmt.Errorf("start %s on thread %d: %w", k.Name, t, err)
		}
	}
	return nil
}

// allThreads lists every hardware thread.
func allThreads(m *machine.Machine) []soc.ThreadID {
	out := make([]soc.ThreadID, m.Top.NumThreads())
	for i := range out {
		out[i] = soc.ThreadID(i)
	}
	return out
}

// firstThreadsOfCores returns SMT0 threads of the first n cores.
func firstThreadsOfCores(m *machine.Machine, n int) []soc.ThreadID {
	out := make([]soc.ThreadID, 0, n)
	for c := 0; c < n && c < m.Top.NumCores(); c++ {
		out = append(out, m.Top.Cores[c].Threads[0])
	}
	return out
}

// waitTransitionsSettled runs until no core has a transition in flight
// (bounded to avoid livelock).
func waitTransitionsSettled(m *machine.Machine, bound sim.Duration) {
	deadline := m.Eng.Now().Add(bound)
	for m.Eng.Now() < deadline {
		busy := false
		for c := range m.Top.Cores {
			if m.DVFS.TransitionInFlight(soc.CoreID(c)) {
				busy = true
				break
			}
		}
		if !busy {
			return
		}
		m.Eng.RunFor(100 * sim.Microsecond)
	}
}

// pollUntilFrequency advances the simulation until the core's effective
// frequency equals target, polling at the given granularity.
// Returns the elapsed time, or false if deadline passed.
//
// A core's frequency can only change at an event, so a poll that follows no
// event reads what the previous poll read. The loop therefore skips to the
// first later poll instant at or after the next queued event (or to the
// deadline), which returns the same result and leaves the clock where
// polling every instant would.
func pollUntilFrequency(m *machine.Machine, core soc.CoreID, targetMHz float64, poll, deadline sim.Duration) (sim.Duration, bool) {
	start := m.Eng.Now()
	// Poll k runs at start + k·poll; poll last is the first at or past the
	// deadline, where the loop gives up.
	polls := func(d sim.Duration) int64 { return (int64(d) + int64(poll) - 1) / int64(poll) }
	last := polls(deadline)
	for k := int64(0); k < last; {
		if m.EffectiveMHz(core) == targetMHz {
			return m.Eng.Now().Sub(start), true
		}
		next := last
		if at, ok := m.Eng.NextAt(); ok {
			next = min(last, max(k+1, polls(at.Sub(start))))
		}
		k = next
		m.Eng.RunUntil(start.Add(sim.Duration(k) * poll))
	}
	return 0, false
}

func fmtGHz(mhz float64) string { return fmt.Sprintf("%.3f", mhz/1000) }
func fmtW(w float64) string     { return fmt.Sprintf("%.1f", w) }
func fmtNs(ns float64) string   { return fmt.Sprintf("%.1f", ns) }
