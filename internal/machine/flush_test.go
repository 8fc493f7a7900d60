package machine

import (
	"math"
	"testing"

	"zen2ee/internal/cstate"
	"zen2ee/internal/iodie"
	"zen2ee/internal/msr"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// mutationScript drives a machine through several same-instant groups of
// mutations separated by simulated time, some of them made from inside
// engine events, under an EDC-throttling load. eager selects the reference
// mode: every mutation, including the subsystems' own, refreshes on the
// spot.
func mutationScript(t *testing.T, eager bool) *Machine {
	t.Helper()
	m := newMachine()
	after := func() {}
	if eager {
		refreshNow := func() { m.changed(); m.flush() }
		m.CStates.AfterChange = refreshNow
		m.DVFS.AfterChange = refreshNow
		after = m.flush
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		after()
	}
	n := m.Top.NumThreads()

	must(m.SetAllFrequenciesMHz(2500))
	for th := 0; th < n; th++ {
		k := workload.VXorps
		if th%3 == 0 {
			k = workload.Firestarter
		}
		_, err := m.StartKernel(soc.ThreadID(th), k, 0.5)
		must(err)
	}
	m.Eng.RunFor(20 * sim.Millisecond)

	for th := 0; th < n; th += 2 {
		m.SetHammingWeight(soc.ThreadID(th), 1)
		after()
	}
	for th := 1; th < n; th += 5 {
		m.StopKernel(soc.ThreadID(th))
		after()
	}
	must(m.SetOnline(m.Top.Cores[3].Threads[1], false))
	must(m.SetCStateEnabled(7, cstate.C2, false))
	m.SetIODSetting(iodie.P0)
	after()
	m.Eng.RunFor(7 * sim.Millisecond)

	// An event queued now for the 200 ms RAPL noise step runs ahead of it
	// (the noise ticker re-arms for 200 ms only at 100 ms), so its
	// mutations must be fed to RAPL at the old noise level.
	m.Eng.ScheduleAt(sim.Time(200*sim.Millisecond), func() {
		for th := 0; th < n; th += 4 {
			m.SetHammingWeight(soc.ThreadID(th), 0.25)
			after()
		}
	})
	for th := 0; th < n; th += 3 {
		m.SetHammingWeight(soc.ThreadID(th), 0)
		after()
	}
	for th := 1; th < n; th += 5 {
		_, err := m.StartKernel(soc.ThreadID(th), workload.Busywait, 0)
		if th == int(m.Top.Cores[3].Threads[1]) {
			after()
			continue // offline: the error is the expected answer
		}
		must(err)
	}
	must(m.SetOnline(m.Top.Cores[3].Threads[1], true))
	m.SetDRAMClock(1467)
	after()
	m.Eng.RunFor(250 * sim.Millisecond)
	return m
}

// TestDeferredRefreshMatchesEager pins the one-refresh-per-instant rule:
// coalescing every same-instant mutation into one deferred refresh leaves
// energies, counters and RAPL readings bit-identical to refreshing after
// each mutation.
func TestDeferredRefreshMatchesEager(t *testing.T) {
	eager := mutationScript(t, true)
	deferred := mutationScript(t, false)
	now := eager.Eng.Now()
	if got := deferred.Eng.Now(); got != now {
		t.Fatalf("clocks diverged: %v vs %v", got, now)
	}
	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: eager %v, deferred %v", what, a, b)
		}
	}
	same("AC energy", eager.EnergyJoules(now), deferred.EnergyJoules(now))
	same("system watts", eager.SystemWatts(), deferred.SystemWatts())
	same("temperature", eager.TempC(), deferred.TempC())
	for p := range eager.Top.Packages {
		pkg := soc.PackageID(p)
		same("RAPL package energy", eager.RAPL.PackageEnergyJoules(pkg), deferred.RAPL.PackageEnergyJoules(pkg))
	}
	for c := range eager.Top.Cores {
		core := soc.CoreID(c)
		same("RAPL core energy", eager.RAPL.CoreEnergyJoules(core), deferred.RAPL.CoreEnergyJoules(core))
	}
	for th := 0; th < eager.Top.NumThreads(); th++ {
		for _, reg := range []msr.Addr{msr.CoreEnergyStat, msr.PkgEnergyStat, msr.APERF, msr.MPERF} {
			a, errA := eager.Regs.Read(th, reg)
			b, errB := deferred.Regs.Read(th, reg)
			if errA != nil || errB != nil || a != b {
				t.Errorf("thread %d MSR %#x: eager %d (%v), deferred %d (%v)", th, reg, a, errA, b, errB)
			}
		}
		a, b := eager.ReadCounters(soc.ThreadID(th)), deferred.ReadCounters(soc.ThreadID(th))
		if a != b {
			t.Errorf("thread %d counters: eager %+v, deferred %+v", th, a, b)
		}
	}
}

// TestFlushRunsBeforeClockMoves: a mutation with no read after it still
// takes effect at its own instant, because its flush event runs before the
// engine moves the clock.
func TestFlushRunsBeforeClockMoves(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunFor(10 * sim.Millisecond) // past the P-state transition
	idleW := m.SystemWatts()
	// Between SMU ticks (on the 0.5 ms phase of the 1 ms grid), so no other
	// event runs in the window below.
	m.Eng.RunUntil(sim.Time(10*sim.Millisecond + 600*sim.Microsecond))
	start := m.Eng.Now()
	c0, e0 := m.ReadCounters(0), m.EnergyJoules(start)
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	if !m.stale {
		t.Fatal("a mutation refreshed on the spot; want it deferred to the flush event")
	}
	const window = 300 * sim.Microsecond
	m.Eng.RunFor(window)
	if m.stale {
		t.Fatal("the clock moved with a refresh still pending")
	}
	secs := window.Seconds()
	mhz := (m.ReadCounters(0).Cycles - c0.Cycles) / secs / 1e6
	if want := m.EffectiveMHz(m.Top.Threads[0].Core); math.Abs(mhz-want) > 1e-6*want {
		t.Fatalf("thread 0 ran at %v MHz over the window, want %v from the mutation instant", mhz, want)
	}
	busyW := m.SystemWatts()
	if busyW <= idleW {
		t.Fatalf("busy power %v W not above idle %v W", busyW, idleW)
	}
	if w := (m.EnergyJoules(m.Eng.Now()) - e0) / secs; math.Abs(w-busyW) > 1e-6*busyW {
		t.Fatalf("average power over the window %v W, want %v W from the mutation instant", w, busyW)
	}
}
