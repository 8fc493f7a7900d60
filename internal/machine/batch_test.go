package machine

import (
	"math"
	"strings"
	"testing"

	"zen2ee/internal/cstate"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// batchScript drives a machine through several same-instant groups of
// mutations separated by simulated time; group wraps each group (Batch or a
// plain call).
func batchScript(t *testing.T, group func(m *Machine, f func())) *Machine {
	t.Helper()
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	n := m.Top.NumThreads()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	group(m, func() {
		for th := 0; th < n; th++ {
			k := workload.VXorps
			if th%3 == 0 {
				k = workload.Firestarter
			}
			_, err := m.StartKernel(soc.ThreadID(th), k, 0.5)
			must(err)
		}
	})
	m.Eng.RunFor(20 * sim.Millisecond)
	group(m, func() {
		for th := 0; th < n; th += 2 {
			m.SetHammingWeight(soc.ThreadID(th), 1)
		}
		for th := 1; th < n; th += 5 {
			m.StopKernel(soc.ThreadID(th))
		}
		must(m.SetOnline(m.Top.Cores[3].Threads[1], false))
		must(m.SetCStateEnabled(7, cstate.C2, false))
	})
	m.Eng.RunFor(7 * sim.Millisecond)
	group(m, func() {
		for th := 0; th < n; th += 3 {
			m.SetHammingWeight(soc.ThreadID(th), 0)
		}
		for th := 1; th < n; th += 5 {
			_, err := m.StartKernel(soc.ThreadID(th), workload.Busywait, 0)
			if th == int(m.Top.Cores[3].Threads[1]) {
				continue // offline: the error is the expected answer
			}
			must(err)
		}
		must(m.SetOnline(m.Top.Cores[3].Threads[1], true))
	})
	m.Eng.RunFor(50 * sim.Millisecond)
	return m
}

// TestBatchMatchesUnbatched pins Batch's contract: folding a same-instant
// group of mutations into one refresh leaves every energy and counter
// bit-identical to refreshing after each mutation.
func TestBatchMatchesUnbatched(t *testing.T) {
	plain := batchScript(t, func(_ *Machine, f func()) { f() })
	batched := batchScript(t, func(m *Machine, f func()) { m.Batch(f) })
	now := plain.Eng.Now()
	if got := batched.Eng.Now(); got != now {
		t.Fatalf("clocks diverged: %v vs %v", got, now)
	}
	same := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: unbatched %v, batched %v", what, a, b)
		}
	}
	same("AC energy", plain.EnergyJoules(now), batched.EnergyJoules(now))
	same("system watts", plain.SystemWatts(), batched.SystemWatts())
	same("temperature", plain.TempC(), batched.TempC())
	for p := range plain.Top.Packages {
		pkg := soc.PackageID(p)
		same("RAPL package energy", plain.RAPL.PackageEnergyJoules(pkg), batched.RAPL.PackageEnergyJoules(pkg))
	}
	for c := range plain.Top.Cores {
		core := soc.CoreID(c)
		same("RAPL core energy", plain.RAPL.CoreEnergyJoules(core), batched.RAPL.CoreEnergyJoules(core))
	}
	for th := 0; th < plain.Top.NumThreads(); th++ {
		a, b := plain.ReadCounters(soc.ThreadID(th)), batched.ReadCounters(soc.ThreadID(th))
		if a != b {
			t.Errorf("thread %d counters: unbatched %+v, batched %+v", th, a, b)
		}
	}
}

// TestBatchPanicsWhenTimeAdvances: a batch spans one simulated instant;
// running the engine inside one would skip integrator folds, so it panics —
// and the machine refreshes normally afterwards.
func TestBatchPanicsWhenTimeAdvances(t *testing.T) {
	m := newMachine()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Batch did not panic when simulated time advanced inside it")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "time moved inside Batch") {
				t.Fatalf("unexpected panic %v", r)
			}
		}()
		m.Batch(func() { m.Eng.RunFor(100 * sim.Microsecond) }) // before the first SMU tick
	}()
	idle := m.SystemWatts()
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	if m.SystemWatts() == idle {
		t.Fatal("refresh still deferred after a panicking Batch")
	}
}
