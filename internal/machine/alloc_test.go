package machine

import (
	"testing"
	"unsafe"

	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// The hot paths under every experiment allocate nothing once warmed up.
// These tests enforce what the layer benchmarks only report.

// requireNoAllocs fails unless f allocates nothing per run.
func requireNoAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Fatalf("%s allocates %v times, want 0", what, n)
	}
}

// TestSMUControlTickAllocs advances a FIRESTARTER-loaded system held at
// the EDC limit by one millisecond: a control tick per package, the cap
// changes it makes and the refresh they trigger.
func TestSMUControlTickAllocs(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(300 * sim.Millisecond)
	if !m.SMU.Throttling(0) {
		t.Fatal("FIRESTARTER load is not EDC-throttled")
	}
	requireNoAllocs(t, "a throttled millisecond", func() { m.Eng.RunFor(sim.Millisecond) })
}

// TestDirtyRefreshAllocs changes one running thread's operand weight and
// reads the system power, which flushes the change through one refresh.
func TestDirtyRefreshAllocs(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.VXorps, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(50 * sim.Millisecond)
	w := 0.25
	requireNoAllocs(t, "a dirty refresh", func() {
		w = 1 - w
		m.SetHammingWeight(0, w)
		m.SystemWatts()
	})
}

// TestStopStartKernelAllocs idles one thread and puts it back to work: two
// C-state mutations of one core and the refresh that follows.
func TestStopStartKernelAllocs(t *testing.T) {
	m := newMachine()
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunFor(10 * sim.Millisecond)
	requireNoAllocs(t, "a StopKernel/StartKernel round trip", func() {
		m.StopKernel(0)
		if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
			t.Fatal(err)
		}
		m.Eng.RunFor(10 * sim.Microsecond)
	})
}

// TestMixedRefreshAllocs is TestSMUControlTickAllocs with no two cores
// alike (each core's FIRESTARTER threads run at their own operand weight),
// so every refresh derives its dirty cores and shares none.
func TestMixedRefreshAllocs(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		w := float64(m.Top.Threads[th].Core+1) / float64(m.Top.NumCores())
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, w); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(300 * sim.Millisecond)
	if !m.SMU.Throttling(0) {
		t.Fatal("FIRESTARTER load is not EDC-throttled")
	}
	before := m.RefreshStats()
	requireNoAllocs(t, "a throttled millisecond with no two cores alike", func() { m.Eng.RunFor(sim.Millisecond) })
	if d := m.RefreshStats(); d.Shared != before.Shared || d.Derived == before.Derived {
		t.Fatalf("refresh stats went from %+v to %+v: want cores derived and none shared", before, d)
	}
}

// TestPStateTransitionAllocs switches a running thread between two
// P-states and runs each transition through its slot and ramp. A core
// binds its transition event on its first transition, so a repeated one
// allocates nothing.
func TestPStateTransitionAllocs(t *testing.T) {
	m := newMachine()
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	mhz := 1500 // the P-state every core starts in
	step := func() {
		mhz = 4000 - mhz
		if err := m.SetThreadFrequencyMHz(0, mhz); err != nil {
			t.Fatal(err)
		}
		m.Eng.RunFor(2 * sim.Millisecond)
	}
	step()
	if got := m.EffectiveMHz(0); got != float64(mhz) {
		t.Fatalf("core 0 runs at %v MHz after the transition, want %d", got, mhz)
	}
	requireNoAllocs(t, "a P-state transition", step)
}

// newAllocs bounds the allocations of building the paper's test system,
// its configuration included: every subsystem allocates its tables once,
// and the machine keeps no table that no reading reaches.
const newAllocs = 51

// TestNewAllocs pins the construction cost BenchmarkMachineNew reports.
// A simcheck build, whose counter shadow is not empty, also allocates the
// eager shadows and is not bounded.
func TestNewAllocs(t *testing.T) {
	if unsafe.Sizeof(counterShadow{}) != 0 {
		t.Skip("simcheck builds allocate the eager shadows")
	}
	if n := testing.AllocsPerRun(20, func() { New(DefaultConfig()) }); n > newAllocs {
		t.Fatalf("machine.New allocates %v times, want at most %d", n, newAllocs)
	}
}
