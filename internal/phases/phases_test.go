package phases

import (
	"math"
	"testing"

	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

func newMachine() *machine.Machine {
	m := machine.New(machine.DefaultConfig())
	m.SetAllFrequenciesMHz(2500)
	m.Eng.RunFor(20 * sim.Millisecond)
	return m
}

func threads(m *machine.Machine, n int) []soc.ThreadID {
	out := make([]soc.ThreadID, n)
	for i := range out {
		out[i] = soc.ThreadID(i)
	}
	return out
}

func TestSquareWavePowerFollowsLoad(t *testing.T) {
	m := newMachine()
	r := &Runner{
		M:       m,
		Threads: threads(m, 64),
		Phases:  SquareWave(workload.Compute, 20*sim.Millisecond, 20*sim.Millisecond),
	}
	stop, err := r.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	// Sample power at phase midpoints over several cycles.
	var high, low []float64
	m.Eng.RunFor(10 * sim.Millisecond) // mid of first load phase
	for i := 0; i < 6; i++ {
		high = append(high, m.SystemWatts())
		m.Eng.RunFor(20 * sim.Millisecond)
		low = append(low, m.SystemWatts())
		m.Eng.RunFor(20 * sim.Millisecond)
	}
	for i := range high {
		if high[i] < low[i]+50 {
			t.Fatalf("cycle %d: load %v W vs idle %v W — no swing", i, high[i], low[i])
		}
	}
	if r.Cycles < 5 {
		t.Fatalf("only %d cycles completed", r.Cycles)
	}
}

func TestIdlePhasesReachDeepSleep(t *testing.T) {
	m := newMachine()
	r := &Runner{
		M:       m,
		Threads: threads(m, m.Top.NumThreads()),
		Phases:  SquareWave(workload.Busywait, 5*sim.Millisecond, 30*sim.Millisecond),
	}
	stop, err := r.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// Late in an idle phase the whole system must be in deep sleep again.
	m.Eng.RunFor(5*sim.Millisecond + 25*sim.Millisecond)
	if !m.CStates.SystemDeepSleep() {
		t.Fatal("idle phase did not reach package deep sleep")
	}
}

func TestStopIdlesThreads(t *testing.T) {
	m := newMachine()
	r := &Runner{
		M:       m,
		Threads: threads(m, 8),
		Phases:  []Phase{Load(workload.Busywait, 10*sim.Millisecond)},
	}
	stop, err := r.Start()
	if err != nil {
		t.Fatal(err)
	}
	m.Eng.RunFor(5 * sim.Millisecond)
	stop()
	m.Eng.RunFor(1 * sim.Millisecond)
	for _, th := range r.Threads {
		if m.Running(th) {
			t.Fatalf("thread %d still running after stop", th)
		}
	}
	// The pattern must not restart.
	m.Eng.RunFor(50 * sim.Millisecond)
	for _, th := range r.Threads {
		if m.Running(th) {
			t.Fatal("pattern resumed after stop")
		}
	}
}

func TestValidate(t *testing.T) {
	m := newMachine()
	bad := []Runner{
		{},
		{M: m},
		{M: m, Threads: threads(m, 1)},
		{M: m, Threads: threads(m, 1), Phases: []Phase{{Duration: 0}}},
	}
	// enterPhase discards StartKernel's errors, so Validate must reject
	// the weights StartKernel would.
	for _, w := range []float64{2, -1, math.NaN(), math.Inf(1)} {
		bad = append(bad, Runner{M: m, Threads: threads(m, 1),
			Phases: []Phase{{Kernel: workload.VXorps, Weight: w, Duration: 1}}})
	}
	for i := range bad {
		if err := bad[i].Validate(); err == nil {
			t.Errorf("runner %d validated", i)
		}
	}
	good := Runner{M: m, Threads: threads(m, 1), Phases: SquareWave(workload.Pause, 1, 1)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleStartRejected(t *testing.T) {
	m := newMachine()
	r := &Runner{M: m, Threads: threads(m, 1),
		Phases: []Phase{Load(workload.Pause, sim.Millisecond)}}
	stop, err := r.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := r.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestPatternSurvivesOfflineThread(t *testing.T) {
	m := newMachine()
	r := &Runner{
		M:       m,
		Threads: threads(m, 4),
		Phases:  SquareWave(workload.Busywait, 5*sim.Millisecond, 5*sim.Millisecond),
	}
	stop, err := r.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	m.Eng.RunFor(2 * sim.Millisecond)
	if err := m.SetOnline(2, false); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunFor(50 * sim.Millisecond)
	if r.Cycles < 4 {
		t.Fatalf("pattern stalled after offlining a member: %d cycles", r.Cycles)
	}
	if m.Running(2) {
		t.Fatal("offline thread runs")
	}
}
