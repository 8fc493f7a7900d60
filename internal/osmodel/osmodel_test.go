package osmodel

import (
	"math"
	"testing"

	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

func TestPerfStatObservesFrequency(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	if err := m.SetThreadFrequencyMHz(0, 2200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	samples := PerfStat(m, 0, 100*sim.Millisecond, 10)
	if len(samples) != 10 {
		t.Fatalf("%d samples", len(samples))
	}
	f := MeanFrequencyGHz(samples)
	if math.Abs(f-2.2) > 0.01 {
		t.Fatalf("perf frequency %v GHz, want 2.2", f)
	}
	ipc := MeanIPC(samples)
	if math.Abs(ipc-workload.Busywait.IPC1) > 0.05 {
		t.Fatalf("perf IPC %v, want %v", ipc, workload.Busywait.IPC1)
	}
}

func TestPerfStatIdleThreadShowsNoCycles(t *testing.T) {
	m := machine.New(machine.DefaultConfig())
	samples := PerfStat(m, 7, 100*sim.Millisecond, 5)
	for _, x := range samples {
		if x.Cycles != 0 {
			t.Fatalf("idle thread reported %v cycles", x.Cycles)
		}
	}
}

func TestPerfHelpersEmpty(t *testing.T) {
	if !math.IsNaN(MeanFrequencyGHz(nil)) || !math.IsNaN(MeanIPC(nil)) {
		t.Fatal("empty series should give NaN")
	}
}
