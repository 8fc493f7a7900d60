package machine

import (
	"testing"

	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

// BenchmarkMachineNew measures building the paper's test system: wiring
// every subsystem over the shared topology and parking all 128 threads in
// C2, which the machine folds into one refresh.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig())
	}
}

// BenchmarkMachineReset measures what replaces BenchmarkMachineNew inside
// one shard's loop: resetting a machine that ran a kernel for a
// millisecond (untimed) back to a freshly built one.
func BenchmarkMachineReset(b *testing.B) {
	m := New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
			b.Fatal(err)
		}
		m.Eng.RunFor(sim.Millisecond)
		b.StartTimer()
		m.Reset()
	}
}
