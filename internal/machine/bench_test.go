package machine

import "testing"

// BenchmarkMachineNew measures building the paper's test system: wiring
// every subsystem over the shared topology and parking all 128 threads in
// C2, which the machine folds into one refresh.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(DefaultConfig())
	}
}
