// Package workload describes the instruction kernels the paper uses to
// exercise the processor's power-management mechanisms. A Kernel is a
// static characterization of an instruction stream: how many instructions it
// retires per cycle, how hard it drives the execution units (EDC activity),
// how much dynamic power it draws, what memory traffic it generates, and how
// its power depends on operand data (Hamming-weight toggling).
//
// The kernels drive the same control paths the real instruction streams
// drive on hardware: the EDC manager sees their current draw, the RAPL model
// sees their micro-architectural activity events, and the power model sees
// their switched capacitance.
package workload

import "fmt"

// Kernel is an instruction-stream descriptor. All power figures are per
// core; see internal/power for how they compose into system AC power.
type Kernel struct {
	// Name identifies the kernel in experiment output (matches the paper's
	// workload labels where applicable).
	Name string

	// IPC1 and IPC2 are retired instructions per core cycle with one and
	// two active hardware threads on the core. IPC2 is the combined core
	// throughput, not per-thread.
	IPC1, IPC2 float64

	// DynWatts is the dynamic power coefficient: Watts per GHz at reference
	// voltage (1.0 V) with one thread active. Actual core power scales as
	// DynWatts × f[GHz] × (V/1V)².
	DynWatts float64

	// SMTFactor is the relative extra dynamic power when the second
	// hardware thread runs the same kernel (0.15 ⇒ +15 %).
	SMTFactor float64

	// EDCWeight1/EDCWeight2 are the per-core current-draw weights (amps per
	// GHz·V) the EDC activity monitor observes with one/two active threads.
	// Only dense vector kernels are heavy enough to trigger throttling.
	EDCWeight1, EDCWeight2 float64

	// MemGBs is the per-core DRAM bandwidth demand in GB/s (read+write) at
	// nominal frequency; the I/O-die model may cap the achieved value.
	MemGBs float64

	// ToggleWatts is the data-dependent power swing per core: additional
	// Watts at operand Hamming weight 1.0 relative to weight 0.0 (at
	// reference frequency/voltage). Zero for kernels whose operands the
	// experiments do not vary.
	ToggleWatts float64

	// RAPLWeight is the activity-event weight the RAPL *model* assigns this
	// kernel, relative to its true core dynamic power. Values below 1
	// reproduce the paper's finding that the model does not capture all
	// workload-dependent consumption; RAPL is blind to ToggleWatts entirely.
	RAPLWeight float64

	// UsesFP256 marks kernels executing 256-bit SIMD floating-point
	// operations (subject to FP clock-mesh gating when absent).
	UsesFP256 bool
}

// MaxIPC is the front-end limit of a Zen 2 core (4-wide dispatch).
const MaxIPC = 4.0

// IPC returns the combined core IPC for the given number of active threads
// (1 or 2).
func (k *Kernel) IPC(threads int) float64 {
	switch threads {
	case 1:
		return k.IPC1
	case 2:
		return k.IPC2
	default:
		panic(fmt.Sprintf("workload: %s: invalid thread count %d", k.Name, threads))
	}
}

// EDCWeight returns the current-draw weight for the given thread count.
func (k *Kernel) EDCWeight(threads int) float64 {
	if threads >= 2 {
		return k.EDCWeight2
	}
	return k.EDCWeight1
}

// The paper's kernels.
//
// Power calibration: the pause loop is anchored at 0.33 W/core @ 2.5 GHz,
// 1.1 V (Fig. 7): DynWatts = 0.33/(2.5×1.1²) ≈ 0.109. The FIRESTARTER FMA
// kernel is anchored at the Fig. 6 steady states (2.10 GHz/489 W without
// SMT, 2.03 GHz/509 W with SMT): DynWatts ≈ 2.36, SMTFactor ≈ 0.124.
// The vxorps toggle swing is anchored at 21 W system for 64 cores (Fig. 10a)
// and shr at ≤0.9 % (§VII-B).
var (
	// Idle is a placeholder for threads with no runnable work; the OS model
	// enters C-states for it, so it never contributes active power.
	Idle = Kernel{Name: "idle", IPC1: 0, IPC2: 0, DynWatts: 0, RAPLWeight: 1}

	// Pause is the unrolled pause-instruction loop used for the C0 baseline
	// in Fig. 7 ("more stable and slightly lower power consumption than
	// POLL").
	Pause = Kernel{
		Name: "pause", IPC1: 0.25, IPC2: 0.5,
		DynWatts: 0.109, SMTFactor: 0.152, // +0.05 W on +0.33 W at 2.5 GHz
		EDCWeight1: 0.05, EDCWeight2: 0.06,
		RAPLWeight: 0.95,
	}

	// Poll is the Linux cpuidle POLL loop: pause-based but with per-
	// iteration checks, slightly higher and less stable power than Pause.
	Poll = Kernel{
		Name: "POLL", IPC1: 0.8, IPC2: 1.4,
		DynWatts: 0.125, SMTFactor: 0.16,
		EDCWeight1: 0.06, EDCWeight2: 0.07,
		RAPLWeight: 0.95,
	}

	// Busywait is the paper's `while(1);` loop: a single always-taken
	// branch, fully core-local.
	Busywait = Kernel{
		Name: "busywait", IPC1: 1.0, IPC2: 1.8,
		DynWatts: 0.32, SMTFactor: 0.15,
		EDCWeight1: 0.12, EDCWeight2: 0.14,
		RAPLWeight: 0.92,
	}

	// Sqrt executes dependent scalar square roots (long-latency FP).
	Sqrt = Kernel{
		Name: "sqrt", IPC1: 0.22, IPC2: 0.42,
		DynWatts: 0.55, SMTFactor: 0.18,
		EDCWeight1: 0.25, EDCWeight2: 0.3,
		RAPLWeight: 0.83,
	}

	// AddPD executes packed double-precision adds (add_pd in Fig. 9).
	AddPD = Kernel{
		Name: "addpd", IPC1: 2.0, IPC2: 3.0,
		DynWatts: 1.15, SMTFactor: 0.16,
		EDCWeight1: 0.7, EDCWeight2: 0.85,
		RAPLWeight: 0.86, UsesFP256: true,
	}

	// MulPD executes packed double-precision multiplies.
	MulPD = Kernel{
		Name: "mulpd", IPC1: 2.0, IPC2: 3.0,
		DynWatts: 1.3, SMTFactor: 0.17,
		EDCWeight1: 0.8, EDCWeight2: 0.95,
		RAPLWeight: 0.85, UsesFP256: true,
	}

	// Compute is the generic ALU/FP mix from the Fig. 9 workload set.
	Compute = Kernel{
		Name: "compute", IPC1: 2.6, IPC2: 3.3,
		DynWatts: 1.5, SMTFactor: 0.15,
		EDCWeight1: 0.9, EDCWeight2: 1.05,
		RAPLWeight: 0.88,
	}

	// Matmul is a blocked DGEMM: dense FP with L2/L3-resident traffic.
	Matmul = Kernel{
		Name: "matmul", IPC1: 3.0, IPC2: 3.4,
		DynWatts: 1.95, SMTFactor: 0.13,
		EDCWeight1: 1.3, EDCWeight2: 1.5,
		MemGBs:     1.2,
		RAPLWeight: 0.88, UsesFP256: true,
	}

	// MemoryRead streams reads from DRAM (memory_read in Fig. 9).
	MemoryRead = Kernel{
		Name: "memory_read", IPC1: 0.6, IPC2: 0.9,
		DynWatts: 0.62, SMTFactor: 0.1,
		EDCWeight1: 0.3, EDCWeight2: 0.35,
		MemGBs:     11.0,
		RAPLWeight: 0.55, // DRAM/IF power invisible to the RAPL model
	}

	// MemoryWrite streams writes to DRAM.
	MemoryWrite = Kernel{
		Name: "memory_write", IPC1: 0.5, IPC2: 0.75,
		DynWatts: 0.58, SMTFactor: 0.1,
		EDCWeight1: 0.3, EDCWeight2: 0.35,
		MemGBs:     9.0,
		RAPLWeight: 0.52,
	}

	// MemoryCopy streams read+write.
	MemoryCopy = Kernel{
		Name: "memory_copy", IPC1: 0.55, IPC2: 0.8,
		DynWatts: 0.60, SMTFactor: 0.1,
		EDCWeight1: 0.3, EDCWeight2: 0.35,
		MemGBs:     13.0,
		RAPLWeight: 0.53,
	}

	// Firestarter is the FIRESTARTER 2 stress kernel: up to two 256-bit FMA
	// per cycle plus vector loads/stores and interleaved integer/logic ops,
	// with the inner loop sized to the L1I cache (4 IPC front-end limit).
	// Its loads/stores hit the cache hierarchy, so it generates no DRAM
	// traffic; the Fig. 6 AC anchors are pure core power.
	Firestarter = Kernel{
		Name: "firestarter", IPC1: 3.23, IPC2: 3.56,
		DynWatts: 2.364, SMTFactor: 0.124,
		EDCWeight1: 2.113, EDCWeight2: 2.208,
		RAPLWeight: 0.826, UsesFP256: true,
	}

	// PointerChase is the Molka et al. latency benchmark: a dependent load
	// chain through a working set placed in a chosen cache level or DRAM,
	// with hardware prefetchers disabled and huge pages.
	PointerChase = Kernel{
		Name: "pointer_chase", IPC1: 0.05, IPC2: 0.09,
		DynWatts: 0.35, SMTFactor: 0.1,
		EDCWeight1: 0.1, EDCWeight2: 0.12,
		RAPLWeight: 0.8,
	}

	// StreamTriad is McCalpin's STREAM Triad: a[i] = b[i] + s*c[i]. Its
	// per-core demand always exceeds the per-CCD ceiling, so the achieved
	// bandwidth is the concurrency-dependent Fig. 5a value.
	StreamTriad = Kernel{
		Name: "stream_triad", IPC1: 0.9, IPC2: 1.2,
		DynWatts: 0.85, SMTFactor: 0.1,
		EDCWeight1: 0.4, EDCWeight2: 0.45,
		MemGBs:     45.0,
		RAPLWeight: 0.56, UsesFP256: true,
	}

	// VXorps is the 256-bit vxorps toggling kernel from §VII-B: successive
	// register-only XORs whose destination bit toggling is controlled by an
	// operand mask. 21 W system swing across 64 cores ⇒ 0.328 W/core.
	VXorps = Kernel{
		Name: "vxorps", IPC1: 3.0, IPC2: 3.8,
		DynWatts: 0.40, SMTFactor: 0.15,
		EDCWeight1: 0.8, EDCWeight2: 0.95,
		ToggleWatts: 0.328,
		RAPLWeight:  1.0, UsesFP256: true,
	}

	// Shr is the 64-bit shift kernel from §VII-B (after Lipp et al.): the
	// operand is seeded per weight and shifted by zero. Much narrower
	// datapath ⇒ far smaller toggle swing (≤0.9 % system power).
	Shr = Kernel{
		Name: "shr", IPC1: 2.5, IPC2: 3.4,
		DynWatts: 0.78, SMTFactor: 0.15,
		EDCWeight1: 0.5, EDCWeight2: 0.6,
		ToggleWatts: 0.034,
		RAPLWeight:  0.9,
	}
)

// Fig9Set is the workload set of the paper's Figure 9 RAPL-quality study.
func Fig9Set() []Kernel {
	return []Kernel{Idle, AddPD, Busywait, Compute, Matmul, MemoryRead,
		MulPD, Sqrt, MemoryWrite, MemoryCopy}
}

// All returns every defined kernel.
func All() []Kernel {
	return []Kernel{Idle, Pause, Poll, Busywait, Sqrt, AddPD, MulPD, Compute,
		Matmul, MemoryRead, MemoryWrite, MemoryCopy, Firestarter,
		PointerChase, StreamTriad, VXorps, Shr}
}

// ByName looks a kernel up by its paper label.
func ByName(name string) (Kernel, error) {
	for _, k := range All() {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("workload: unknown kernel %q", name)
}

// Validate checks a kernel descriptor for internal consistency.
func (k Kernel) Validate() error {
	switch {
	case k.Name == "":
		return fmt.Errorf("workload: kernel without name")
	case k.IPC1 < 0 || k.IPC1 > MaxIPC || k.IPC2 < 0 || k.IPC2 > MaxIPC:
		return fmt.Errorf("workload: %s: IPC out of [0,%v]", k.Name, MaxIPC)
	case k.IPC2 < k.IPC1:
		return fmt.Errorf("workload: %s: SMT must not reduce combined IPC", k.Name)
	case k.DynWatts < 0 || k.SMTFactor < 0 || k.MemGBs < 0 || k.ToggleWatts < 0:
		return fmt.Errorf("workload: %s: negative power parameter", k.Name)
	case k.RAPLWeight < 0 || k.RAPLWeight > 1.05:
		return fmt.Errorf("workload: %s: RAPLWeight out of range", k.Name)
	case k.EDCWeight2 < k.EDCWeight1:
		return fmt.Errorf("workload: %s: EDC weight must not shrink with SMT", k.Name)
	}
	return nil
}
