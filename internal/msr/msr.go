// Package msr emulates the Model Specific Register interface of AMD Family
// 17h (Zen 2) processors, following the Processor Programming Reference
// (PPR) for Family 17h Model 31h. The paper reads its counters and RAPL
// energies through this interface (via the Linux msr kernel module and the
// x86_energy library), so the simulator exposes the same register layout
// for them. The registers are read-only: each is computed on demand by a
// read hook. The paper sets P-states through cpufreq, which the machine
// models directly.
package msr

import "fmt"

// Addr is an MSR address.
type Addr uint32

// Zen 2 MSR addresses used by the paper.
const (
	// TSC is the time stamp counter (architectural MSR 0x10).
	TSC Addr = 0x0000_0010
	// MPERF counts at nominal frequency while in C0 (halts in idle states).
	MPERF Addr = 0x0000_00E7
	// APERF counts at actual frequency while in C0 (halts in idle states).
	APERF Addr = 0x0000_00E8

	// RAPLPwrUnit encodes the power/energy/time units for the RAPL MSRs
	// (AMD uses the same layout as Intel's MSR_RAPL_POWER_UNIT).
	RAPLPwrUnit Addr = 0xC001_0299
	// CoreEnergyStat accumulates per-core energy in RAPL energy units.
	CoreEnergyStat Addr = 0xC001_029A
	// PkgEnergyStat accumulates per-package energy in RAPL energy units.
	PkgEnergyStat Addr = 0xC001_029B
)

// ErrUnknownMSR is returned for a read of an unmapped register, mirroring
// the #GP fault the real hardware raises.
type ErrUnknownMSR struct {
	CPU  int
	Addr Addr
}

func (e ErrUnknownMSR) Error() string {
	return fmt.Sprintf("msr: cpu%d: access to unimplemented MSR %#x", e.CPU, uint32(e.Addr))
}

// ReadHook computes a register value on demand (for counters that advance
// with simulated time, e.g. APERF or the RAPL energy counters).
type ReadHook func(cpu int) uint64

// File is a per-system MSR register file whose registers are read hooks.
// It is not concurrency-safe: the simulator is single-threaded by design.
type File struct {
	numCPUs   int
	readHooks map[Addr]ReadHook
}

// NewFile creates a register file for numCPUs logical CPUs.
func NewFile(numCPUs int) *File {
	return &File{numCPUs: numCPUs, readHooks: make(map[Addr]ReadHook)}
}

// HookRead installs a read hook for addr.
func (f *File) HookRead(addr Addr, h ReadHook) { f.readHooks[addr] = h }

// Read reads an MSR on the given logical CPU.
func (f *File) Read(cpu int, addr Addr) (uint64, error) {
	if cpu < 0 || cpu >= f.numCPUs {
		return 0, fmt.Errorf("msr: cpu%d out of range", cpu)
	}
	if h, ok := f.readHooks[addr]; ok {
		return h(cpu), nil
	}
	return 0, ErrUnknownMSR{CPU: cpu, Addr: addr}
}

// RAPL unit encoding. AMD Zen 2 reports an energy status unit (ESU) of 16,
// i.e. energy counters tick in 2^-16 J ≈ 15.26 µJ steps.
const (
	raplPowerUnit  = 3  // 1/8 W
	raplEnergyUnit = 16 // 2^-16 J
	raplTimeUnit   = 10 // ~1 ms
)

// DefaultRAPLUnits returns the RAPL_PWR_UNIT register value for Zen 2.
func DefaultRAPLUnits() uint64 {
	return uint64(raplPowerUnit) | uint64(raplEnergyUnit)<<8 | uint64(raplTimeUnit)<<16
}

// EnergyUnitJoules extracts the energy unit (Joules per counter tick) from a
// RAPL_PWR_UNIT register value.
func EnergyUnitJoules(pwrUnit uint64) float64 {
	esu := (pwrUnit >> 8) & 0x1F
	return 1.0 / float64(uint64(1)<<esu)
}

// EnergyToCounter converts Joules into counter ticks (wrapping at 32 bits,
// as the hardware counters do).
func EnergyToCounter(joules float64, pwrUnit uint64) uint64 {
	unit := EnergyUnitJoules(pwrUnit)
	return uint64(joules/unit) & 0xFFFF_FFFF
}

// CounterDeltaJoules converts a (possibly wrapped) counter delta to Joules.
func CounterDeltaJoules(before, after uint64, pwrUnit uint64) float64 {
	delta := (after - before) & 0xFFFF_FFFF
	return float64(delta) * EnergyUnitJoules(pwrUnit)
}
