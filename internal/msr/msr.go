// Package msr emulates the Model Specific Register interface of AMD Family
// 17h (Zen 2) processors, following the Processor Programming Reference
// (PPR) for Family 17h Model 31h. The paper performs all of its frequency
// control and RAPL readouts through this interface (via the Linux msr kernel
// module and the x86_energy library), so the simulator exposes the same
// register layout: tools written against real MSR numbers run unchanged.
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

	// PStateCurLim reports the current P-state range: bits [6:4] hold
	// PstateMaxVal (the lowest-performance valid P-state index), bits [2:0]
	// CurPstateLimit (the highest-performance P-state currently allowed).
	PStateCurLim Addr = 0xC001_0061
	// PStateCtl selects the target P-state (bits [2:0] PstateCmd).
	PStateCtl Addr = 0xC001_0062
	// PStateStat reports the currently-applied P-state (bits [2:0]).
	PStateStat Addr = 0xC001_0063
	// PStateDef0 is the first of eight P-state definition registers
	// (0xC0010064..0xC001006B).
	PStateDef0 Addr = 0xC001_0064

	// RAPLPwrUnit encodes the power/energy/time units for the RAPL MSRs
	// (AMD uses the same layout as Intel's MSR_RAPL_POWER_UNIT).
	RAPLPwrUnit Addr = 0xC001_0299
	// CoreEnergyStat accumulates per-core energy in RAPL energy units.
	CoreEnergyStat Addr = 0xC001_029A
	// PkgEnergyStat accumulates per-package energy in RAPL energy units.
	PkgEnergyStat Addr = 0xC001_029B
)

// NumPStateDefs is the architectural maximum number of P-state definitions.
const NumPStateDefs = 8

// PStateDefAddr returns the address of P-state definition register i.
func PStateDefAddr(i int) Addr {
	if i < 0 || i >= NumPStateDefs {
		panic(fmt.Sprintf("msr: P-state index %d out of range", i))
	}
	return PStateDef0 + Addr(i)
}

// PStateDef is the decoded form of a P-state definition register.
//
// CoreCOF (current operating frequency) = 200 MHz × CpuFid / CpuDfsId,
// where CpuDfsId is the frequency divisor in eighths (raw value 8 = ÷1).
// With CpuDfsId = 8 this yields the documented 25 MHz multiplier steps.
type PStateDef struct {
	Enabled  bool
	CpuFid   uint8 // frequency ID, bits [7:0]
	CpuDfsId uint8 // frequency divisor in 1/8 units, bits [13:8]
	CpuVid   uint8 // voltage ID, bits [21:14]
	IddValue uint8 // expected max current of a single core, bits [27:22]
	IddDiv   uint8 // current divisor, bits [31:30]
}

// Encode packs the definition into its register representation.
func (p PStateDef) Encode() uint64 {
	var v uint64
	v |= uint64(p.CpuFid)
	v |= uint64(p.CpuDfsId&0x3F) << 8
	v |= uint64(p.CpuVid) << 14
	v |= uint64(p.IddValue&0x3F) << 22
	v |= uint64(p.IddDiv&0x3) << 30
	if p.Enabled {
		v |= 1 << 63
	}
	return v
}

// DecodePStateDef unpacks a P-state definition register value.
func DecodePStateDef(v uint64) PStateDef {
	return PStateDef{
		Enabled:  v>>63&1 == 1,
		CpuFid:   uint8(v & 0xFF),
		CpuDfsId: uint8(v >> 8 & 0x3F),
		CpuVid:   uint8(v >> 14 & 0xFF),
		IddValue: uint8(v >> 22 & 0x3F),
		IddDiv:   uint8(v >> 30 & 0x3),
	}
}

// FrequencyMHz returns the core operating frequency this P-state defines.
func (p PStateDef) FrequencyMHz() int {
	if p.CpuDfsId == 0 {
		return 0
	}
	return 200 * int(p.CpuFid) / int(p.CpuDfsId)
}

// VoltageVolts returns the rail voltage encoded by CpuVid using the SVI2
// mapping V = 1.55 V − 0.00625 V × VID.
func (p PStateDef) VoltageVolts() float64 {
	return 1.55 - 0.00625*float64(p.CpuVid)
}

// PStateDefFor constructs a definition for the requested frequency/voltage.
// Frequencies must be multiples of 25 MHz (the Precision Boost step).
func PStateDefFor(freqMHz int, volts float64) (PStateDef, error) {
	if freqMHz <= 0 || freqMHz%25 != 0 {
		return PStateDef{}, fmt.Errorf("msr: frequency %d MHz is not a positive multiple of 25 MHz", freqMHz)
	}
	// Fix the divisor at 8 (÷1) and use the FID for 25 MHz granularity.
	fid := freqMHz / 25
	if fid > 0xFF {
		return PStateDef{}, fmt.Errorf("msr: frequency %d MHz exceeds FID range", freqMHz)
	}
	vid := int((1.55-volts)/0.00625 + 0.5)
	if vid < 0 || vid > 0xFF {
		return PStateDef{}, fmt.Errorf("msr: voltage %.3f V out of VID range", volts)
	}
	return PStateDef{Enabled: true, CpuFid: uint8(fid), CpuDfsId: 8, CpuVid: uint8(vid)}, nil
}

// ErrUnknownMSR is returned for access to an unmapped register, mirroring
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

// WriteHook intercepts a register write (e.g. P-state control commands).
type WriteHook func(cpu int, value uint64) error

// File is a per-system MSR register file. Registers may be backed by static
// per-CPU storage, by read hooks, or both (hook wins). It is not
// concurrency-safe: the simulator is single-threaded by design.
type File struct {
	numCPUs    int
	static     map[Addr][]uint64
	readHooks  map[Addr]ReadHook
	writeHooks map[Addr]WriteHook
}

// NewFile creates a register file for numCPUs logical CPUs.
func NewFile(numCPUs int) *File {
	return &File{
		numCPUs:    numCPUs,
		static:     make(map[Addr][]uint64),
		readHooks:  make(map[Addr]ReadHook),
		writeHooks: make(map[Addr]WriteHook),
	}
}

// Define creates static per-CPU storage for addr with an initial value.
func (f *File) Define(addr Addr, initial uint64) {
	vals := make([]uint64, f.numCPUs)
	for i := range vals {
		vals[i] = initial
	}
	f.static[addr] = vals
}

// HookRead installs a read hook for addr.
func (f *File) HookRead(addr Addr, h ReadHook) { f.readHooks[addr] = h }

// HookWrite installs a write hook for addr.
func (f *File) HookWrite(addr Addr, h WriteHook) { f.writeHooks[addr] = h }

// Read reads an MSR on the given logical CPU.
func (f *File) Read(cpu int, addr Addr) (uint64, error) {
	if cpu < 0 || cpu >= f.numCPUs {
		return 0, fmt.Errorf("msr: cpu%d out of range", cpu)
	}
	if h, ok := f.readHooks[addr]; ok {
		return h(cpu), nil
	}
	if vals, ok := f.static[addr]; ok {
		return vals[cpu], nil
	}
	return 0, ErrUnknownMSR{CPU: cpu, Addr: addr}
}

// Write writes an MSR on the given logical CPU.
func (f *File) Write(cpu int, addr Addr, value uint64) error {
	if cpu < 0 || cpu >= f.numCPUs {
		return fmt.Errorf("msr: cpu%d out of range", cpu)
	}
	if h, ok := f.writeHooks[addr]; ok {
		return h(cpu, value)
	}
	if vals, ok := f.static[addr]; ok {
		vals[cpu] = value
		return nil
	}
	return ErrUnknownMSR{CPU: cpu, Addr: addr}
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
