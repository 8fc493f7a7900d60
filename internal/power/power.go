// Package power composes full-system AC power from component states,
// calibrated to the paper's Fig. 7 idle characterization and Fig. 6 load
// measurements:
//
//	99.1 W   floor with every thread of every package in the deepest C-state
//	+81.2 W  once any thread leaves it (I/O die, fabric and UMCs wake up)
//	+0.09 W  per core held in C1 (clock-gated, frequency-independent)
//	+dyn     per active core: kernel.DynWatts × f[GHz] × V² × SMT factor,
//	         anchored at 0.33 W for a pause loop at 2.5 GHz (+0.05 W for
//	         the second thread)
//	+toggle  operand-Hamming-weight-dependent power (Fig. 10: 21 W across
//	         64 cores for vxorps)
//	+traffic DRAM/fabric power per GB/s of achieved memory traffic
//
// All anchors are AC-side (the paper's reference instrument measures at the
// wall), so no separate PSU model is applied.
package power

import (
	"math"

	"zen2ee/internal/cstate"
	"zen2ee/internal/iodie"
	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

// Config holds the calibration constants.
type Config struct {
	// FloorWatts is the all-deep-sleep system power (Fig. 7: 99.1 W).
	FloorWatts float64
	// C1CoreWatts is the per-core cost of C1 residency (Fig. 7: 0.09 W).
	C1CoreWatts float64
	// RefToggleGHz/RefToggleVolts anchor the kernels' ToggleWatts values
	// (measured at nominal 2.5 GHz, 1.10 V).
	RefToggleGHz, RefToggleVolts float64
	// Thermal model: T → Ambient + ThermalResistance × system power with
	// first-order time constant ThermalTau.
	AmbientC          float64
	ThermalResistance float64 // K/W
	ThermalTau        sim.Duration
}

// DefaultConfig returns the paper-calibrated constants.
func DefaultConfig() Config {
	return Config{
		FloorWatts:        99.1,
		C1CoreWatts:       0.09,
		RefToggleGHz:      2.5,
		RefToggleVolts:    1.10,
		AmbientC:          25.0,
		ThermalResistance: 0.08,
		ThermalTau:        60 * sim.Second,
	}
}

// CoreInput is the per-core state snapshot the model consumes.
type CoreInput struct {
	// State is the core-level C-state (C0 if any thread active).
	State cstate.State
	// ActiveThreads is the number of threads in C0 (0..2).
	ActiveThreads int
	// Kernel is the instruction stream on the active threads (nil when no
	// thread is active). It points at a kernel the caller keeps unchanged,
	// so copying or comparing an input never copies a Kernel.
	Kernel *workload.Kernel
	// GHz is the effective core clock in GHz.
	GHz float64
	// Volts is the core rail voltage.
	Volts float64
	// HammingWeight is the relative operand weight (0..1) for toggle-
	// sensitive kernels.
	HammingWeight float64
}

// Input is the full-system snapshot.
type Input struct {
	// CoreWatts holds each core's contribution (CoreWatts of its input),
	// in core order.
	CoreWatts []float64
	// DeepSleep marks the package deep-sleep criterion (all threads of all
	// packages in the deepest state).
	DeepSleep bool
	// IOD is the I/O-die configuration (fabric P-state, DRAM clock).
	IOD iodie.Config
	// DRAMTrafficGBs is the achieved system memory traffic.
	DRAMTrafficGBs float64
}

// Model computes power from snapshots. It is stateless; thermal state lives
// in Thermal.
type Model struct {
	cfg Config
}

// NewModel returns a model with the given calibration.
func NewModel(cfg Config) *Model { return &Model{cfg: cfg} }

// Config returns the model's calibration constants.
func (m *Model) Config() Config { return m.cfg }

// CoreWatts returns one core's contribution.
func (m *Model) CoreWatts(c *CoreInput) float64 {
	switch {
	case c.ActiveThreads > 0:
		return m.activeCoreWatts(c)
	case c.State == cstate.C1:
		return m.cfg.C1CoreWatts
	default: // C2: power-gated
		return 0
	}
}

func (m *Model) activeCoreWatts(c *CoreInput) float64 {
	k := c.Kernel
	smt := 1.0
	if c.ActiveThreads > 1 {
		smt += k.SMTFactor
	}
	dyn := k.DynWatts * c.GHz * c.Volts * c.Volts * smt
	dyn += m.toggleWatts(c)
	// C1 residual of the clock-gated partner structures is negligible next
	// to dynamic power; the Fig. 7 anchors absorb it.
	return dyn
}

// toggleWatts is the operand-data-dependent component (§VII-B): scaled from
// the kernel's calibration point at nominal frequency/voltage.
func (m *Model) toggleWatts(c *CoreInput) float64 {
	k := c.Kernel
	if k.ToggleWatts == 0 || c.HammingWeight == 0 {
		return 0
	}
	ref := m.cfg.RefToggleGHz * m.cfg.RefToggleVolts * m.cfg.RefToggleVolts
	scale := (c.GHz * c.Volts * c.Volts) / ref
	return k.ToggleWatts * c.HammingWeight * scale
}

// SystemWatts returns total AC power for the snapshot, adding the cores'
// contributions in core order.
func (m *Model) SystemWatts(in Input) float64 {
	p := m.cfg.FloorWatts
	if in.DeepSleep {
		return p
	}
	p += in.IOD.ActiveWatts()
	for _, w := range in.CoreWatts {
		p += w
	}
	p += iodie.TrafficWatts(in.DRAMTrafficGBs)
	return p
}

// Thermal is a first-order RC thermal model of the package/heatsink stack.
// The paper pre-heats the system for power-sensitive workloads; experiments
// do the same through Preheat.
type Thermal struct {
	cfg    Config
	tempC  float64
	last   sim.Time
	lastOK bool
}

// NewThermal starts at ambient temperature.
func NewThermal(cfg Config) *Thermal {
	return &Thermal{cfg: cfg, tempC: cfg.AmbientC}
}

// Advance integrates the temperature to time now under the given system
// power (assumed constant since the previous call).
func (th *Thermal) Advance(now sim.Time, systemWatts float64) {
	if !th.lastOK {
		th.last = now
		th.lastOK = true
		return
	}
	dt := now.Sub(th.last)
	if dt <= 0 {
		return
	}
	target := th.cfg.AmbientC + th.cfg.ThermalResistance*systemWatts
	alpha := 1 - math.Exp(-float64(dt)/float64(th.cfg.ThermalTau))
	th.tempC += (target - th.tempC) * alpha
	th.last = now
}

// TempC returns the current package temperature.
func (th *Thermal) TempC() float64 { return th.tempC }

// Preheat jumps the model to its steady state for the given power, the
// equivalent of the paper's 15-minute FIRESTARTER warm-up.
func (th *Thermal) Preheat(systemWatts float64) {
	th.tempC = th.cfg.AmbientC + th.cfg.ThermalResistance*systemWatts
}
