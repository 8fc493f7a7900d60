// Package rapl implements AMD's Zen 2 RAPL energy reporting as the paper
// characterizes it (§VII): a *model*, not a measurement.
//
//   - Two domains: per-package (PkgEnergyStat) and per-core (CoreEnergyStat,
//     per-core spatial resolution — finer than Intel's pp0).
//   - Counters tick in 2^-16 J units and update every 1 ms.
//   - The underlying estimate is built from micro-architectural activity
//     events: it weights each workload's true dynamic power by a per-kernel
//     model fidelity (workload.Kernel.RAPLWeight), misses DRAM/fabric
//     traffic power entirely (no DRAM domain exists), and is blind to
//     operand data; only an indirect temperature-leakage term lets operand
//     weight leak into the readings at all (§VII-B: "this is due to
//     indirect effects, e.g., an increased temperature").
//   - A slow multiplicative model-noise component reproduces the sample
//     spread of Fig. 10b without separating the operand-weight
//     distributions.
//
// The machine layer feeds modeled per-core and per-package power into this
// package; tools read energy through the standard MSR interface.
package rapl

import (
	"math"

	"zen2ee/internal/msr"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// Config holds the model constants.
type Config struct {
	// UpdatePeriod quantizes counter updates (1 ms measured by the paper).
	UpdatePeriod sim.Duration
	// Static per-core terms of the model by core state.
	CoreC0Static, CoreC1Static, CoreC2Static float64
	// Uncore terms of the package model.
	UncoreActive, UncoreSleep float64
	// TempLeakPerK × (T − TempRefC) models the leakage share per package.
	TempLeakPerK float64
	TempRefC     float64
	// NoiseRel is the 1σ of the slow multiplicative model noise.
	NoiseRel float64
	// NoisePeriod is how often the slow noise component re-draws.
	NoisePeriod sim.Duration
}

// DefaultConfig returns the calibrated constants (Fig. 6: 170 W package
// reading under FIRESTARTER; Fig. 10b: ~2.05 W core domain under vxorps).
func DefaultConfig() Config {
	return Config{
		UpdatePeriod: sim.Millisecond,
		CoreC0Static: 0.60,
		CoreC1Static: 0.15,
		CoreC2Static: 0.05,
		UncoreActive: 15.0,
		UncoreSleep:  2.0,
		TempLeakPerK: 0.02,
		TempRefC:     45.0,
		NoiseRel:     0.001,
		NoisePeriod:  100 * sim.Millisecond,
	}
}

// domain is one energy counter with boundary-quantized snapshots, so MSR
// reads only ever see values as of the last UpdatePeriod boundary. It is
// folded lazily over the model's FoldLog: at every logged instant t an
// eagerly fed domain would roll its snapshot to t's period boundary (folding
// there first if the boundary is new) and then fold to t. A domain replays
// exactly those folds, in order, when its power changes or it is read, so
// its readings are bit-identical to feeding it at every instant.
type domain struct {
	pos    uint64 // log position folded through
	last   sim.Time
	power  float64 // current power, W
	energy float64 // accumulated energy, J
	snapJ  float64
	snapT  sim.Time
}

// fold accumulates energy at the current power up to t.
func (d *domain) fold(t sim.Time) {
	d.energy += d.power * t.Sub(d.last).Seconds()
	d.last = t
}

// roll advances the boundary snapshot to the last period boundary ≤ now.
func (d *domain) roll(now sim.Time, period sim.Duration) {
	b := sim.Time(int64(now) / int64(period) * int64(period))
	if b > d.snapT {
		d.fold(b)
		d.snapJ = d.energy
		d.snapT = b
	}
}

// catchUp replays the folds of every instant logged since the domain last
// caught up.
func (d *domain) catchUp(log *sim.FoldLog, period sim.Duration) {
	for _, t := range log.Since(d.pos) {
		d.roll(t, period)
		d.fold(t)
	}
	d.pos = log.End()
}

// Model is the per-system RAPL state.
type Model struct {
	eng *sim.Engine
	top *soc.Topology
	cfg Config

	// log holds the instants at which power was fed; every domain folds at
	// each of them. doms holds the core domains, then the package domains.
	log    *sim.FoldLog
	doms   []domain
	shadow domainShadow // eager domains, -tags simcheck only

	noise       float64
	noiseTicker *sim.Ticker
	rng         *sim.RNG

	units uint64

	// BeforeNoise, when set, runs just before the model noise steps, so a
	// feeder that defers its power updates to the end of the instant can
	// apply them at the noise level in force when they were made.
	BeforeNoise func()
}

// foldLogCap bounds the model's fold log; a full log catches every domain
// up and starts over.
const foldLogCap = 256

// catchUpAll folds every domain through the whole log.
func (m *Model) catchUpAll() {
	for i := range m.doms {
		m.doms[i].catchUp(m.log, m.cfg.UpdatePeriod)
	}
}

// coreDom and pkgDom index doms.
func (m *Model) coreDom(core soc.CoreID) int  { return int(core) }
func (m *Model) pkgDom(pkg soc.PackageID) int { return len(m.top.Cores) + int(pkg) }

// New creates the model and wires the RAPL MSRs into regs (nil regs for
// standalone use).
func New(eng *sim.Engine, top *soc.Topology, cfg Config, regs *msr.File) *Model {
	m := &Model{
		eng: eng, top: top, cfg: cfg,
		rng:   eng.RNG().Fork(),
		units: msr.DefaultRAPLUnits(),
	}
	now := eng.Now()
	m.log = sim.NewFoldLog(now, foldLogCap, m.catchUpAll)
	m.doms = make([]domain, len(top.Cores)+len(top.Packages))
	for i := range m.doms {
		m.doms[i] = domain{pos: m.log.End(), last: now}
	}
	m.shadow.init(m)
	if cfg.NoiseRel > 0 {
		m.noiseTicker = eng.NewTicker(cfg.NoisePeriod, 0, func() {
			if m.BeforeNoise != nil {
				m.BeforeNoise()
			}
			// AR(1) slow drift: keeps block averages dispersed without
			// whitening out over a measurement window.
			m.noise = 0.9*m.noise + m.rng.Gaussian(0, cfg.NoiseRel)
		})
	}
	if regs != nil {
		m.wireMSRs(regs)
	}
	return m
}

func (m *Model) wireMSRs(regs *msr.File) {
	regs.HookRead(msr.RAPLPwrUnit, func(int) uint64 { return m.units })
	regs.HookRead(msr.CoreEnergyStat, func(cpu int) uint64 {
		core := m.top.CoreOf(soc.ThreadID(cpu)).ID
		return msr.EnergyToCounter(m.readJoules(m.coreDom(core)), m.units)
	})
	regs.HookRead(msr.PkgEnergyStat, func(cpu int) uint64 {
		pkg := m.top.PackageOfThread(soc.ThreadID(cpu))
		return msr.EnergyToCounter(m.readJoules(m.pkgDom(pkg)), m.units)
	})
}

// Stop halts the noise ticker.
func (m *Model) Stop() {
	if m.noiseTicker != nil {
		m.noiseTicker.Stop()
	}
}

// NoiseFactor is the current multiplicative model error applied to fed
// power.
func (m *Model) NoiseFactor() float64 { return 1 + m.noise }

// SetCorePower feeds the modeled per-core power (machine layer).
func (m *Model) SetCorePower(core soc.CoreID, watts float64) {
	m.setPower(m.coreDom(core), watts)
}

// SetPackagePower feeds the modeled per-package power.
func (m *Model) SetPackagePower(pkg soc.PackageID, watts float64) {
	m.setPower(m.pkgDom(pkg), watts)
}

// setPower logs the current instant, at which every domain folds, and
// switches domain i to the new power after model noise. An unchanged power
// leaves the domain's folds to its next catch-up.
func (m *Model) setPower(i int, watts float64) {
	m.log.Record(m.eng.Now())
	w := math.Max(0, watts*m.NoiseFactor())
	m.shadow.set(m, i, w)
	if d := &m.doms[i]; w != d.power {
		d.catchUp(m.log, m.cfg.UpdatePeriod)
		d.power = w
	}
}

// readJoules returns domain i's boundary-quantized energy.
func (m *Model) readJoules(i int) float64 {
	d := &m.doms[i]
	d.catchUp(m.log, m.cfg.UpdatePeriod)
	d.roll(m.eng.Now(), m.cfg.UpdatePeriod)
	m.shadow.checkRead(m, i, d.snapJ)
	return d.snapJ
}

// trueJoules returns domain i's unquantized accumulated energy (for tests).
func (m *Model) trueJoules(i int) float64 {
	d := &m.doms[i]
	d.catchUp(m.log, m.cfg.UpdatePeriod)
	d.fold(m.eng.Now())
	return d.energy
}

// CoreEnergyJoules returns the quantized core-domain energy.
func (m *Model) CoreEnergyJoules(core soc.CoreID) float64 {
	return m.readJoules(m.coreDom(core))
}

// PackageEnergyJoules returns the quantized package-domain energy.
func (m *Model) PackageEnergyJoules(pkg soc.PackageID) float64 {
	return m.readJoules(m.pkgDom(pkg))
}

// CorePowerWatts returns the model's current per-core power input.
func (m *Model) CorePowerWatts(core soc.CoreID) float64 { return m.doms[m.coreDom(core)].power }

// PackagePowerWatts returns the model's current per-package power input.
func (m *Model) PackagePowerWatts(pkg soc.PackageID) float64 { return m.doms[m.pkgDom(pkg)].power }

// Config returns the model constants.
func (m *Model) Config() Config { return m.cfg }
