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
//
// The domains fold lazily over a fold log the model shares with its
// feeder: a domain replays the logged instants only when its fed power
// changes or it is read. Core domains the feeder feeds alike in one call
// (SetCorePowers) share one domain copy-on-write (sim.Classes): a core
// domain bit-identical to an earlier one of its class follows it, owns no
// state of its own, and one feed of the owner serves the class. A follower
// copies its owner's domain (splits out) when it is read or fed alone,
// before its owner is read, and when a feed feeds it unlike its owner,
// taking the owner's domain from before that feed; catch-ups and noise
// steps skip followers.
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
// exactly those folds, in order, when its fed power changes or it is read,
// so its readings are bit-identical to feeding it at every instant.
type domain struct {
	pos    uint64 // log position folded through
	last   sim.Time
	fed    float64 // fed power before model noise, W
	power  float64 // power since last: max(0, fed × the noise factor in force)
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

// same reports whether d and o are bit-identical.
func (d *domain) same(o *domain) bool {
	return d.pos == o.pos && d.last == o.last && d.snapT == o.snapT &&
		math.Float64bits(d.fed) == math.Float64bits(o.fed) &&
		math.Float64bits(d.power) == math.Float64bits(o.power) &&
		math.Float64bits(d.energy) == math.Float64bits(o.energy) &&
		math.Float64bits(d.snapJ) == math.Float64bits(o.snapJ)
}

// noiseMove is a change of the noise factor in force, adopted at the
// instant at log position pos: a domain folds there at its old power and
// is charged factor × its fed power from then on.
type noiseMove struct {
	pos    uint64
	factor float64
}

// Model is the per-system RAPL state.
type Model struct {
	eng *sim.Engine
	top *soc.Topology
	cfg Config

	// log holds the instants at which power was fed; every domain folds at
	// each of them. doms holds the core domains, then the package domains;
	// classes records which core domains follow another's.
	log     *sim.FoldLog
	doms    []domain
	classes sim.Classes
	shadow  domainShadow // eager domains, -tags simcheck only

	noise       float64
	noiseTicker *sim.Ticker
	rng         *sim.RNG
	// fedNoise is the noise factor in force: the NoiseFactor of the latest
	// feed. moves lists the instants in the fold log at which it changed,
	// oldest first; a domain replaying the log re-derives its power at
	// each, so a noise step re-feeds no domain.
	fedNoise float64
	moves    []noiseMove

	units uint64

	// BeforeNoise, when set, runs just before the model noise steps, so a
	// feeder that defers its power updates to the end of the instant can
	// apply them at the noise level in force when they were made.
	BeforeNoise func()
}

// CatchUp folds every domain through the whole fold log. The log's owner
// calls it from the log's catch-up function, before the log starts over
// without noise moves.
func (m *Model) CatchUp() {
	for i := range m.doms {
		if !m.follows(i) {
			m.catchUp(&m.doms[i])
		}
	}
	m.moves = m.moves[:0]
}

// catchUp replays the folds of every instant logged since domain d last
// caught up, switching its power at each noise move on the way.
func (m *Model) catchUp(d *domain) {
	ts := m.log.Since(d.pos)
	if len(ts) == 0 {
		return
	}
	mv := len(m.moves)
	for mv > 0 && m.moves[mv-1].pos >= d.pos {
		mv--
	}
	for j, t := range ts {
		d.roll(t, m.cfg.UpdatePeriod)
		d.fold(t)
		for ; mv < len(m.moves) && m.moves[mv].pos == d.pos+uint64(j); mv++ {
			d.power = max(0, d.fed*m.moves[mv].factor)
		}
	}
	d.pos = m.log.End()
}

// coreDom and pkgDom index doms.
func (m *Model) coreDom(core soc.CoreID) int  { return int(core) }
func (m *Model) pkgDom(pkg soc.PackageID) int { return len(m.top.Cores) + int(pkg) }

// follows reports whether domain i is a core domain following another's.
func (m *Model) follows(i int) bool { return i < len(m.top.Cores) && m.classes.Follows(i) }

// state returns the domain holding domain i's state: its class owner's for
// a following core domain.
func (m *Model) state(i int) *domain {
	if i < len(m.top.Cores) {
		i = m.classes.Owner(i)
	}
	return &m.doms[i]
}

// own takes domain i out of its class ahead of a read that folds it.
func (m *Model) own(i int) {
	if i < len(m.top.Cores) {
		sim.Own(&m.classes, m.doms[:len(m.top.Cores)], i)
	}
}

// New creates the model and wires the RAPL MSRs into regs (nil regs for
// standalone use). The domains fold over log, which must start at the
// engine's current instant and whose catch-up function must call
// CatchUp.
func New(eng *sim.Engine, top *soc.Topology, cfg Config, regs *msr.File, log *sim.FoldLog) *Model {
	m := &Model{
		eng: eng, top: top, cfg: cfg,
		log:      log,
		rng:      eng.RNG().Fork(),
		units:    msr.DefaultRAPLUnits(),
		fedNoise: 1,
	}
	now := eng.Now()
	m.doms = make([]domain, len(top.Cores)+len(top.Packages))
	m.classes = sim.NewClasses(len(top.Cores))
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

// NoiseFactor is the current multiplicative model error. Fed power is
// charged at the factor of the latest feed: a noise step reaches every
// domain at the next feed of any domain.
func (m *Model) NoiseFactor() float64 { return 1 + m.noise }

// SetCorePowers feeds the modeled powers of cores first, first+1, … of one
// instant (machine layer): core first+j is fed watts[j] when cls[j] >= 0,
// and cores with equal cls must be fed equal powers. Cores fed alike share
// one domain copy-on-write (sim.Regroup), and only class owners are fed.
// No core outside the range may share a domain with one inside it.
func (m *Model) SetCorePowers(first soc.CoreID, watts []float64, cls []int16) {
	m.record()
	lo := int(first)
	sim.Regroup(&m.classes, m.doms, lo, cls, (*domain).same)
	for j, k := range cls {
		if c := lo + j; k >= 0 && !m.classes.Follows(c) {
			m.feed(&m.doms[c], watts[j])
		}
	}
	m.shadow.setCores(m, lo, watts, cls)
}

// StepCorePowers feeds the modeled powers of cores first, first+1, … of one
// instant (machine layer), core first+j fed watts[j], keeping their
// classes as they are: the feeder must feed each class alike, as it does
// when its own classes of the range are those of the last SetCorePowers
// over it. Only class owners are fed, and none regroups.
func (m *Model) StepCorePowers(first soc.CoreID, watts []float64) {
	m.record()
	lo := int(first)
	for j, w := range watts {
		if c := lo + j; !m.classes.Follows(c) {
			m.feed(&m.doms[c], w)
		}
	}
	m.shadow.setCores(m, lo, watts, nil)
}

// Splits counts the core domains copied out of their class (sim.Classes).
func (m *Model) Splits() uint64 { return m.classes.Splits() }

// SetCorePower feeds one core's modeled power, splitting its domain out of
// its class.
func (m *Model) SetCorePower(core soc.CoreID, watts float64) {
	m.setPower(m.coreDom(core), watts)
}

// SetPackagePower feeds the modeled per-package power.
func (m *Model) SetPackagePower(pkg soc.PackageID, watts float64) {
	m.setPower(m.pkgDom(pkg), watts)
}

// setPower feeds domain i alone.
func (m *Model) setPower(i int, watts float64) {
	m.record()
	m.own(i)
	m.feed(&m.doms[i], watts)
	m.shadow.set(m, i, watts)
}

// record logs the current instant, at which every domain folds, and adopts
// the current noise factor.
func (m *Model) record() {
	m.log.Record(m.eng.Now())
	if f := m.NoiseFactor(); f != m.fedNoise {
		m.adoptNoise(f)
	}
}

// feed switches domain d to a new fed power from the latest logged instant
// on. An unchanged fed power leaves the domain's folds to its next
// catch-up.
func (m *Model) feed(d *domain, watts float64) {
	if watts != d.fed {
		m.catchUp(d)
		d.fed = watts
		d.power = max(0, watts*m.fedNoise)
	}
}

// adoptNoise puts noise factor f in force from the latest logged instant
// on. A domain that has already folded there switches now; every other
// domain switches when its replay reaches the instant.
func (m *Model) adoptNoise(f float64) {
	m.fedNoise = f
	end := m.log.End()
	if end > 0 { // else nothing is logged yet, and no domain replays
		m.moves = append(m.moves, noiseMove{pos: end - 1, factor: f})
	}
	for i := range m.doms {
		if d := &m.doms[i]; d.pos == end && !m.follows(i) {
			d.power = max(0, d.fed*f)
		}
	}
	m.shadow.adopt(m)
}

// readJoules returns domain i's boundary-quantized energy.
func (m *Model) readJoules(i int) float64 {
	m.own(i)
	d := &m.doms[i]
	m.catchUp(d)
	d.roll(m.eng.Now(), m.cfg.UpdatePeriod)
	m.shadow.checkRead(m, i, d.snapJ)
	return d.snapJ
}

// trueJoules returns domain i's unquantized accumulated energy (for tests).
func (m *Model) trueJoules(i int) float64 {
	m.own(i)
	d := &m.doms[i]
	m.catchUp(d)
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

// CorePowerWatts returns the power the core domain is charged now.
func (m *Model) CorePowerWatts(core soc.CoreID) float64 { return m.powerWatts(m.coreDom(core)) }

// PackagePowerWatts returns the power the package domain is charged now.
func (m *Model) PackagePowerWatts(pkg soc.PackageID) float64 { return m.powerWatts(m.pkgDom(pkg)) }

// powerWatts is domain i's power at the noise factor in force, which its
// replay may not have reached yet.
func (m *Model) powerWatts(i int) float64 { return max(0, m.state(i).fed*m.fedNoise) }

// Config returns the model constants.
func (m *Model) Config() Config { return m.cfg }
