// Package smu models the System Management Unit network of a Rome package:
// one SMU per die with a master running the package control loops (Burd et
// al.). The loop relevant to the paper's findings is the EDC manager
// (§V-E): "an intelligent EDC manager which monitors activity ... and
// throttles execution only when necessary". Dense 256-bit FMA streams
// (FIRESTARTER) exceed the electrical design current at nominal frequency,
// so the manager steps the core clocks down in 25 MHz increments until the
// package current meets the limit — landing at the paper's 2.03 GHz (SMT) /
// 2.10 GHz (no SMT) steady states, with the small sample-to-sample jitter
// the paper reports (σ ≈ 3 MHz and 0.8 MHz).
//
// A package power-tracking (PPT) loop against the TDP is implemented as
// well; on the paper's workloads it never engages (RAPL reports 170 W
// against a 180 W TDP), which the integration tests verify.
//
// Both loops decide once per 1 ms control period, but the machine rarely
// changes between two ticks. The manager reads each package's noise-free
// monitor (active cores, current, fastest effective and uncapped clocks)
// from its ActivitySource, which keeps it current as the machine changes,
// so a tick measures no core. The DVFS controller owns each package's cap:
// a tick steps from the cap the controller holds (dvfs.Controller.CapMHz)
// and writes its decision back there, which notifies only when the cap
// moves. The manager is the only writer of caps and boost grants, and it
// keeps no copy of either. The monitors' noise only matters near a limit,
// so a tick computes a noise variate only where it can move a cap (Stats
// counts them); elsewhere it advances the noise stream without one
// (sim.RNG.SkipNorm), which keeps every later draw the same. Without
// boost, a tick on an idle package thus costs one monitor read and a few
// compares, and one on an uncapped package well within its limits adds a
// package-power read.
//
// The readings change only at a refresh, which only follows a change of
// the machine, so a tick on which every package is quiet and nothing
// changes is followed by the same tick until the machine changes. After
// such a tick the manager parks its ticker (sim.Ticker.Park): the engine
// emulates the ticks and runs no tick event until the machine calls Wake,
// which advances the noise stream by one skipped draw per emulated package
// tick, as the ticks would have.
package smu

import (
	"math"

	"zen2ee/internal/dvfs"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// ActivitySource supplies the monitors' inputs. The machine layer
// implements it from the state its last refresh derived: each refresh
// recomputes the monitor of every package it touched, so a control tick
// re-derives nothing and reads no core.
//
// Both methods answer for the present instant: a change made before the
// call (a kernel started, a P-state reached, a cap or boost written by the
// manager itself) shows in the answer. Both answers may change only at a
// refresh after a change of the machine, and the machine calls
// Manager.Wake at every change: a parked manager relies on both.
type ActivitySource interface {
	// Monitor returns the package's activity reading.
	Monitor(pkg soc.PackageID) Monitor
	// PackageWatts returns the package's present power estimate for the
	// PPT loop. Its temperature-leak term is the one of the source's last
	// refresh, not of the present temperature. A tick reads package 0
	// before package 1, so when package 0's cap moves in a tick, package
	// 1's reading comes from the refresh that cap write causes; otherwise
	// it comes from an earlier refresh. Parking relies on this reading
	// changing only at a refresh.
	PackageWatts(pkg soc.PackageID) float64
}

// Monitor is a package's noise-free activity reading over its active
// cores, those with a thread in C0.
type Monitor struct {
	// ActiveCores counts the active cores.
	ActiveCores int
	// Amps is the active cores' current draw as the EDC activity monitor
	// sees it, summed in core order.
	Amps float64
	// MaxEffMHz is the fastest effective clock of an active core.
	MaxEffMHz float64
	// MaxUncappedMHz is the fastest uncapped clock
	// (dvfs.Controller.UncappedMHz) of an active core: caps at or above it
	// are moot.
	MaxUncappedMHz float64
}

// Config holds the control-loop parameters.
type Config struct {
	// EDCAmps is the per-package electrical design current limit.
	EDCAmps float64
	// TDPWatts is the per-package power limit for the PPT loop.
	TDPWatts float64
	// ControlPeriod is the loop interval (1 ms, matching the paper's
	// transition-slot grid).
	ControlPeriod sim.Duration
	// StepMHz is the throttle granularity (Precision Boost steps).
	StepMHz float64
	// MinCapMHz bounds throttling from below.
	MinCapMHz float64
	// SensorNoiseRel is the relative 1σ noise of the activity monitors;
	// it produces the steady-state frequency jitter of Fig. 6.
	SensorNoiseRel float64
	// BoostMHz, when > 0, enables Core Performance Boost: the SMU grants
	// clocks above the nominal P-state. The paper's experiments run with
	// boost disabled; the boost extension verifies the paper's observation
	// that boost has "almost no influence" under FIRESTARTER (EDC binds
	// first).
	BoostMHz float64
	// BoostFreeCores is how many active cores may hold the full boost
	// grant before the ladder descends.
	BoostFreeCores int
	// BoostSlopeMHz is the grant reduction per additional active core
	// beyond BoostFreeCores (floored at the nominal frequency).
	BoostSlopeMHz float64
}

// DefaultConfig returns the EPYC 7502 parameters.
func DefaultConfig() Config {
	return Config{
		EDCAmps:        140,
		TDPWatts:       180,
		ControlPeriod:  sim.Millisecond,
		StepMHz:        25,
		MinCapMHz:      400,
		SensorNoiseRel: 0.01,
		BoostMHz:       0,
	}
}

// Manager runs the per-package control loops.
type Manager struct {
	eng *sim.Engine
	top *soc.Topology
	cfg Config
	ctl *dvfs.Controller
	src ActivitySource
	rng *sim.RNG

	ticker *sim.Ticker
	// calm marks, during a tick, that every package has been quiet and
	// nothing has changed since the tick began.
	calm bool
	park parkShadow // the readings at park, -tags simcheck only
	// throttledTicks counts control periods with an engaged EDC cap.
	throttledTicks []uint64
	stats          Stats
}

// New creates a manager and starts its control ticker.
func New(eng *sim.Engine, top *soc.Topology, cfg Config, ctl *dvfs.Controller, src ActivitySource) *Manager {
	m := &Manager{
		eng: eng, top: top, cfg: cfg, ctl: ctl, src: src,
		rng:            new(sim.RNG),
		throttledTicks: make([]uint64, len(top.Packages)),
	}
	m.ticker = eng.NewStoppedTicker(cfg.ControlPeriod, cfg.ControlPeriod/2, m.tick)
	m.Reset()
	return m
}

// Reset puts the manager back to what New returns on its engine as it
// stands: it forks the noise stream from the engine's RNG again, zeroes
// its counts and re-arms the control ticker, a stopped one included. The
// machine calls it right after resetting the engine.
func (m *Manager) Reset() {
	m.eng.RNG().ForkInto(m.rng)
	m.calm, m.park, m.stats = false, parkShadow{}, Stats{}
	clear(m.throttledTicks)
	m.ticker.Start()
}

// Stop halts the control loop (for ablation experiments).
func (m *Manager) Stop() {
	m.Wake()
	m.ticker.Stop()
}

// Wake tells the manager that the machine changed. The ActivitySource's
// owner calls it at every change, the manager's own cap and boost writes
// included. A parked manager queues its next tick again and advances the
// noise stream by one skipped draw per package tick emulated since it
// parked.
func (m *Manager) Wake() {
	m.calm = false
	if m.ticker.Parked() {
		m.resume()
	}
}

// resume wakes the parked ticker and replays the emulated package ticks.
func (m *Manager) resume() {
	n := m.ticker.Wake()
	m.checkWake(n)
	n *= uint64(len(m.top.Packages))
	for i := uint64(0); i < n; i++ {
		m.rng.SkipNorm()
	}
	m.stats.Ticks += n
	m.stats.Parked += n
}

// Throttling reports whether the package is currently EDC/PPT-throttled:
// whether the controller holds a cap for it.
func (m *Manager) Throttling(pkg soc.PackageID) bool {
	return !math.IsInf(m.ctl.CapMHz(pkg), 1)
}

// ThrottledTicks returns how many control periods the package spent capped.
func (m *Manager) ThrottledTicks(pkg soc.PackageID) uint64 {
	return m.throttledTicks[pkg]
}

// Stats counts the manager's control work since New or Reset.
type Stats struct {
	// Ticks counts package control steps, one per package per period,
	// emulated ones included.
	Ticks uint64
	// Transforms counts the steps that computed a noise variate (one
	// Box-Muller transform each); the others only advanced the noise
	// stream.
	Transforms uint64
	// Parked counts the package control steps of ticks the engine
	// emulated while the ticker was parked.
	Parked uint64
}

// Stats returns the control counts since New or Reset.
func (m *Manager) Stats() Stats {
	s := m.stats
	n := m.ticker.Skipped() * uint64(len(m.top.Packages))
	s.Ticks += n
	s.Parked += n
	return s
}

func (m *Manager) tick() {
	m.calm = true
	for p := range m.top.Packages {
		m.controlPackage(soc.PackageID(p))
	}
	if m.calm {
		m.recordPark()
		m.ticker.Park()
	}
}

func (m *Manager) controlPackage(pkg soc.PackageID) {
	// Boost ladder first: grant per-core boost according to how many cores
	// are active, then let the EDC/PPT loops cap the result.
	if m.cfg.BoostMHz > 0 {
		m.applyBoost(pkg)
	}
	m.stats.Ticks++

	// Monitor: noisy package current and power readings. The noise only
	// matters where it can move the cap. A quiet tick is one where it
	// cannot: with no active core the cap is released whatever the
	// readings, and an uncapped package whose readings stay within both
	// limits under the largest noise (sim.NormBound) stays uncapped. A
	// quiet tick advances the noise stream without computing a variate.
	// The manager's RNG is its own fork, so reading the monitor before
	// drawing changes no other stream.
	mon := m.src.Monitor(pkg)
	m.checkMonitor(pkg, &mon)
	cap := m.ctl.CapMHz(pkg)
	var watts float64
	quiet := mon.ActiveCores == 0
	if !quiet {
		watts = m.src.PackageWatts(pkg)
		margin := 1 + math.Abs(m.cfg.SensorNoiseRel)*sim.NormBound
		quiet = math.IsInf(cap, 1) && mon.Amps*margin <= m.cfg.EDCAmps &&
			(m.cfg.TDPWatts <= 0 || watts*margin <= m.cfg.TDPWatts)
	}
	if quiet {
		m.checkSkip(pkg, cap, &mon, watts)
		m.rng.SkipNorm()
		m.ctl.SetCapMHz(pkg, math.Inf(1))
		return
	}
	m.calm = false
	m.stats.Transforms++
	noise := 1 + m.cfg.SensorNoiseRel*m.rng.NormFloat64()
	cap, throttled := m.decide(cap, &mon, mon.Amps*noise, watts*noise)
	if throttled {
		m.throttledTicks[pkg]++
	}
	m.ctl.SetCapMHz(pkg, cap)
}

// decide returns the package's next cap, and whether it stays throttled,
// from its present cap, its monitor and the noisy current and power
// readings.
func (m *Manager) decide(cap float64, mon *Monitor, amps, watts float64) (float64, bool) {
	// Caps at or above the release threshold, the fastest uncapped clock
	// but at least the boost ceiling, are moot.
	release := m.cfg.BoostMHz
	if mon.MaxUncappedMHz > release {
		release = mon.MaxUncappedMHz
	}
	overEDC := amps > m.cfg.EDCAmps
	overPPT := m.cfg.TDPWatts > 0 && watts > m.cfg.TDPWatts

	switch {
	case mon.ActiveCores == 0:
		// Nothing to throttle; release the cap.
		return math.Inf(1), false
	case overEDC || overPPT:
		base := cap
		if math.IsInf(base, 1) {
			base = mon.MaxEffMHz
		}
		// Proportional response: far above the limit (e.g. load onset at
		// full clock) the manager drops several 25 MHz steps per period, so
		// the electrical excursion lasts single-digit milliseconds; near
		// the limit it converges in single steps (preserving the Fig. 6
		// steady-state dither).
		steps := 1.0
		if overEDC && m.cfg.EDCAmps > 0 {
			steps += math.Floor((amps/m.cfg.EDCAmps - 1) * 10)
		}
		if overPPT && m.cfg.TDPWatts > 0 {
			if s := 1 + math.Floor((watts/m.cfg.TDPWatts-1)*10); s > steps {
				steps = s
			}
		}
		if steps > 8 {
			steps = 8
		}
		return math.Max(m.cfg.MinCapMHz, base-steps*m.cfg.StepMHz), true
	case math.IsInf(cap, 1):
		return cap, false
	}
	// Headroom check with projection: only step up if the projected
	// current at cap+step stays within the limit. This keeps the steady
	// state pinned just below the limit instead of oscillating across it
	// every period.
	next := cap + m.cfg.StepMHz
	if amps*m.projectionRatio(cap, next) <= m.cfg.EDCAmps {
		if next >= release {
			next = math.Inf(1)
		}
		return next, false
	}
	return cap, true
}

// projectionRatio estimates the current scaling from frequency f0 to f1
// (current ∝ f·V(f)).
func (m *Manager) projectionRatio(f0, f1 float64) float64 {
	i0 := f0 * m.ctl.VoltageAt(f0)
	i1 := f1 * m.ctl.VoltageAt(f1)
	if i0 <= 0 {
		return 1
	}
	return i1 / i0
}

// applyBoost computes the package's boost grant from the active-core count
// and grants it to the active cores. With BoostFreeCores at the default, a
// lightly-loaded package boosts to the full single-core maximum and
// descends by BoostSlopeMHz per additional active core down to nominal.
func (m *Manager) applyBoost(pkg soc.PackageID) {
	active := m.src.Monitor(pkg).ActiveCores
	grant := m.cfg.BoostMHz
	if active > m.cfg.BoostFreeCores {
		grant -= m.cfg.BoostSlopeMHz * float64(active-m.cfg.BoostFreeCores)
	}
	if grant < 0 {
		grant = 0
	}
	m.ctl.SetBoostsMHz(m.top.Packages[pkg].Cores, grant)
}
