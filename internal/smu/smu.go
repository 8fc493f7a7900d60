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
// Both loops run every millisecond, but the machine rarely changes between
// two ticks. The manager caches each package's monitor (noise-free current,
// fastest effective clock, release threshold) under the ActivitySource's
// epoch and recomputes it only when the epoch moves. It writes a cap to
// the DVFS controller only when the cap changes; the manager is the only
// writer of caps and boost grants. Without boost, a tick on an unchanged
// machine thus costs one noise draw, one package-power read and a few
// compares.
package smu

import (
	"math"

	"zen2ee/internal/dvfs"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// ActivitySource supplies the monitors' inputs. The machine layer
// implements it from the per-core state its last refresh derived (kernel
// descriptors and effective frequencies), so a control tick re-derives
// nothing.
//
// Epoch contract: the core readings (CoreActivity) and the controller
// state the manager reads directly (dvfs.Controller.UncappedMHz) change
// only when Epoch changes. The manager therefore recomputes its
// per-package monitor only when the epoch has moved since the last tick;
// PackageWatts, which drifts with time, is read on every tick.
type ActivitySource interface {
	// Epoch returns a counter that moves whenever any core reading or the
	// controller's applied P-states or boost grants may have changed. The
	// machine layer bumps it once per completed refresh; every controller
	// mutation queues a refresh, which Epoch runs before answering.
	Epoch() uint64
	// CoreActivity reports whether the core has any thread in C0 and, for
	// an active core, its present current draw as seen by the EDC activity
	// monitor and its effective clock as the monitor last observed it.
	CoreActivity(core soc.CoreID) (active bool, amps, effMHz float64)
	// PackageWatts returns the package's present power estimate for the
	// PPT loop.
	PackageWatts(pkg soc.PackageID) float64
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

	// capMHz is the package-wide frequency cap applied to active cores;
	// +Inf = unthrottled.
	capMHz []float64
	ticker *sim.Ticker
	// throttledTicks counts control periods with an engaged EDC cap.
	throttledTicks []uint64

	// pkgCores caches each package's cores in topology order; activeBuf and
	// idleBuf are reused per control tick so the loops stay allocation-free.
	pkgCores  [][]soc.CoreID
	activeBuf []soc.CoreID
	idleBuf   []soc.CoreID
	// monitors holds each package's activity reading as of one source
	// epoch; monitorMisses counts how often one was recomputed.
	monitors      []monitor
	monitorMisses uint64
}

// monitor is a package's noise-free activity reading: total current and
// fastest effective clock over its active cores, and the release threshold
// (fastest uncapped frequency, at least the boost ceiling). It is valid
// while the source's epoch equals epoch.
type monitor struct {
	epoch      uint64
	amps       float64
	maxApplied float64
	release    float64
	anyActive  bool
}

// New creates a manager and starts its control ticker.
func New(eng *sim.Engine, top *soc.Topology, cfg Config, ctl *dvfs.Controller, src ActivitySource) *Manager {
	m := &Manager{
		eng: eng, top: top, cfg: cfg, ctl: ctl, src: src,
		rng:            eng.RNG().Fork(),
		capMHz:         make([]float64, len(top.Packages)),
		throttledTicks: make([]uint64, len(top.Packages)),
	}
	for i := range m.capMHz {
		m.capMHz[i] = math.Inf(1)
	}
	m.pkgCores = make([][]soc.CoreID, len(top.Packages))
	for _, core := range top.Cores {
		pkg := top.PackageOfCore(core.ID)
		m.pkgCores[pkg] = append(m.pkgCores[pkg], core.ID)
	}
	// Start one epoch behind the source, so the first tick measures.
	m.monitors = make([]monitor, len(top.Packages))
	for p := range m.monitors {
		m.monitors[p].epoch = src.Epoch() - 1
	}
	m.ticker = eng.NewTicker(cfg.ControlPeriod, cfg.ControlPeriod/2, m.tick)
	return m
}

// Stop halts the control loop (for ablation experiments).
func (m *Manager) Stop() { m.ticker.Stop() }

// CapMHz returns the current package cap (+Inf when unthrottled).
func (m *Manager) CapMHz(pkg soc.PackageID) float64 { return m.capMHz[pkg] }

// Throttling reports whether the package is currently EDC/PPT-throttled.
func (m *Manager) Throttling(pkg soc.PackageID) bool {
	return !math.IsInf(m.capMHz[pkg], 1)
}

// ThrottledTicks returns how many control periods the package spent capped.
func (m *Manager) ThrottledTicks(pkg soc.PackageID) uint64 {
	return m.throttledTicks[pkg]
}

func (m *Manager) tick() {
	for p := range m.top.Packages {
		m.controlPackage(soc.PackageID(p))
	}
}

func (m *Manager) controlPackage(pkg soc.PackageID) {
	// Boost ladder first: grant per-core boost according to how many cores
	// are active, then let the EDC/PPT loops cap the result.
	if m.cfg.BoostMHz > 0 {
		m.applyBoost(pkg)
	}

	// Monitor: noisy package current and power readings.
	noise := 1 + m.cfg.SensorNoiseRel*m.rng.NormFloat64()
	mon := m.monitorFor(pkg)
	amps := mon.amps * noise
	watts := m.src.PackageWatts(pkg) * noise

	cap := m.capMHz[pkg]
	overEDC := amps > m.cfg.EDCAmps
	overPPT := m.cfg.TDPWatts > 0 && watts > m.cfg.TDPWatts

	switch {
	case !mon.anyActive:
		// Nothing to throttle; release the cap.
		cap = math.Inf(1)
	case overEDC || overPPT:
		base := cap
		if math.IsInf(base, 1) {
			base = mon.maxApplied
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
		cap = math.Max(m.cfg.MinCapMHz, base-steps*m.cfg.StepMHz)
		m.throttledTicks[pkg]++
	default:
		// Headroom check with projection: only step up if the projected
		// current at cap+step stays within the limit. This keeps the
		// steady state pinned just below the limit instead of oscillating
		// across it every period.
		if !math.IsInf(cap, 1) {
			next := cap + m.cfg.StepMHz
			projected := amps * m.projectionRatio(cap, next)
			if projected <= m.cfg.EDCAmps {
				cap = next
				if cap >= mon.release {
					cap = math.Inf(1)
				}
			} else {
				m.throttledTicks[pkg]++
			}
		}
	}
	// The manager is the only writer of caps, always package-wide, and the
	// controller starts every core at +Inf like capMHz; an unchanged cap is
	// therefore already applied.
	if cap != m.capMHz[pkg] {
		m.capMHz[pkg] = cap
		m.applyCap(pkg, cap)
	}
}

// monitorFor returns the package's activity reading, recomputing it only
// when the source's epoch has moved since it was cached.
func (m *Manager) monitorFor(pkg soc.PackageID) *monitor {
	mon := &m.monitors[pkg]
	if e := m.src.Epoch(); mon.epoch != e {
		*mon = m.measure(pkg)
		mon.epoch = e
		m.monitorMisses++
	}
	m.checkMonitor(pkg, mon)
	return mon
}

// measure reads the package's activity from the source. Core order and
// float operations are fixed, so the result is bit-identical however often
// it is recomputed.
func (m *Manager) measure(pkg soc.PackageID) monitor {
	// The release threshold: caps at or above the fastest requested
	// (uncapped) frequency are moot.
	mon := monitor{release: m.cfg.BoostMHz}
	for _, core := range m.pkgCores[pkg] {
		active, amps, eff := m.src.CoreActivity(core)
		if !active {
			continue
		}
		mon.anyActive = true
		mon.amps += amps
		if eff > mon.maxApplied {
			mon.maxApplied = eff
		}
		if f := m.ctl.UncappedMHz(core); f > mon.release {
			mon.release = f
		}
	}
	return mon
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
// and distributes it. With BoostFreeCores at the default, a lightly-loaded
// package boosts to the full single-core maximum and descends by
// BoostSlopeMHz per additional active core down to nominal.
func (m *Manager) applyBoost(pkg soc.PackageID) {
	active, idle := m.activeBuf[:0], m.idleBuf[:0]
	for _, core := range m.pkgCores[pkg] {
		if on, _, _ := m.src.CoreActivity(core); on {
			active = append(active, core)
		} else {
			idle = append(idle, core)
		}
	}
	m.activeBuf, m.idleBuf = active, idle
	grant := m.cfg.BoostMHz
	if len(active) > m.cfg.BoostFreeCores {
		grant -= m.cfg.BoostSlopeMHz * float64(len(active)-m.cfg.BoostFreeCores)
	}
	if grant < 0 {
		grant = 0
	}
	m.ctl.SetBoostsMHz(active, grant)
	m.ctl.SetBoostsMHz(idle, 0)
}

func (m *Manager) applyCap(pkg soc.PackageID, cap float64) {
	cores := m.pkgCores[pkg]
	if math.IsInf(cap, 1) {
		m.ctl.SetCapsMHz(cores, 0) // uncap
	} else {
		m.ctl.SetCapsMHz(cores, cap)
	}
}
