//go:build simcheck

package machine

import (
	"fmt"
	"math"

	"zen2ee/internal/power"
	"zen2ee/internal/rapl"
	"zen2ee/internal/sim"
	"zen2ee/internal/smu"
	"zen2ee/internal/soc"
)

// verifyRefresh recomputes every core's and thread's derived state from
// scratch and asserts bit-exact agreement with the incrementally maintained
// caches — the debug mode backing the dirty-set refresh. A panic here means
// a mutation path failed to mark its core (or the core's CCX) dirty.
func (m *Machine) verifyRefresh(raplCfg rapl.Config) {
	for c := range m.Top.Cores {
		ci, eff := m.verifyCore(soc.CoreID(c), raplCfg, "refresh")
		for _, t := range m.Top.Cores[c].Threads {
			cyc, ins, mpf := m.deriveThread(t, &ci, eff)
			tc := m.countersOf(t)
			if cyc != tc[cycles].Rate() || ins != tc[instrs].Rate() || mpf != tc[mperf].Rate() {
				panic(fmt.Sprintf(
					"simcheck: thread %d stale at %v: cached (%g, %g, %g) vs full (%g, %g, %g)",
					t, m.Eng.Now(), tc[cycles].Rate(), tc[instrs].Rate(), tc[mperf].Rate(), cyc, ins, mpf))
			}
		}
	}
}

// checkActivityRead guards the SMU's reads of the refresh cache: a read
// from inside a refresh would see a half-updated machine, and a read after
// a mutation that the read did not flush would see a stale package. Both
// panic.
func (m *Machine) checkActivityRead() {
	if m.inRefresh {
		panic(fmt.Sprintf("simcheck: SMU read inside refresh at %v", m.Eng.Now()))
	}
	m.checkFlushed()
}

// CoreActivity is the per-core reading the SMU's simcheck recomputes each
// monitor from (smu.Manager.checkMonitor): whether the core has a thread
// in C0 and, if so, its EDC current and effective clock. It re-derives the
// core from scratch and panics unless the cached values match.
func (a *activitySource) CoreActivity(core soc.CoreID) (active bool, amps, effMHz float64) {
	m := (*Machine)(a)
	m.flush()
	m.checkActivityRead()
	m.verifyCore(core, m.RAPL.Config(), "SMU read")
	return m.inputsBuf[core].ActiveThreads > 0, m.ampsBuf[core], m.effBuf[core]
}

// CachedReading is the reading the SMU's simcheck checks a parked manager
// against (smu.Manager.checkWake): package pkg's monitor and RAPL power
// estimate as the last refresh left them. It does not flush, so at a wake
// it answers from before the change that woke the manager.
func (a *activitySource) CachedReading(pkg soc.PackageID) (smu.Monitor, float64) {
	m := (*Machine)(a)
	return m.pkgs[pkg].mon, m.RAPL.PackagePowerWatts(pkg)
}

// checkEffective asserts that the refresh-cached effective frequency
// EffectiveMHz is about to return equals the controller's bit for bit.
func (m *Machine) checkEffective(core soc.CoreID) {
	if want := m.DVFS.EffectiveMHz(core); math.Float64bits(m.effBuf[core]) != math.Float64bits(want) {
		panic(fmt.Sprintf("simcheck: core %d cached effective clock %g MHz at %v, controller %g MHz",
			core, m.effBuf[core], m.Eng.Now(), want))
	}
}

// verifyFeed asserts that every RAPL core domain runs at the power a full
// re-feed would give it: a clean core skipped by the refresh must already
// hold its cached estimate at the current model noise.
func (m *Machine) verifyFeed() {
	for c, w := range m.raplWBuf {
		core := soc.CoreID(c)
		if want := math.Max(0, w*m.RAPL.NoiseFactor()); m.RAPL.CorePowerWatts(core) != want {
			panic(fmt.Sprintf("simcheck: RAPL core %d fed %g W at %v, want %g W",
				c, m.RAPL.CorePowerWatts(core), m.Eng.Now(), want))
		}
	}
}

// checkFlushed panics if a refresh is still pending after a flush.
func (m *Machine) checkFlushed() {
	if m.stale {
		panic(fmt.Sprintf("simcheck: refresh still pending after a flush at %v", m.Eng.Now()))
	}
}

// verifyCore re-derives a core from scratch, panics unless the cached
// input, RAPL estimate, effective frequency, power-model watts and EDC
// current match it bit for bit, and returns the fresh input and frequency.
func (m *Machine) verifyCore(core soc.CoreID, raplCfg rapl.Config, site string) (power.CoreInput, float64) {
	var ci power.CoreInput
	w, eff, watts, amps := m.deriveCore(core, m.DVFS.EffectiveMHz(core), raplCfg, &ci)
	if ci != m.inputsBuf[core] || w != m.raplWBuf[core] || eff != m.effBuf[core] ||
		watts != m.wattsBuf[core] || amps != m.ampsBuf[core] {
		panic(fmt.Sprintf(
			"simcheck: %s: core %d stale at %v: cached (%+v, %g W, %g MHz, %g W, %g A) vs full (%+v, %g W, %g MHz, %g W, %g A)",
			site, core, m.Eng.Now(), m.inputsBuf[core], m.raplWBuf[core], m.effBuf[core], m.wattsBuf[core], m.ampsBuf[core],
			ci, w, eff, watts, amps))
	}
	return ci, eff
}

// counterShadow keeps an eagerly folded copy of every per-thread counter:
// each refresh folds all of them and sets their rates, the folds a lazy
// counter must replay. Every lazy read must match its shadow bit for bit.
type counterShadow struct {
	eager [][numCounters]*sim.EnergyIntegrator
}

func (s *counterShadow) init(m *Machine) {
	now := m.Eng.Now()
	s.eager = make([][numCounters]*sim.EnergyIntegrator, m.Top.NumThreads())
	for t := range s.eager {
		for k := range s.eager[t] {
			s.eager[t][k] = sim.NewEnergyIntegrator(now, 0)
		}
	}
}

func (s *counterShadow) refresh(m *Machine, now sim.Time) {
	for t := range s.eager {
		tc := m.countersOf(soc.ThreadID(t))
		for k, ei := range s.eager[t] {
			ei.SetPower(now, tc[k].Rate())
		}
	}
}

func (s *counterShadow) checkRead(m *Machine, t int, k counterKind, now sim.Time, lazy float64) {
	if eager := s.eager[t][k].Energy(now); math.Float64bits(eager) != math.Float64bits(lazy) {
		panic(fmt.Sprintf("simcheck: thread %d counter %d at %v: lazy %v, eager %v", t, k, now, lazy, eager))
	}
}
