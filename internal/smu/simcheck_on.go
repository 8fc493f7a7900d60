//go:build simcheck

package smu

import (
	"fmt"
	"math"

	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// coreSource is the per-core reading a simcheck build checks each monitor
// against: whether the core has a thread in C0 and, for an active core,
// its current draw and effective clock. Every ActivitySource implements it
// under -tags simcheck.
type coreSource interface {
	CoreActivity(core soc.CoreID) (active bool, amps, effMHz float64)
}

// checkMonitor recomputes the package's monitor from scratch, core by core
// in core order, and panics unless every field matches the source's
// monitor bit for bit. A panic here means a reading changed without the
// source recomputing its monitor. The fresh reads go through the source,
// so a machine source re-derives each core as it answers.
func (m *Manager) checkMonitor(pkg soc.PackageID, mon *Monitor) {
	src, ok := m.src.(coreSource)
	if !ok {
		panic(fmt.Sprintf("simcheck: activity source %T has no CoreActivity to check its monitor against", m.src))
	}
	var fresh Monitor
	for _, core := range m.top.Packages[pkg].Cores {
		active, amps, eff := src.CoreActivity(core)
		if !active {
			continue
		}
		fresh.ActiveCores++
		fresh.Amps += amps
		if eff > fresh.MaxEffMHz {
			fresh.MaxEffMHz = eff
		}
		if f := m.ctl.UncappedMHz(core); f > fresh.MaxUncappedMHz {
			fresh.MaxUncappedMHz = f
		}
	}
	if !sameMonitor(&fresh, mon) {
		panic(fmt.Sprintf(
			"simcheck: SMU monitor of package %d stale at %v: source %+v vs fresh %+v",
			pkg, m.eng.Now(), *mon, fresh))
	}
}

// same reports whether two floats are bit-equal.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// sameMonitor reports whether two monitors are bit-equal.
func sameMonitor(a, b *Monitor) bool {
	return a.ActiveCores == b.ActiveCores && same(a.Amps, b.Amps) &&
		same(a.MaxEffMHz, b.MaxEffMHz) && same(a.MaxUncappedMHz, b.MaxUncappedMHz)
}

// checkSkip is the oracle of a quiet tick, one that skips its noise draw
// and releases the cap or leaves it released. It draws the skipped
// variate from a copy of the manager's RNG and panics if the noisy
// current or power of an active package would have crossed its limit, or
// if the noisy readings would have decided anything but an unthrottled,
// uncapped package.
func (m *Manager) checkSkip(pkg soc.PackageID, cap float64, mon *Monitor, watts float64) {
	shadow := *m.rng
	noise := 1 + m.cfg.SensorNoiseRel*shadow.NormFloat64()
	amps, noisyW := mon.Amps*noise, watts*noise
	if mon.ActiveCores > 0 && (amps > m.cfg.EDCAmps || m.cfg.TDPWatts > 0 && noisyW > m.cfg.TDPWatts) {
		panic(fmt.Sprintf(
			"simcheck: SMU package %d skipped its noise draw at %v, but the noisy readings %v A, %v W cross the limits %v A, %v W",
			pkg, m.eng.Now(), amps, noisyW, m.cfg.EDCAmps, m.cfg.TDPWatts))
	}
	if next, throttled := m.decide(cap, mon, amps, noisyW); !math.IsInf(next, 1) || throttled {
		panic(fmt.Sprintf(
			"simcheck: SMU package %d skipped its noise draw at %v and released its cap, but the noisy readings decide cap %v (throttled %v)",
			pkg, m.eng.Now(), next, throttled))
	}
}

// cachedSource is the reading a simcheck build checks a parked manager
// against: each package's monitor and power estimate as the source last
// derived them, read without refreshing. Every ActivitySource implements
// it under -tags simcheck.
type cachedSource interface {
	CachedReading(pkg soc.PackageID) (mon Monitor, watts float64)
}

// parkShadow holds what the manager parked on: each package's cached
// reading and the grid point of the first emulated tick.
type parkShadow struct {
	mons  []Monitor
	watts []float64
	next  sim.Time
}

// recordPark records each package's cached reading as the ticker parks,
// at the end of a tick.
func (m *Manager) recordPark() {
	src := m.cachedSource()
	p := &m.park
	p.mons, p.watts = p.mons[:0], p.watts[:0]
	for pkg := range m.top.Packages {
		mon, w := src.CachedReading(soc.PackageID(pkg))
		p.mons = append(p.mons, mon)
		p.watts = append(p.watts, w)
	}
	p.next = m.eng.Now().Add(m.cfg.ControlPeriod)
}

// checkWake runs as the parked ticker wakes, after n emulated ticks and
// before the change that woke it is refreshed. It panics unless every
// package's cached reading is bit-equal to the one the manager parked on
// (so every emulated tick would have been quiet, as the parking tick
// was), and unless n counts the grid points that passed: those before the
// present instant, and perhaps the one at it.
func (m *Manager) checkWake(n uint64) {
	src := m.cachedSource()
	for pkg, parked := range m.park.mons {
		mon, w := src.CachedReading(soc.PackageID(pkg))
		if !sameMonitor(&mon, &parked) || !same(w, m.park.watts[pkg]) {
			panic(fmt.Sprintf(
				"simcheck: SMU package %d woke at %v reading %+v, %v W, but parked on %+v, %v W: the source refreshed without waking the manager",
				pkg, m.eng.Now(), mon, w, parked, m.park.watts[pkg]))
		}
	}
	now, period := m.eng.Now(), m.cfg.ControlPeriod
	// passed(inclusive) counts the grid points from the parked one to now.
	passed := func(inclusive bool) uint64 {
		d := now.Sub(m.park.next)
		if d < 0 || d == 0 && !inclusive {
			return 0
		}
		if !inclusive {
			d--
		}
		return 1 + uint64(d/period)
	}
	if lo, hi := passed(false), passed(true); n < lo || n > hi {
		panic(fmt.Sprintf(
			"simcheck: SMU woke at %v after %d emulated ticks, but %d to %d grid points passed since %v",
			now, n, lo, hi, m.park.next))
	}
}

func (m *Manager) cachedSource() cachedSource {
	src, ok := m.src.(cachedSource)
	if !ok {
		panic(fmt.Sprintf("simcheck: activity source %T has no CachedReading to check a parked manager against", m.src))
	}
	return src
}
