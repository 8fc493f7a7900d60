//go:build simcheck

package smu

import (
	"fmt"
	"math"

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
	for _, core := range m.pkgCores[pkg] {
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
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(fresh.Amps, mon.Amps) || !same(fresh.MaxEffMHz, mon.MaxEffMHz) ||
		!same(fresh.MaxUncappedMHz, mon.MaxUncappedMHz) || fresh.ActiveCores != mon.ActiveCores {
		panic(fmt.Sprintf(
			"simcheck: SMU monitor of package %d stale at %v: source %+v vs fresh %+v",
			pkg, m.eng.Now(), *mon, fresh))
	}
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
