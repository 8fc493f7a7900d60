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
