//go:build simcheck

package smu

import (
	"fmt"
	"math"

	"zen2ee/internal/soc"
)

// checkMonitor recomputes the package's monitor from scratch and panics
// unless every field matches the cached one bit for bit — the debug mode
// backing the epoch cache. A panic here means some reading changed without
// moving the source's epoch. The fresh reads go through the source, so a
// machine source re-derives each core as it answers.
func (m *Manager) checkMonitor(pkg soc.PackageID, mon *monitor) {
	fresh := m.measure(pkg)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if !same(fresh.amps, mon.amps) || !same(fresh.maxApplied, mon.maxApplied) ||
		!same(fresh.release, mon.release) || fresh.anyActive != mon.anyActive {
		panic(fmt.Sprintf(
			"simcheck: SMU monitor of package %d stale at %v (epoch %d): cached %+v vs fresh %+v",
			pkg, m.eng.Now(), mon.epoch, *mon, fresh))
	}
}
