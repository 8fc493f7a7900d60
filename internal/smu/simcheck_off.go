//go:build !simcheck

package smu

import "zen2ee/internal/soc"

// checkMonitor is compiled out unless built with -tags simcheck, which
// recomputes the monitor core by core on every control tick and rejects a
// stale one.
func (m *Manager) checkMonitor(soc.PackageID, *Monitor) {}

// checkSkip is compiled out unless built with -tags simcheck, which draws
// the variate a quiet tick skips from a copy of the noise stream and
// rejects a skip that the variate could have moved.
func (m *Manager) checkSkip(soc.PackageID, float64, *Monitor, float64) {}

// parkShadow holds nothing unless built with -tags simcheck.
type parkShadow struct{}

// recordPark is compiled out unless built with -tags simcheck, which
// records each package's reading as the ticker parks.
func (m *Manager) recordPark() {}

// checkWake is compiled out unless built with -tags simcheck, which checks
// at a wake that no package's reading moved while parked and that the
// emulated ticks match the grid points that passed.
func (m *Manager) checkWake(uint64) {}
