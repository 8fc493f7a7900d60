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
