//go:build !simcheck

package smu

import "zen2ee/internal/soc"

// checkMonitor is compiled out unless built with -tags simcheck, which
// recomputes the monitor core by core on every control tick and rejects a
// stale one.
func (m *Manager) checkMonitor(soc.PackageID, *Monitor) {}
