//go:build !simcheck

package smu

import "zen2ee/internal/soc"

// checkMonitor is compiled out unless built with -tags simcheck, which
// recomputes the monitor on every control tick and rejects a stale cache.
func (m *Manager) checkMonitor(soc.PackageID, *monitor) {}
