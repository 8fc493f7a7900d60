//go:build !simcheck

package machine

import (
	"zen2ee/internal/rapl"
	"zen2ee/internal/soc"
)

// verifyRefresh is compiled out unless built with -tags simcheck, which
// turns every refresh into a full recompute cross-checked against the
// incrementally maintained caches.
func (m *Machine) verifyRefresh(rapl.Config) {}

// checkActivityRead is compiled out unless built with -tags simcheck, which
// re-derives a core on every SMU activity read and rejects stale caches.
func (m *Machine) checkActivityRead(soc.CoreID) {}
