//go:build !simcheck

package machine

import (
	"zen2ee/internal/rapl"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// verifyRefresh is compiled out unless built with -tags simcheck, which
// turns every refresh into a full recompute cross-checked against the
// incrementally maintained caches.
func (m *Machine) verifyRefresh(rapl.Config) {}

// checkActivityRead is compiled out unless built with -tags simcheck, which
// rejects an SMU monitor read inside a refresh or with a refresh pending;
// the SMU's own simcheck then re-derives every core of the package.
func (m *Machine) checkActivityRead() {}

// checkEffective is compiled out unless built with -tags simcheck, which
// checks every cached EffectiveMHz answer against the DVFS controller.
func (m *Machine) checkEffective(soc.CoreID) {}

// verifyFeed is compiled out unless built with -tags simcheck, which
// checks every RAPL core domain's input against the cached estimate.
func (m *Machine) verifyFeed() {}

// checkFlushed is compiled out unless built with -tags simcheck, which
// asserts that no refresh is pending after a flush.
func (m *Machine) checkFlushed() {}

// counterShadow is empty unless built with -tags simcheck, which keeps an
// eagerly folded copy of every counter and checks each lazy read against it.
type counterShadow struct{}

func (counterShadow) init(*Machine)                                           {}
func (counterShadow) refresh(*Machine, sim.Time)                              {}
func (counterShadow) checkRead(*Machine, int, counterKind, sim.Time, float64) {}
