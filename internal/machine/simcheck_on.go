//go:build simcheck

package machine

import (
	"fmt"

	"zen2ee/internal/power"
	"zen2ee/internal/rapl"
	"zen2ee/internal/soc"
)

// verifyRefresh recomputes every core's and thread's derived state from
// scratch and asserts bit-exact agreement with the incrementally maintained
// caches — the debug mode backing the dirty-set refresh. A panic here means
// a mutation path failed to mark its core (or the core's CCX) dirty.
func (m *Machine) verifyRefresh(raplCfg rapl.Config) {
	for c := range m.Top.Cores {
		ci, eff := m.verifyCore(soc.CoreID(c), raplCfg, "refresh")
		for _, t := range m.Top.Cores[c].Threads {
			cyc, ins, mpf := m.deriveThread(t, &ci, eff)
			if cyc != m.thrCyc[t] || ins != m.thrIns[t] || mpf != m.thrMpf[t] {
				panic(fmt.Sprintf(
					"simcheck: thread %d stale at %v: cached (%g, %g, %g) vs full (%g, %g, %g)",
					t, m.Eng.Now(), m.thrCyc[t], m.thrIns[t], m.thrMpf[t], cyc, ins, mpf))
			}
		}
	}
}

// checkActivityRead guards the SMU's reads of the refresh cache: a read
// from inside a refresh or a Batch would see a half-updated machine, and a
// read after a mutation that did not refresh would see a stale core. Both
// panic.
func (m *Machine) checkActivityRead(core soc.CoreID) {
	switch {
	case m.inRefresh:
		panic(fmt.Sprintf("simcheck: SMU read core %d inside refresh at %v", core, m.Eng.Now()))
	case m.inBatch:
		panic(fmt.Sprintf("simcheck: SMU read core %d inside Batch at %v", core, m.Eng.Now()))
	}
	m.verifyCore(core, m.RAPL.Config(), "SMU read")
}

// verifyCore re-derives a core from scratch, panics unless the cached
// input, RAPL estimate and effective frequency match it bit for bit, and
// returns the fresh input and frequency.
func (m *Machine) verifyCore(core soc.CoreID, raplCfg rapl.Config, site string) (power.CoreInput, float64) {
	var ci power.CoreInput
	w, eff := m.deriveCore(core, raplCfg, &ci)
	if ci != m.inputsBuf[core] || w != m.raplWBuf[core] || eff != m.effBuf[core] {
		panic(fmt.Sprintf(
			"simcheck: %s: core %d stale at %v: cached (%+v, %g W, %g MHz) vs full (%+v, %g W, %g MHz)",
			site, core, m.Eng.Now(), m.inputsBuf[core], m.raplWBuf[core], m.effBuf[core], ci, w, eff))
	}
	return ci, eff
}
