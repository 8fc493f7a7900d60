//go:build simcheck

package cstate

import "fmt"

// activeScan holds the scratch counts of the full scan checkActive runs.
type activeScan struct{ full []int }

// checkActive recounts every core from scratch and panics unless the
// incrementally kept active counts match — the debug mode backing the O(1)
// mutation. A panic here means a mutation changed a thread outside the core
// it was attributed to.
func (m *Model) checkActive() {
	if m.scan.full == nil {
		m.scan.full = make([]int, len(m.active))
	}
	m.coreActiveCounts(m.scan.full)
	for c, n := range m.scan.full {
		if n != m.active[c] {
			panic(fmt.Sprintf("simcheck: core %d active count %d at %v, full scan %d",
				c, m.active[c], m.eng.Now(), n))
		}
	}
}
