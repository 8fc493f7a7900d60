//go:build simcheck

package rapl

import (
	"fmt"
	"math"

	"zen2ee/internal/sim"
)

// domainShadow keeps an eagerly folded copy of every domain: at each new
// instant at which power is fed, every eager domain rolls its snapshot and
// folds there, the folds a lazy domain must replay. Every lazy read must
// match its shadow bit for bit.
type domainShadow struct {
	eager []eagerDomain
	last  sim.Time
}

type eagerDomain struct {
	ei    *sim.EnergyIntegrator
	snapJ float64
	snapT sim.Time
}

func (e *eagerDomain) roll(now sim.Time, period sim.Duration) {
	b := sim.Time(int64(now) / int64(period) * int64(period))
	if b > e.snapT {
		e.snapJ = e.ei.Energy(b)
		e.snapT = b
	}
}

func (s *domainShadow) init(m *Model) {
	s.last = m.eng.Now()
	s.eager = make([]eagerDomain, len(m.doms))
	for i := range s.eager {
		s.eager[i].ei = sim.NewEnergyIntegrator(s.last, 0)
	}
}

// set feeds eager domain i fed power watts at the noise factor in force.
func (s *domainShadow) set(m *Model, i int, watts float64) {
	w := math.Max(0, watts*m.fedNoise)
	now := m.eng.Now()
	if now != s.last {
		for j := range s.eager {
			s.eager[j].roll(now, m.cfg.UpdatePeriod)
			s.eager[j].ei.Advance(now)
		}
		s.last = now
	}
	s.eager[i].ei.SetPower(now, w)
}

// setCores feeds eager core domain lo+j fed power watts[j] wherever
// cls[j] >= 0, or everywhere for a nil cls.
func (s *domainShadow) setCores(m *Model, lo int, watts []float64, cls []int16) {
	for j, w := range watts {
		if cls == nil || cls[j] >= 0 {
			s.set(m, lo+j, w)
		}
	}
}

// adopt re-feeds every eager domain at the noise factor just put in force,
// as a feeder re-feeding every domain after a noise step would.
func (s *domainShadow) adopt(m *Model) {
	for i := range m.doms {
		s.set(m, i, m.state(i).fed)
	}
}

func (s *domainShadow) checkRead(m *Model, i int, lazy float64) {
	e := &s.eager[i]
	e.roll(m.eng.Now(), m.cfg.UpdatePeriod)
	if math.Float64bits(e.snapJ) != math.Float64bits(lazy) {
		panic(fmt.Sprintf("simcheck: RAPL domain %d at %v: lazy %v J, eager %v J", i, m.eng.Now(), lazy, e.snapJ))
	}
}
