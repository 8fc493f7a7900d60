package core

import (
	"testing"

	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// naivePoll is the reference for pollUntilFrequency: it reads the
// controller's frequency at every poll instant, stepping the clock one
// poll at a time.
func naivePoll(m *machine.Machine, core soc.CoreID, targetMHz float64, poll, deadline sim.Duration) (sim.Duration, bool) {
	start := m.Eng.Now()
	for m.Eng.Now().Sub(start) < deadline {
		if m.DVFS.EffectiveMHz(core) == targetMHz {
			return m.Eng.Now().Sub(start), true
		}
		m.Eng.RunFor(poll)
	}
	return 0, false
}

// TestPollUntilFrequencyMatchesNaive runs the skipping poll and the naive
// loop on twin machines built from the same seed, through one sequence of
// transitions. After every case both must report the same (d, ok) and sit
// at the same clock having fired the same number of events.
func TestPollUntilFrequencyMatchesNaive(t *testing.T) {
	const poll = 2 * sim.Microsecond
	cases := []struct {
		name     string
		wait     sim.Duration // before the request
		request  int          // MHz requested on thread 0; 0 requests nothing
		capAtNow float64      // MHz cap an event queued at the poll's start applies; 0 queues none
		target   float64
		deadline sim.Duration
		ok       bool
		zero     bool // the target is already reached
	}{
		{name: "down", wait: 370 * sim.Microsecond, request: 1500, target: 1500, deadline: 20 * sim.Millisecond, ok: true},
		{name: "up", wait: 6*sim.Millisecond + 3*sim.Microsecond, request: 2200, target: 2200, deadline: 20 * sim.Millisecond, ok: true},
		{name: "reached", target: 2200, deadline: 20 * sim.Millisecond, ok: true, zero: true},
		{name: "deadline miss", wait: sim.Microsecond, target: 2500, deadline: 3*sim.Millisecond + sim.Microsecond},
		{name: "to 2.5 GHz", wait: 20 * sim.Millisecond, request: 2500, target: 2500, deadline: 20 * sim.Millisecond, ok: true},
		{name: "to 2.2 GHz", wait: 20 * sim.Millisecond, request: 2200, target: 2200, deadline: 20 * sim.Millisecond, ok: true},
		{name: "fast return up", wait: 1100 * sim.Nanosecond, request: 2500, target: 2500, deadline: 20 * sim.Millisecond, ok: true},
		// The first poll reads before the queued cap applies; the second
		// reads after it.
		{name: "same-instant event", wait: 2 * sim.Millisecond, capAtNow: 1500, target: 1500, deadline: 20 * sim.Millisecond, ok: true},
	}
	for _, seed := range []uint64{1, 2} {
		var twins [2]*machine.Machine
		for i := range twins {
			s, err := newTransitionSampler(Options{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.m.SetThreadFrequencyMHz(s.th, 2200); err != nil {
				t.Fatal(err)
			}
			s.m.Eng.RunFor(20 * sim.Millisecond)
			twins[i] = s.m
		}
		fast, ref := twins[0], twins[1]
		for _, c := range cases {
			for _, m := range twins {
				m.Eng.RunFor(c.wait)
				if c.request != 0 {
					if err := m.SetThreadFrequencyMHz(0, c.request); err != nil {
						t.Fatal(err)
					}
				}
				if c.capAtNow != 0 {
					m.Eng.Schedule(0, func() { m.DVFS.SetCapMHz(0, c.capAtNow) })
				}
			}
			d, ok := pollUntilFrequency(fast, 0, c.target, poll, c.deadline)
			wantD, wantOK := naivePoll(ref, 0, c.target, poll, c.deadline)
			if d != wantD || ok != wantOK {
				t.Fatalf("seed %d, %s: poll = (%v, %v), naive = (%v, %v)", seed, c.name, d, ok, wantD, wantOK)
			}
			if fast.Eng.Now() != ref.Eng.Now() || fast.Eng.Executed() != ref.Eng.Executed() {
				t.Fatalf("seed %d, %s: poll left clock %v after %d events, naive %v after %d",
					seed, c.name, fast.Eng.Now(), fast.Eng.Executed(), ref.Eng.Now(), ref.Eng.Executed())
			}
			if ok != c.ok || (ok && (d == 0) != c.zero) {
				t.Fatalf("seed %d, %s: (d, ok) = (%v, %v) is not the case under test", seed, c.name, d, ok)
			}
		}
	}
}
