// Package cstate models the idle-power-state behaviour of the Zen 2 system
// as characterized in §VI of the paper:
//
//   - Three OS-visible states: C0 (active), C1 (entered via monitor/mwait,
//     core clock-gated, cycle counters halted) and C2 (entered via an I/O port
//     read in the C-state address range, core power-gated).
//   - ACPI reports transition latencies of 1 µs / 400 µs and useless power
//     values (UINT_MAX for C0, 0 for the idle states).
//   - Measured wake-up latencies are frequency-dependent for C1 (≈2250 core
//     cycles: 1 µs at 2.2/2.5 GHz, 1.5 µs at 1.5 GHz) and 20–25 µs for C2 —
//     far below the ACPI-reported 400 µs. Remote (cross-socket) wake-ups add
//     about 1 µs.
//   - A package deep-sleep state (PC6-like) with a single criterion: every
//     thread of every package must reside in the deepest C-state.
//   - The §VI-B anomaly: hardware threads taken offline through sysfs are
//     elevated to C1 (instead of parking in the deepest state), pinning the
//     whole system at C1-level power until they are explicitly re-onlined.
//     The model owns each thread's online state (SetOnline, Online).
//
// The model keeps each core's count of C0 threads up to date as states
// change, so a mutation costs O(1): every mutator changes one thread and
// can only move that thread's core. Builds with `-tags simcheck` check the
// counts against a full scan after every mutation. The model is the only
// owner of those counts: the DVFS controller reads them in place
// (ActiveThreads), and no other layer keeps a copy.
package cstate

import (
	"fmt"
	"math"

	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// State is an OS-numbered C-state (the paper uses OS numbering).
type State int

// The three states supported by the paper's test system.
const (
	C0 State = iota // active
	C1              // clock-gated, mwait
	C2              // power-gated, I/O port 0x814
)

func (s State) String() string {
	switch s {
	case C0:
		return "C0"
	case C1:
		return "C1"
	case C2:
		return "C2"
	}
	return fmt.Sprintf("C%d?", int(s))
}

// NumStates is the number of supported C-states (including C0).
const NumStates = 3

// ACPIInfo is what the hardware reports to the OS for one C-state.
type ACPIInfo struct {
	State   State
	Latency sim.Duration // reported worst-case transition latency
	// PowerMilliwatts is the reported average power. The paper finds these
	// values to be useless: UINT_MAX for C0 and 0 for the idle states.
	PowerMilliwatts uint32
	// Entry mechanism, for documentation: "mwait" or "ioport".
	Entry string
}

// Config holds the latency model parameters.
type Config struct {
	// C1ExitCycles: C1 wake-up cost in core cycles (frequency-dependent).
	C1ExitCycles float64
	// C2ExitBase + C2ExitCycles/f: C2 wake-up cost.
	C2ExitBase   sim.Duration
	C2ExitCycles float64
	// RemoteWakeExtra is added when the waker sits on another package.
	RemoteWakeExtra sim.Duration
	// ACPI-reported (not measured) latencies.
	ACPIC1Latency sim.Duration
	ACPIC2Latency sim.Duration
	// IOPort is the C-state trigger port (C-state base address MSR).
	IOPort uint16
	// OfflineElevatesToC1 enables the §VI-B anomaly.
	OfflineElevatesToC1 bool
}

// DefaultConfig returns the paper's measured/reported parameters.
func DefaultConfig() Config {
	return Config{
		C1ExitCycles:        2250,
		C2ExitBase:          19 * sim.Microsecond,
		C2ExitCycles:        9000,
		RemoteWakeExtra:     1 * sim.Microsecond,
		ACPIC1Latency:       1 * sim.Microsecond,
		ACPIC2Latency:       400 * sim.Microsecond,
		IOPort:              0x814,
		OfflineElevatesToC1: true,
	}
}

// Model tracks per-thread C-states and derives core and package states.
type Model struct {
	eng *sim.Engine
	top *soc.Topology
	cfg Config

	requested []State // what the OS asked for, per thread
	online    []bool  // sysfs online state, per thread
	// enabled[t][s] — sysfs "disable" files; C0 cannot be disabled.
	enabled [][NumStates]bool

	// active[c] is core c's number of C0 threads, kept current by mutate.
	active []int
	scan   activeScan // full-scan cross-check, -tags simcheck only

	// AfterChange, when set, runs after any effective-state mutation.
	AfterChange func()
	// Dirty, when set, is invoked with the thread whose state is mutating,
	// before AfterChange fires — the machine layer uses it to scope its
	// incremental refresh.
	Dirty func(t soc.ThreadID)
}

// New creates the model with every thread online and active (C0).
func New(eng *sim.Engine, top *soc.Topology, cfg Config) *Model {
	m := &Model{
		eng:       eng,
		top:       top,
		cfg:       cfg,
		requested: make([]State, top.NumThreads()),
		online:    make([]bool, top.NumThreads()),
		enabled:   make([][NumStates]bool, top.NumThreads()),
		active:    make([]int, top.NumCores()),
	}
	for i := range m.enabled {
		m.online[i] = true
		m.enabled[i] = [NumStates]bool{true, true, true}
	}
	m.coreActiveCounts(m.active)
	return m
}

// ACPITable returns the C-state table the hardware hands to the OS.
func (m *Model) ACPITable() []ACPIInfo {
	return []ACPIInfo{
		{State: C0, Latency: 0, PowerMilliwatts: math.MaxUint32, Entry: "active"},
		{State: C1, Latency: m.cfg.ACPIC1Latency, PowerMilliwatts: 0, Entry: "mwait"},
		{State: C2, Latency: m.cfg.ACPIC2Latency, PowerMilliwatts: 0, Entry: "ioport"},
	}
}

// SetEnabled flips a sysfs C-state disable file for one thread. Disabling
// C0 is rejected.
func (m *Model) SetEnabled(t soc.ThreadID, s State, enabled bool) error {
	if s == C0 {
		return fmt.Errorf("cstate: C0 cannot be disabled")
	}
	if s < 0 || int(s) >= NumStates {
		return fmt.Errorf("cstate: unknown state %d", s)
	}
	m.mutate(t, func() { m.enabled[t][s] = enabled })
	return nil
}

// SetOnline changes a thread's sysfs online state. Thread 0 (the boot CPU)
// cannot be taken offline, matching Linux.
func (m *Model) SetOnline(t soc.ThreadID, online bool) error {
	if t == 0 && !online {
		return fmt.Errorf("cstate: cpu0 cannot be taken offline")
	}
	m.mutate(t, func() { m.online[t] = online })
	return nil
}

// Online reports a thread's sysfs online state.
func (m *Model) Online(t soc.ThreadID) bool { return m.online[t] }

// DeepestEnabled returns the deepest idle state the OS may request on t.
func (m *Model) DeepestEnabled(t soc.ThreadID) State {
	for s := State(NumStates - 1); s > C0; s-- {
		if m.enabled[t][s] {
			return s
		}
	}
	return C1 // C1 is architecturally always available via mwait
}

// EnterIdle puts a thread into an idle state (capped at the deepest enabled
// state, as the cpuidle governor would).
func (m *Model) EnterIdle(t soc.ThreadID, s State) {
	if s <= C0 || int(s) >= NumStates {
		panic(fmt.Sprintf("cstate: EnterIdle with %v", s))
	}
	if !m.enabled[t][s] {
		s = m.DeepestEnabled(t)
	}
	if m.requested[t] == s {
		return
	}
	m.mutate(t, func() { m.requested[t] = s })
}

// Wake returns a thread to C0 and reports the wake-up latency the waking
// side observes. remote marks a cross-package waker.
func (m *Model) Wake(t soc.ThreadID, coreMHz float64, remote bool) sim.Duration {
	prev := m.EffectiveState(t)
	if m.requested[t] != C0 {
		m.mutate(t, func() { m.requested[t] = C0 })
	}
	return m.WakeLatency(prev, coreMHz, remote)
}

// WakeLatency computes the wake-up latency out of a state at a given core
// frequency without changing any state.
func (m *Model) WakeLatency(from State, coreMHz float64, remote bool) sim.Duration {
	if coreMHz <= 0 {
		coreMHz = 400
	}
	var d sim.Duration
	switch from {
	case C0:
		d = 0
	case C1:
		d = sim.Duration(m.cfg.C1ExitCycles / coreMHz * 1000) // cycles/MHz = µs
	case C2:
		d = m.cfg.C2ExitBase + sim.Duration(m.cfg.C2ExitCycles/coreMHz*1000)
	}
	if remote && from != C0 {
		d += m.cfg.RemoteWakeExtra
	}
	return d
}

// mutate applies a state change, brings the active count of the mutated
// thread's core up to date and runs the hooks. f may change only thread t's
// state.
func (m *Model) mutate(t soc.ThreadID, f func()) {
	f()
	if m.Dirty != nil {
		m.Dirty(t)
	}
	core := m.top.Threads[t].Core
	m.active[core] = m.countActive(core)
	m.checkActive()
	if m.AfterChange != nil {
		m.AfterChange()
	}
}

func (m *Model) coreActiveCounts(counts []int) {
	for i := range counts {
		counts[i] = 0
	}
	for t := 0; t < m.top.NumThreads(); t++ {
		if m.EffectiveState(soc.ThreadID(t)) == C0 {
			counts[m.top.Threads[t].Core]++
		}
	}
}

// EffectiveState returns the state the hardware actually grants:
//
//   - offline threads are elevated to C1 when the anomaly is enabled
//     (§VI-B), otherwise they park in the deepest state;
//   - online threads get their requested state.
func (m *Model) EffectiveState(t soc.ThreadID) State {
	if !m.online[t] {
		if m.cfg.OfflineElevatesToC1 {
			return C1
		}
		return C2
	}
	return m.requested[t]
}

// CoreState returns the shallowest state across the core's threads: the
// core is only clock/power gated when both threads idle.
func (m *Model) CoreState(core soc.CoreID) State {
	c := m.top.Cores[core]
	s0 := m.EffectiveState(c.Threads[0])
	s1 := m.EffectiveState(c.Threads[1])
	if s0 < s1 {
		return s0
	}
	return s1
}

// ActiveThreads returns how many of the core's threads are in C0: the
// count mutate keeps, read in place.
func (m *Model) ActiveThreads(core soc.CoreID) int { return m.active[core] }

// countActive counts the core's threads in C0 from their states.
func (m *Model) countActive(core soc.CoreID) int {
	n := 0
	c := m.top.Cores[core]
	for _, t := range c.Threads {
		if m.EffectiveState(t) == C0 {
			n++
		}
	}
	return n
}

// SystemDeepSleep reports whether the package deep-sleep criterion holds:
// all threads of all packages in the deepest C-state (the paper found this
// to be the single criterion — there is no per-package deep sleep).
func (m *Model) SystemDeepSleep() bool {
	for t := 0; t < m.top.NumThreads(); t++ {
		if m.EffectiveState(soc.ThreadID(t)) != C2 {
			return false
		}
	}
	return true
}
