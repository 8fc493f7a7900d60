// Package phases drives time-varying workloads, the counterpart of
// FIRESTARTER 2's dynamic load patterns (the paper's stress tool supports
// alternating load/idle phases to probe power-management dynamics). A
// Pattern cycles a set of hardware threads through kernel phases; the
// machinery exercises exactly the control loops the paper characterizes —
// C-state entry/exit on idle phases, EDC convergence on load phases, and
// power-meter dynamics in between.
package phases

import (
	"fmt"

	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// Phase is one step of a pattern. A zero-value Kernel (empty name) means
// idle: the threads stop and the cpuidle governor parks them.
type Phase struct {
	Kernel   workload.Kernel
	Weight   float64
	Duration sim.Duration
}

// Idle returns an idle phase.
func Idle(d sim.Duration) Phase { return Phase{Duration: d} }

// Load returns a load phase.
func Load(k workload.Kernel, d sim.Duration) Phase {
	return Phase{Kernel: k, Duration: d}
}

// SquareWave builds the classic FIRESTARTER high/low pattern.
func SquareWave(k workload.Kernel, high, low sim.Duration) []Phase {
	return []Phase{Load(k, high), Idle(low)}
}

// Runner cycles threads through a pattern.
type Runner struct {
	M       *machine.Machine
	Threads []soc.ThreadID
	Phases  []Phase

	running bool
	stopped bool
	idx     int
	// Cycles counts completed passes through the full pattern.
	Cycles int
}

// Validate reports configuration errors.
func (r *Runner) Validate() error {
	if r.M == nil || len(r.Threads) == 0 || len(r.Phases) == 0 {
		return fmt.Errorf("phases: runner needs a machine, threads and phases")
	}
	for i, p := range r.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("phases: phase %d has non-positive duration", i)
		}
	}
	return nil
}

// Start begins the pattern at the current simulation time and returns a
// stop function. The pattern repeats until stopped.
func (r *Runner) Start() (stop func(), err error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	if r.running {
		return nil, fmt.Errorf("phases: runner already started")
	}
	r.running = true
	r.stopped = false
	r.enterPhase()
	return func() { r.stopped = true; r.idleAll() }, nil
}

func (r *Runner) enterPhase() {
	if r.stopped {
		return
	}
	p := r.Phases[r.idx]
	if p.Kernel.Name == "" {
		r.idleAll()
	} else {
		for _, t := range r.Threads {
			// Offline threads drop out of the pattern silently; the
			// pattern must survive topology changes mid-run.
			_, _ = r.M.StartKernel(t, p.Kernel, p.Weight)
		}
	}
	r.M.Eng.Schedule(p.Duration, func() {
		r.idx++
		if r.idx >= len(r.Phases) {
			r.idx = 0
			r.Cycles++
		}
		r.enterPhase()
	})
}

func (r *Runner) idleAll() {
	for _, t := range r.Threads {
		r.M.StopKernel(t)
	}
}
