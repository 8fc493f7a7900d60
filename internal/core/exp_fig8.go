package core

import (
	"fmt"

	"zen2ee/internal/cstate"
	"zen2ee/internal/machine"
	"zen2ee/internal/measure"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "fig8",
		Title:    "C-state wake-up latencies",
		PaperRef: "Fig. 8 / §VI-C",
		Bench:    "BenchmarkFig8WakeupLatency",
		Plan:     planFig8,
	})
}

// wakeSamples collects wake-up latency samples for one configuration using
// the caller/callee protocol of Ilsche et al.: the callee idles in the
// requested state; the caller (same CCX for local, other socket for remote)
// signals it and the wake-up is timed. Measurement overhead — the tooling
// shares resources with the test workload — appears as jitter and outliers.
func wakeSamples(m *machine.Machine, rng *sim.RNG, callee soc.ThreadID, state cstate.State,
	mhz int, remote bool, n int) ([]float64, error) {
	if err := m.SetThreadFrequencyMHz(callee, mhz); err != nil {
		return nil, err
	}
	// Caller stays active so package C-states never engage (the paper
	// notes this limitation of the methodology).
	caller := soc.ThreadID(1)
	if remote {
		caller = m.Top.Cores[32].Threads[0] // package 1
	}
	if err := m.SetThreadFrequencyMHz(caller, mhz); err != nil {
		return nil, err
	}
	if _, err := m.StartKernel(caller, workload.Busywait, 0); err != nil {
		return nil, err
	}
	m.Eng.RunFor(20 * sim.Millisecond)

	var out []float64
	for i := 0; i < n; i++ {
		// Callee idles (pthread_cond_wait → cpuidle picks the state).
		m.StopKernel(callee)
		if state == cstate.C1 {
			m.CStates.EnterIdle(callee, cstate.C1)
		}
		m.Eng.RunFor(500 * sim.Microsecond)
		// Caller wakes it (sched_waking).
		lat, err := m.StartKernel(callee, workload.Busywait, 0)
		if err != nil {
			return nil, err
		}
		if remote {
			lat += m.Config().CState.RemoteWakeExtra
		}
		us := lat.Micros()
		// Measurement overhead: small jitter plus occasional outliers from
		// the tracing running on the same resources.
		us += rng.Gaussian(0.05, 0.02)
		if rng.Float64() < 0.02 {
			us += rng.Range(2, 10)
		}
		if us < 0 {
			us = 0
		}
		out = append(out, us)
		m.Eng.RunFor(200 * sim.Microsecond)
	}
	m.StopKernel(caller)
	return out, nil
}

// paperFig8 medians in µs: [state C1/C2][freq 1.5/2.2/2.5].
var paperFig8 = map[cstate.State][3]float64{
	cstate.C1: {1.5, 1.02, 0.9},
	cstate.C2: {25, 23.1, 22.6},
}

// fig8Combo is one cell of the wake-latency matrix: (C-state, frequency,
// local/remote caller).
type fig8Combo struct {
	state   cstate.State
	freqIdx int
	mhz     int
	remote  bool
}

// fig8Combos enumerates the matrix in the figure's nested order (state,
// then frequency, then scope) — the shards' plan order, which the reducer
// walks too.
func fig8Combos() []fig8Combo {
	var out []fig8Combo
	for _, state := range []cstate.State{cstate.C1, cstate.C2} {
		for fi, mhz := range []int{1500, 2200, 2500} {
			for _, remote := range []bool{false, true} {
				out = append(out, fig8Combo{state: state, freqIdx: fi, mhz: mhz, remote: remote})
			}
		}
	}
	return out
}

func (c fig8Combo) scope() string {
	if c.remote {
		return "remote"
	}
	return "local"
}

// planFig8 shards the wake-latency matrix one cell per shard: every
// combination already builds its own system and forks its own measurement
// RNG, so the twelve cells are fully independent simulations.
func planFig8(o Options) ([]Shard, Reduce, error) {
	n := o.scaled(50) // paper: 200 samples per combination
	var shards []Shard
	for _, c := range fig8Combos() {
		shards = append(shards, Shard{
			Label: fmt.Sprintf("%s-%d-%s", c.state, c.mhz, c.scope()),
			Run: func(so Options) (any, error) {
				m := testSystem(so)
				rng := m.Eng.RNG().Fork()
				callee := soc.ThreadID(2) // core 2, CCX0
				return wakeSamples(m, rng, callee, c.state, c.mhz, c.remote, n)
			},
		})
	}
	return shards, reduceFig8, nil
}

func reduceFig8(o Options, outs []any) (*Result, error) {
	r := newResult("fig8", "C-state wake-up latencies", "Fig. 8 / §VI-C")
	r.Columns = []string{"state", "freq [GHz]", "scope", "median [µs]", "q1", "q3"}

	for i, c := range fig8Combos() {
		samples := outs[i].([]float64)
		box := measure.NewBoxStats(samples)
		r.addRow(c.state.String(), fmtGHz(float64(c.mhz)), c.scope(),
			fmt.Sprintf("%.2f", box.Median), fmt.Sprintf("%.2f", box.Q1),
			fmt.Sprintf("%.2f", box.Q3))
		key := fmt.Sprintf("%s_%d_%s_median_us", c.state, c.mhz, c.scope())
		r.Metrics[key] = box.Median
		if !c.remote {
			r.compare(fmt.Sprintf("%s wake @ %.1f GHz (local)", c.state, float64(c.mhz)/1000),
				"µs", paperFig8[c.state][c.freqIdx], box.Median, 0.12)
		} else {
			// Remote adds ~1 µs.
			local := r.Metrics[fmt.Sprintf("%s_%d_local_median_us", c.state, c.mhz)]
			r.compare(fmt.Sprintf("%s remote extra @ %.1f GHz", c.state, float64(c.mhz)/1000),
				"µs", 1.0, box.Median-local, 0.35)
		}
	}

	c2 := r.Metrics["C2_2500_local_median_us"]
	r.compare("measured C2 ≪ ACPI-reported 400 µs (ratio)", "x", 0.056, c2/400, 0.3)
	r.note("C2 latency (20–25 µs) is significantly lower than reported to the OS (400 µs); package C-states could raise it but are not measurable with an active caller")
	return r, nil
}
