// Package osmodel provides the perf-stat-style interval sampler the paper
// observes threads through (§V-A, Table I): cycles and instructions per
// interval, and the frequency and IPC derived from them. Experiments
// control threads, C-states and frequencies through the machine directly;
// the sampler only reads its counters.
package osmodel

import (
	"math"

	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// PerfSample is one perf-stat interval line.
type PerfSample struct {
	Time         sim.Time
	Cycles       float64
	Instructions float64
	// GHz is cycles per wall-clock second (what perf prints for the
	// cycles event), zero while the thread idles.
	GHz float64
	IPC float64
}

// PerfStat samples a thread's counters over count intervals, advancing the
// simulation like `perf stat -e cycles,instructions -I <interval>` would
// observe it.
func PerfStat(m *machine.Machine, t soc.ThreadID, interval sim.Duration, count int) []PerfSample {
	out := make([]PerfSample, 0, count)
	prev := m.ReadCounters(t)
	for i := 0; i < count; i++ {
		m.Eng.RunFor(interval)
		cur := m.ReadCounters(t)
		dc := cur.Cycles - prev.Cycles
		di := cur.Instructions - prev.Instructions
		s := PerfSample{
			Time:         m.Eng.Now(),
			Cycles:       dc,
			Instructions: di,
			GHz:          dc / interval.Seconds() / 1e9,
		}
		if dc > 0 {
			s.IPC = di / dc
		}
		out = append(out, s)
		prev = cur
	}
	return out
}

// MeanFrequencyGHz averages the sampled frequency over a perf series.
func MeanFrequencyGHz(samples []PerfSample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range samples {
		s += x.GHz
	}
	return s / float64(len(samples))
}

// MeanIPC averages IPC over a perf series.
func MeanIPC(samples []PerfSample) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range samples {
		s += x.IPC
	}
	return s / float64(len(samples))
}
