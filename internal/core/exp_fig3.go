package core

import (
	"fmt"

	"zen2ee/internal/machine"
	"zen2ee/internal/measure"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

func init() {
	register(whole(Experiment{
		ID:       "fig3",
		Title:    "Frequency transition delay histogram 2.2 → 1.5 GHz",
		PaperRef: "Fig. 3",
		Bench:    "BenchmarkFig3TransitionHistogram",
	}, runFig3))
	register(whole(Experiment{
		ID:       "sec5b",
		Title:    "Fast-return anomaly between 2.5 and 2.2 GHz",
		PaperRef: "§V-B",
		Bench:    "BenchmarkSec5BFastReturn",
	}, runSec5B))
}

// transitionSampler implements the refined Mazouz et al. protocol from
// §V-B: switch the core frequency, detect when the target performance level
// is reached, switch back, wait a random time, repeat.
type transitionSampler struct {
	m    *machine.Machine
	core soc.CoreID
	th   soc.ThreadID
	rng  *sim.RNG
}

func newTransitionSampler(o Options) (*transitionSampler, error) {
	m := testSystem(o)
	// The measured core runs a minimal workload; all other cores are set to
	// the minimum frequency (the paper's setup) and stay idle.
	if err := m.SetAllFrequenciesMHz(1500); err != nil {
		return nil, err
	}
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		return nil, err
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	return &transitionSampler{m: m, core: 0, th: 0, rng: m.Eng.RNG().Fork()}, nil
}

// sample measures one transition delay from the current frequency to
// targetMHz: the time from the request until the core's performance
// reaches the target level.
func (s *transitionSampler) sample(targetMHz int, minWait, maxWait sim.Duration) (sim.Duration, error) {
	if maxWait > minWait {
		s.m.Eng.RunFor(s.rng.DurationRange(minWait, maxWait))
	} else {
		s.m.Eng.RunFor(minWait)
	}
	if err := s.m.SetThreadFrequencyMHz(s.th, targetMHz); err != nil {
		return 0, err
	}
	d, ok := pollUntilFrequency(s.m, s.core, float64(targetMHz), 2*sim.Microsecond, 20*sim.Millisecond)
	if !ok {
		return 0, fmt.Errorf("core: transition to %d MHz did not complete", targetMHz)
	}
	return d, nil
}

func runFig3(o Options) (*Result, error) {
	r := newResult("fig3", "Frequency transition delay histogram 2.2 → 1.5 GHz", "Fig. 3")
	s, err := newTransitionSampler(o)
	if err != nil {
		return nil, err
	}
	// Start from 2.2 GHz, settled.
	if err := s.m.SetThreadFrequencyMHz(s.th, 2200); err != nil {
		return nil, err
	}
	s.m.Eng.RunFor(20 * sim.Millisecond)

	n := o.scaled(1000)
	var delays []float64
	for i := 0; i < n; i++ {
		// Random wait 0–10 ms before the measurement (paper protocol).
		d, err := s.sample(1500, 0, 10*sim.Millisecond)
		if err != nil {
			return nil, err
		}
		delays = append(delays, d.Micros())
		// Return to 2.2 GHz and settle well past the fast-return window
		// (1.5 ↔ 2.2 shows no anomaly, but the settle keeps runs uniform).
		if _, err := s.sample(2200, 6*sim.Millisecond, 6*sim.Millisecond); err != nil {
			return nil, err
		}
	}

	h := measure.NewHistogram(delays, 0, 25)
	r.Series["delays_us"] = delays
	counts := make([]float64, len(h.Counts))
	for i, c := range h.Counts {
		counts[i] = float64(c)
	}
	r.Series["histogram_counts"] = counts

	lo, hi := measure.MinMax(delays)
	r.Metrics["min_us"] = lo
	r.Metrics["max_us"] = hi
	r.Metrics["spread_us"] = hi - lo
	r.Metrics["mean_us"] = measure.Mean(delays)

	r.Columns = []string{"bin [µs]", "count"}
	first, last := h.NonEmptySpan()
	for i := first; i <= last && i >= 0; i++ {
		r.addRow(fmt.Sprintf("%.0f", h.BinCenter(i)), fmt.Sprint(h.Counts[i]))
	}

	r.compare("minimum delay (ramp)", "µs", 390, lo, 0.05)
	r.compare("maximum delay (slot+ramp)", "µs", 1390, hi, 0.05)
	r.compare("spread = update interval", "µs", 1000, hi-lo, 0.05)
	r.compare("mean of uniform distribution", "µs", 890, measure.Mean(delays), 0.05)
	r.note("approximately uniform distribution between 390 µs and 1390 µs ⇒ an internal fixed update interval of 1 ms (vs. 500 µs on Intel)")
	return r, nil
}

func runSec5B(o Options) (*Result, error) {
	r := newResult("sec5b", "Fast-return anomaly between 2.5 and 2.2 GHz", "§V-B")
	r.Columns = []string{"direction", "wait", "min delay [µs]", "max delay [µs]", "fast fraction"}
	s, err := newTransitionSampler(o)
	if err != nil {
		return nil, err
	}
	if err := s.m.SetThreadFrequencyMHz(s.th, 2500); err != nil {
		return nil, err
	}
	s.m.Eng.RunFor(20 * sim.Millisecond)

	n := o.scaled(300)
	// Short waits (0–4 ms): within the voltage settle window.
	var up, down []float64
	for i := 0; i < n; i++ {
		d, err := s.sample(2200, 0, 4*sim.Millisecond) // 2.5 -> 2.2
		if err != nil {
			return nil, err
		}
		down = append(down, d.Micros())
		d, err = s.sample(2500, 0, 4*sim.Millisecond) // back up
		if err != nil {
			return nil, err
		}
		up = append(up, d.Micros())
	}
	// Long waits (≥5 ms): the effect must disappear.
	var upSlow, downSlow []float64
	for i := 0; i < n/2; i++ {
		d, err := s.sample(2200, 5*sim.Millisecond, 11*sim.Millisecond)
		if err != nil {
			return nil, err
		}
		downSlow = append(downSlow, d.Micros())
		d, err = s.sample(2500, 5*sim.Millisecond, 11*sim.Millisecond)
		if err != nil {
			return nil, err
		}
		upSlow = append(upSlow, d.Micros())
	}

	fastFrac := func(xs []float64, below float64) float64 {
		c := 0
		for _, x := range xs {
			if x < below {
				c++
			}
		}
		return float64(c) / float64(len(xs))
	}
	row := func(name string, xs []float64, fastBelow float64) {
		lo, hi := measure.MinMax(xs)
		r.addRow(name[:len(name)-2], name[len(name)-2:], fmt.Sprintf("%.1f", lo),
			fmt.Sprintf("%.1f", hi), fmt.Sprintf("%.2f", fastFrac(xs, fastBelow)))
	}
	row("2.5→2.2, <5ms", down, 390)
	row("2.2→2.5, <5ms", up, 10)
	row("2.5→2.2, ≥5ms", downSlow, 390)
	row("2.2→2.5, ≥5ms", upSlow, 10)

	minDown, _ := measure.MinMax(down)
	minUp, _ := measure.MinMax(up)
	minDownSlow, _ := measure.MinMax(downSlow)
	minUpSlow, _ := measure.MinMax(upSlow)
	r.Metrics["min_down_us"] = minDown
	r.Metrics["min_up_us"] = minUp
	r.Metrics["fast_up_fraction"] = fastFrac(up, 10)
	r.Metrics["min_down_slow_us"] = minDownSlow
	r.Metrics["min_up_slow_us"] = minUpSlow

	r.compare("fastest 2.5→2.2 below normal ramp", "µs", 160, minDown, 0.35)
	r.compare("instantaneous 2.2→2.5 return", "µs", 1, minUp, 1.0)
	r.compare("effect gone ≥5 ms (min up ≈ ramp)", "µs", 360, minUpSlow, 0.15)
	r.compare("effect gone ≥5 ms (min down ≈ ramp)", "µs", 390, minDownSlow, 0.15)
	r.note("returning to a previous setting is faster while the prior transition has not completely finished (frequency set, voltage still settling); random waits of at least 5 ms make the effect disappear")
	return r, nil
}
