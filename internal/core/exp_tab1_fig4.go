package core

import (
	"fmt"

	"zen2ee/internal/machine"
	"zen2ee/internal/osmodel"
	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

// ccxMixedSetup pins the measured core (core 0) to setMHz and the other
// three cores of CCX0 to othersMHz, all running while(1).
func ccxMixedSetup(o Options, measured workload.Kernel, setMHz, othersMHz int) (*machine.Machine, error) {
	m := testSystem(o)
	if err := m.SetThreadFrequencyMHz(0, setMHz); err != nil {
		return nil, err
	}
	if _, err := m.StartKernel(0, measured, 0); err != nil {
		return nil, err
	}
	for c := 1; c < 4; c++ {
		th := m.Top.Cores[c].Threads[0]
		if err := m.SetThreadFrequencyMHz(th, othersMHz); err != nil {
			return nil, err
		}
		if _, err := m.StartKernel(th, workload.Busywait, 0); err != nil {
			return nil, err
		}
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	waitTransitionsSettled(m, 10*sim.Millisecond)
	return m, nil
}

// paperTab1 holds Table I in GHz: [set][others] for {1.5, 2.2, 2.5}.
var paperTab1 = [3][3]float64{
	{1.499, 1.466, 1.428},
	{2.200, 2.199, 2.000},
	{2.497, 2.499, 2.499},
}

var tab1Freqs = []int{1500, 2200, 2500}

// planTab1 shards the 3×3 frequency grid one cell per shard (row-major, the
// order the reducer walks): each cell drives its own mixed-frequency CCX.
func planTab1(o Options) ([]Shard, Reduce, error) {
	intervals := o.scaled(12) // paper: 120 s at 1 s sampling
	var shards []Shard
	for _, set := range tab1Freqs {
		for _, others := range tab1Freqs {
			shards = append(shards, Shard{
				Label: fmt.Sprintf("set%d-others%d", set, others),
				Run: func(so Options) (any, error) {
					m, err := ccxMixedSetup(so, workload.Busywait, set, others)
					if err != nil {
						return nil, err
					}
					samples := osmodel.PerfStat(m, 0, 250*sim.Millisecond, intervals)
					return osmodel.MeanFrequencyGHz(samples), nil
				},
			})
		}
	}
	return shards, reduceTab1, nil
}

func reduceTab1(o Options, outs []any) (*Result, error) {
	r := newResult()
	r.Columns = []string{"set [GHz]", "others 1.5", "others 2.2", "others 2.5"}

	k := 0
	for si, set := range tab1Freqs {
		row := []string{fmtGHz(float64(set))}
		for oi, others := range tab1Freqs {
			ghz := outs[k].(float64)
			k++
			row = append(row, fmt.Sprintf("%.3f", ghz))
			key := fmt.Sprintf("set%d_others%d", set, others)
			r.Metrics[key] = ghz
			r.compare(fmt.Sprintf("set %.1f / others %.1f GHz", float64(set)/1000, float64(others)/1000),
				"GHz", paperTab1[si][oi], ghz, 0.01)
		}
		r.addRow(row...)
	}
	r.note("core frequencies are reduced if other cores on the same CCX apply higher frequencies; worst case 2.2 GHz → 2.0 GHz")
	return r, nil
}

// paperFig4 holds Fig. 4 latencies in ns: [reader][others] for {1.5, 2.2, 2.5}.
var paperFig4 = [3][3]float64{
	{25.2, 22.0, 21.2},
	{17.2, 17.2, 17.2},
	{15.2, 15.2, 15.2},
}

// planFig4 shards the 3×3 latency grid one cell per shard (row-major); each
// cell repeats its pointer-chase setup and reports the minimum, like the
// paper.
func planFig4(o Options) ([]Shard, Reduce, error) {
	reps := o.scaled(3) // paper: several repetitions, minimum reported
	var shards []Shard
	for _, reader := range tab1Freqs {
		for _, others := range tab1Freqs {
			shards = append(shards, Shard{
				Label: fmt.Sprintf("reader%d-others%d", reader, others),
				Run: func(so Options) (any, error) {
					best := 0.0
					for rep := 0; rep < reps; rep++ {
						m, err := ccxMixedSetup(so, workload.PointerChase, reader, others)
						if err != nil {
							return nil, err
						}
						lat := m.L3LatencyNs(0)
						if rep == 0 || lat < best {
							best = lat
						}
					}
					return best, nil
				},
			})
		}
	}
	return shards, reduceFig4, nil
}

func reduceFig4(o Options, outs []any) (*Result, error) {
	r := newResult()
	r.Columns = []string{"reader [GHz]", "others 1.5", "others 2.2", "others 2.5"}

	k := 0
	for ri, reader := range tab1Freqs {
		row := []string{fmtGHz(float64(reader))}
		for oi, others := range tab1Freqs {
			best := outs[k].(float64)
			k++
			row = append(row, fmtNs(best))
			r.Metrics[fmt.Sprintf("reader%d_others%d_ns", reader, others)] = best
			r.compare(fmt.Sprintf("reader %.1f / others %.1f GHz", float64(reader)/1000, float64(others)/1000),
				"ns", paperFig4[ri][oi], best, 0.03)
		}
		r.addRow(row...)
	}
	r.note("L3 latency of a slow core improves when other cores in the CCX clock higher: the L3 frequency follows the fastest core, even as the reader's own frequency is reduced")
	return r, nil
}
