package core

import (
	"fmt"

	"zen2ee/internal/iodie"
	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// paperFig5a: [setting(P3,P2,P1,P0,auto)][dram(1467,1600)][cores(1,2,3,4,4x2CCX)].
var paperFig5a = [5][2][5]float64{
	{{22.2, 28.3, 28.9, 31.7, 32.1}, {22.2, 28.2, 30.0, 30.6, 31.0}},
	{{27.2, 33.7, 37.6, 39.6, 39.6}, {27.1, 33.7, 39.1, 40.1, 40.1}},
	{{26.8, 32.9, 36.8, 38.8, 38.9}, {26.8, 32.9, 38.5, 39.5, 39.5}},
	{{26.5, 32.4, 35.9, 38.1, 38.1}, {26.4, 32.4, 37.8, 38.6, 38.6}},
	{{26.5, 32.6, 36.0, 38.2, 38.2}, {26.5, 32.5, 37.9, 38.8, 38.8}},
}

// paperFig5b: [setting][dram] in ns.
var paperFig5b = [5][2]float64{
	{142, 137}, {101, 104}, {113, 110}, {96, 109}, {92, 104},
}

var fig5DRAMs = []int{iodie.DRAM1467, iodie.DRAM1600}

// streamPlacement returns the SMT0 threads for the Fig. 5a core counts:
// 1..4 cores on CCX0, or the 2+2 split across CCD0's two CCXs.
func streamPlacement(m *machine.Machine, cores int, twoCCX bool) []soc.ThreadID {
	var coreIDs []int
	if twoCCX {
		coreIDs = []int{0, 1, 4, 5}
	} else {
		for c := 0; c < cores; c++ {
			coreIDs = append(coreIDs, c)
		}
	}
	var out []soc.ThreadID
	for _, c := range coreIDs {
		out = append(out, m.Top.Cores[c].Threads[0])
	}
	return out
}

func runFig5a(o Options) (*Result, error) {
	r := newResult()
	r.Columns = []string{"IOD P-state", "DRAM [GHz]", "1 core", "2", "3", "4", "4 (2 CCX)"}

	type placement struct {
		cores  int
		twoCCX bool
	}
	placements := []placement{{1, false}, {2, false}, {3, false}, {4, false}, {4, true}}

	var worstDev float64
	var m *machine.Machine
	for si, setting := range iodie.Settings() {
		for di, dram := range fig5DRAMs {
			row := []string{setting.String(), fmt.Sprintf("%.3f", float64(dram)/1000)}
			for pi, pl := range placements {
				m = resetSystem(m, o)
				if err := m.SetIODSetting(setting); err != nil {
					return nil, err
				}
				if err := m.SetDRAMClock(dram); err != nil {
					return nil, err
				}
				if err := m.SetAllFrequenciesMHz(2500); err != nil {
					return nil, err
				}
				if err := startOn(m, workload.StreamTriad, 0, streamPlacement(m, pl.cores, pl.twoCCX)...); err != nil {
					return nil, err
				}
				m.Eng.RunFor(30 * sim.Millisecond)
				got := m.TrafficGBs()
				row = append(row, fmt.Sprintf("%.1f", got))
				want := paperFig5a[si][di][pi]
				key := fmt.Sprintf("bw_%s_%d_%d%s", setting, dram, pl.cores, suffix2CCX(pl.twoCCX))
				r.Metrics[key] = got
				if dev := absRel(got, want); dev > worstDev {
					worstDev = dev
				}
				r.Series["bw_measured"] = append(r.Series["bw_measured"], got)
				r.Series["bw_paper"] = append(r.Series["bw_paper"], want)
			}
			r.addRow(row...)
		}
	}
	r.Metrics["worst_rel_dev"] = worstDev
	r.compareAbs("worst cell deviation from paper matrix", "rel", 0, worstDev, 0.02)
	// Spot anchors for EXPERIMENTS.md readability.
	r.compare("P2/1.6 GHz/4 cores (best cell)", "GB/s", 40.1, r.Metrics["bw_P2_1600_4"], 0.02)
	r.compare("P3/1.467 GHz/1 core (worst 1-core)", "GB/s", 22.2, r.Metrics["bw_P3_1467_1"], 0.02)
	r.note("two cores on one CCX approach the maximal bandwidth; higher I/O-die P-states lower it; higher DRAM frequency does not increase it significantly")
	return r, nil
}

func runFig5b(o Options) (*Result, error) {
	r := newResult()
	r.Columns = []string{"IOD P-state", "DRAM 1.467 GHz [ns]", "DRAM 1.6 GHz [ns]"}

	var m *machine.Machine
	for si, setting := range iodie.Settings() {
		row := []string{setting.String()}
		for di, dram := range fig5DRAMs {
			m = resetSystem(m, o)
			if err := m.SetIODSetting(setting); err != nil {
				return nil, err
			}
			if err := m.SetDRAMClock(dram); err != nil {
				return nil, err
			}
			if err := m.SetAllFrequenciesMHz(2500); err != nil {
				return nil, err
			}
			// Latency benchmark: pointer chasing to DRAM, prefetchers off,
			// huge pages (minimum of repeated runs).
			if _, err := m.StartKernel(0, workload.PointerChase, 0); err != nil {
				return nil, err
			}
			m.Eng.RunFor(20 * sim.Millisecond)
			got := m.DRAMLatencyNs()
			row = append(row, fmtNs(got))
			key := fmt.Sprintf("lat_%s_%d", setting, dram)
			r.Metrics[key] = got
			r.compare(fmt.Sprintf("%s @ %.3f GHz", setting, float64(dram)/1000),
				"ns", paperFig5b[si][di], got, 0.02)
		}
		r.addRow(row...)
	}
	r.note("auto outperforms pinned P0 (92.0 vs 96.0 ns); at 1.6 GHz DRAM, P2 beats P0 — a better match between memory and I/O-die frequency domains")
	return r, nil
}

func suffix2CCX(b bool) string {
	if b {
		return "_2ccx"
	}
	return ""
}

func absRel(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	d := (got - want) / want
	if d < 0 {
		return -d
	}
	return d
}
