package core

import (
	"fmt"

	"zen2ee/internal/measure"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// hammingStudy runs the §VII-B protocol for one kernel: instruction blocks
// on all hardware threads, each block with a randomly chosen relative
// operand Hamming weight of 0, 0.5 or 1; per block it records the AC
// reference power, the RAPL core-0 power and the RAPL package sum.
type hammingDist struct {
	AC, RAPLCore0, RAPLPkg map[float64][]float64
}

func hammingStudy(o Options, k workload.Kernel, blocks int) (*hammingDist, error) {
	m := testSystem(o)
	pa := acMeter(m)
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		return nil, err
	}
	threads := allThreads(m)
	if err := startOn(m, k, 0, threads...); err != nil {
		return nil, err
	}
	m.Eng.RunFor(sim.Duration(o.scaled(200)) * sim.Millisecond)
	m.Preheat()

	weights := []float64{0, 0.5, 1}
	rng := m.Eng.RNG().Fork()
	d := &hammingDist{
		AC:        map[float64][]float64{},
		RAPLCore0: map[float64][]float64{},
		RAPLPkg:   map[float64][]float64{},
	}
	// Block length: scaled from the paper's 10 s, but never below 250 ms so
	// that, after trimming the boundary-straddling first analyzer sample
	// (the instrument averages over its 50 ms sample interval), at least
	// three clean samples remain per block.
	block := sim.Duration(o.scaled(300)) * sim.Millisecond
	if block < 250*sim.Millisecond {
		block = 250 * sim.Millisecond
	}
	trim := 60 * sim.Millisecond
	for b := 0; b < blocks; b++ {
		w := weights[rng.Intn(3)]
		for _, t := range threads {
			m.SetHammingWeight(t, w)
		}
		pa.Reset()
		start := m.Eng.Now()
		e0c := m.RAPL.CoreEnergyJoules(0)
		var e0p float64
		for p := range m.Top.Packages {
			e0p += m.RAPL.PackageEnergyJoules(soc.PackageID(p))
		}
		m.Eng.RunFor(block)
		secs := m.Eng.Now().Sub(start).Seconds()
		ac, err := pa.AverageBetween(start.Add(trim), m.Eng.Now())
		if err != nil {
			return nil, err
		}
		e1c := m.RAPL.CoreEnergyJoules(0)
		var e1p float64
		for p := range m.Top.Packages {
			e1p += m.RAPL.PackageEnergyJoules(soc.PackageID(p))
		}
		d.AC[w] = append(d.AC[w], ac)
		d.RAPLCore0[w] = append(d.RAPLCore0[w], (e1c-e0c)/secs)
		d.RAPLPkg[w] = append(d.RAPLPkg[w], (e1p-e0p)/secs)
	}
	return d, nil
}

func runFig10(o Options) (*Result, error) {
	r := newResult()
	r.Columns = []string{"weight", "AC mean [W]", "RAPL core0 mean [W]"}

	blocks := o.scaled(90) // paper: 3000 blocks of 10 s
	d, err := hammingStudy(o, workload.VXorps, blocks)
	if err != nil {
		return nil, err
	}
	for _, w := range []float64{0, 0.5, 1} {
		r.addRow(fmt.Sprintf("%.1f", w), fmtW(measure.Mean(d.AC[w])),
			fmt.Sprintf("%.4f", measure.Mean(d.RAPLCore0[w])))
		r.Series[fmt.Sprintf("ac_w%.1f", w)] = d.AC[w]
		r.Series[fmt.Sprintf("rapl_core_w%.1f", w)] = d.RAPLCore0[w]
	}

	ac0, ac1 := measure.Mean(d.AC[0]), measure.Mean(d.AC[1])
	acSwing := ac1 - ac0
	acRel := acSwing / ac0
	acOverlap := measure.Overlap(measure.NewECDF(d.AC[0]), measure.NewECDF(d.AC[1]), 200)
	rc0, rc1 := measure.Mean(d.RAPLCore0[0]), measure.Mean(d.RAPLCore0[1])
	rcRel := abs(rc1-rc0) / rc0
	rcOverlap := measure.Overlap(measure.NewECDF(d.RAPLCore0[0]), measure.NewECDF(d.RAPLCore0[1]), 200)

	r.Metrics["ac_swing_watts"] = acSwing
	r.Metrics["ac_swing_rel"] = acRel
	r.Metrics["ac_overlap"] = acOverlap
	r.Metrics["rapl_core_mean_rel_diff"] = rcRel
	r.Metrics["rapl_core_overlap"] = rcOverlap
	r.Metrics["rapl_core0_mean_watts"] = rc0

	r.compare("AC swing weight 0→1", "W", 21, acSwing, 0.1)
	r.compare("AC relative swing", "%", 7.6, 100*acRel, 0.15)
	r.compareAbs("AC distributions have no overlap", "overlap", 0, acOverlap, 0.01)
	r.compare("RAPL core means within 0.08 %", "%", 0.08, 100*rcRel, 1.0)
	r.compare("RAPL core-0 power level", "W", 2.05, rc0, 0.1)
	r.note("system power clearly separates operand weights (%.1f W, %.1f%%); RAPL does not reflect the difference — overall averages within %.3f%%, distributions strongly overlapping (overlap %.2f)",
		acSwing, 100*acRel, 100*rcRel, rcOverlap)
	return r, nil
}

func runSec7B(o Options) (*Result, error) {
	r := newResult()
	r.Columns = []string{"weight", "AC mean [W]", "RAPL core0 mean [W]"}

	blocks := o.scaled(90)
	d, err := hammingStudy(o, workload.Shr, blocks)
	if err != nil {
		return nil, err
	}
	for _, w := range []float64{0, 0.5, 1} {
		r.addRow(fmt.Sprintf("%.1f", w), fmtW(measure.Mean(d.AC[w])),
			fmt.Sprintf("%.4f", measure.Mean(d.RAPLCore0[w])))
	}
	ac0, ac1 := measure.Mean(d.AC[0]), measure.Mean(d.AC[1])
	acRel := abs(ac1-ac0) / ac0
	rc0, rc1 := measure.Mean(d.RAPLCore0[0]), measure.Mean(d.RAPLCore0[1])
	rcRel := abs(rc1-rc0) / rc0
	rcOverlap := measure.Overlap(measure.NewECDF(d.RAPLCore0[0]), measure.NewECDF(d.RAPLCore0[1]), 200)

	r.Metrics["ac_rel_diff"] = acRel
	r.Metrics["rapl_core_rel_diff"] = rcRel
	r.Metrics["rapl_core_overlap"] = rcOverlap

	r.compare("shr AC means within 0.9 %", "%", 0.9, 100*acRel, 1.0)
	r.compare("shr RAPL core means within ~0.015 %", "%", 0.015, 100*rcRel, 3.0)
	r.note("the 64-bit shr datapath toggles far less than 256-bit vxorps: system power within %.2f%%, RAPL core within %.4f%% — distinguishing the operand weight from RAPL would take substantially more samples than a physical measurement", 100*acRel, 100*rcRel)
	return r, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
