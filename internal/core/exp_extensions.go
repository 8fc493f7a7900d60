package core

import (
	"fmt"

	"zen2ee/internal/machine"
	"zen2ee/internal/measure"
	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

// Extension experiments beyond the paper's published artifacts:
//
//   - extboost executes the paper's side observation that "enabling Core
//     Performance Boost has almost no influence on throughput, frequency
//     and power consumption" under FIRESTARTER — because the EDC limit
//     binds first — while confirming that boost does raise lightly-loaded
//     cores above nominal.
//   - ext7742 executes the paper's future work: frequency throttling on a
//     processor with more cores (EPYC 7742), where the impact is expected
//     to be more severe.

// boostConfig enables Core Performance Boost on the 7502 system.
func boostConfig(o Options) machine.Config {
	cfg := machine.DefaultConfig()
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.SMU.BoostMHz = float64(cfg.SoC.BoostMHz)
	cfg.SMU.BoostFreeCores = 4
	cfg.SMU.BoostSlopeMHz = 30
	return cfg
}

func runExtBoost(o Options) (*Result, error) {
	r := newResult()
	r.Columns = []string{"scenario", "boost", "freq [GHz]", "AC power [W]"}

	// Light load: one busywait core per package, boost on.
	mb := machine.New(boostConfig(o))
	if err := mb.SetAllFrequenciesMHz(2500); err != nil {
		return nil, err
	}
	if _, err := mb.StartKernel(0, workload.Busywait, 0); err != nil {
		return nil, err
	}
	mb.Eng.RunFor(50 * sim.Millisecond)
	lightBoost := mb.EffectiveMHz(0) / 1000
	r.addRow("1 core busywait", "on", fmt.Sprintf("%.3f", lightBoost), fmtW(mb.SystemWatts()))

	// Same without boost.
	mn := testSystem(o)
	if err := mn.SetAllFrequenciesMHz(2500); err != nil {
		return nil, err
	}
	if _, err := mn.StartKernel(0, workload.Busywait, 0); err != nil {
		return nil, err
	}
	mn.Eng.RunFor(50 * sim.Millisecond)
	lightNoBoost := mn.EffectiveMHz(0) / 1000
	r.addRow("1 core busywait", "off", fmt.Sprintf("%.3f", lightNoBoost), fmtW(mn.SystemWatts()))

	// Dense load: FIRESTARTER on all threads, boost on vs off, each on its
	// light-load system reset to a fresh one.
	dense := func(m *machine.Machine) (float64, float64, error) {
		m.Reset()
		if err := m.SetAllFrequenciesMHz(2500); err != nil {
			return 0, 0, err
		}
		if err := startOn(m, workload.Firestarter, 0, allThreads(m)...); err != nil {
			return 0, 0, err
		}
		m.Eng.RunFor(sim.Duration(o.scaled(300)) * sim.Millisecond)
		var fs, ws []float64
		for i := 0; i < o.scaled(20); i++ {
			m.Eng.RunFor(10 * sim.Millisecond)
			fs = append(fs, m.EffectiveMHz(0)/1000)
			ws = append(ws, m.SystemWatts())
		}
		return measure.Mean(fs), measure.Mean(ws), nil
	}
	fOn, pOn, err := dense(mb)
	if err != nil {
		return nil, err
	}
	fOff, pOff, err := dense(mn)
	if err != nil {
		return nil, err
	}
	r.addRow("FIRESTARTER all threads", "on", fmt.Sprintf("%.3f", fOn), fmtW(pOn))
	r.addRow("FIRESTARTER all threads", "off", fmt.Sprintf("%.3f", fOff), fmtW(pOff))

	r.Metrics["light_boost_ghz"] = lightBoost
	r.Metrics["light_noboost_ghz"] = lightNoBoost
	r.Metrics["dense_boost_ghz"] = fOn
	r.Metrics["dense_noboost_ghz"] = fOff
	r.Metrics["dense_boost_watts"] = pOn
	r.Metrics["dense_noboost_watts"] = pOff

	r.compare("single-core boost reaches max boost", "GHz", 3.35, lightBoost, 0.01)
	r.compare("boost has almost no influence on FIRESTARTER frequency", "GHz",
		fOff, fOn, 0.02)
	r.compare("boost has almost no influence on FIRESTARTER power", "W",
		pOff, pOn, 0.02)
	r.note("under dense 256-bit FMA load the EDC limit binds far below nominal, so Core Performance Boost changes nothing — the paper's §V-E observation")
	return r, nil
}

func runExt7742(o Options) (*Result, error) {
	r := newResult()
	r.Columns = []string{"system", "nominal [GHz]", "throttled [GHz]", "fraction of nominal"}

	run := func(cfg machine.Config, nominalMHz int) (float64, error) {
		if o.Seed != 0 {
			cfg.Seed = o.Seed
		}
		m := machine.New(cfg)
		if err := m.SetAllFrequenciesMHz(nominalMHz); err != nil {
			return 0, err
		}
		if err := startOn(m, workload.Firestarter, 0, allThreads(m)...); err != nil {
			return 0, err
		}
		m.Eng.RunFor(sim.Duration(o.scaled(400)) * sim.Millisecond)
		var fs []float64
		for i := 0; i < o.scaled(20); i++ {
			m.Eng.RunFor(10 * sim.Millisecond)
			fs = append(fs, m.EffectiveMHz(0)/1000)
		}
		return measure.Mean(fs), nil
	}

	f7502, err := run(machine.DefaultConfig(), 2500)
	if err != nil {
		return nil, err
	}
	f7742, err := run(machine.EPYC7742Config(), 2250)
	if err != nil {
		return nil, err
	}
	rel7502 := f7502 / 2.5
	rel7742 := f7742 / 2.25
	r.addRow("2x EPYC 7502 (32c)", "2.500", fmt.Sprintf("%.3f", f7502), fmt.Sprintf("%.3f", rel7502))
	r.addRow("2x EPYC 7742 (64c)", "2.250", fmt.Sprintf("%.3f", f7742), fmt.Sprintf("%.3f", rel7742))

	r.Metrics["freq_7502_ghz"] = f7502
	r.Metrics["freq_7742_ghz"] = f7742
	r.Metrics["rel_7502"] = rel7502
	r.Metrics["rel_7742"] = rel7742

	r.compare("7502 throttles to fraction of nominal", "x", 0.812, rel7502, 0.03)
	r.compare("7742 throttles more severely (lower fraction)", "bool", 1,
		boolTo01(rel7742 < rel7502-0.03), 0)
	r.note("with twice the cores per package sharing a similar electrical envelope, all-core 256-bit FMA lands at %.2f GHz (%.0f%% of nominal) on the 7742 vs %.0f%% on the 7502 — the more severe impact the paper anticipates", f7742, 100*rel7742, 100*rel7502)
	return r, nil
}
