package sim

import (
	"math"
	"testing"
)

// TestLazyIntegratorMatchesEager drives a group of lazy integrators and a
// group of eager ones through the same random sequences of fold instants,
// rate changes (zero rates included) and reads: the eager group folds every
// integrator at every instant, the lazy group replays those folds on
// demand. Every read must agree bit for bit. A small log capacity makes the
// log compact many times per run.
func TestLazyIntegratorMatchesEager(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := NewRNG(seed)
		const n = 6
		var lazy [n]LazyIntegrator
		var eager [n]*EnergyIntegrator
		compactions := 0
		var log *FoldLog
		log = NewFoldLog(0, 2+rng.Intn(6), func() {
			compactions++
			for i := range lazy {
				lazy[i].CatchUp(log)
			}
		})
		for i := range lazy {
			lazy[i] = NewLazyIntegrator(log, 0)
			eager[i] = NewEnergyIntegrator(0, 0)
		}
		rate := func() float64 {
			switch rng.Intn(4) {
			case 0:
				return 0
			case 1:
				return float64(rng.Intn(3)) * 1e9 // repeats often
			}
			return rng.Range(0, 300)
		}
		var now Time
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 {
				now = now.Add(DurationFromSeconds(rng.Range(0, 2e-3)))
			}
			switch rng.Intn(3) {
			case 0, 1: // a fold instant: some rates change
				log.Record(now)
				for i := range lazy {
					r := eager[i].Power()
					if rng.Intn(3) == 0 {
						r = rate()
					}
					eager[i].SetPower(now, r)
					lazy[i].SetRate(log, r)
				}
			default: // a read of one integrator
				i := rng.Intn(n)
				want, got := eager[i].Energy(now), lazy[i].Energy(log, now)
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("seed %d step %d: integrator %d at %v: lazy %v, eager %v", seed, step, i, now, got, want)
				}
			}
		}
		for i := range lazy {
			if want, got := eager[i].Energy(now), lazy[i].Energy(log, now); math.Float64bits(want) != math.Float64bits(got) {
				t.Fatalf("seed %d: final integrator %d: lazy %v, eager %v", seed, i, got, want)
			}
		}
		if compactions == 0 {
			t.Fatalf("seed %d: the log never compacted", seed)
		}
	}
}

// TestFoldLogDropsRepeatedInstants: a repeated instant (and the start
// time) adds no entry, and time must not run backwards.
func TestFoldLogDropsRepeatedInstants(t *testing.T) {
	log := NewFoldLog(5, 4, func() {})
	for _, at := range []Time{5, 7, 7, 9} {
		log.Record(at)
	}
	if got := log.Since(0); len(got) != 2 || got[0] != 7 || got[1] != 9 {
		t.Fatalf("logged %v, want [7 9]", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("recording an earlier instant did not panic")
		}
	}()
	log.Record(8)
}
