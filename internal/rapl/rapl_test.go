package rapl

import (
	"math"
	"testing"

	"zen2ee/internal/msr"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// foldLogCap is the capacity of the fold log the tests' models own.
const foldLogCap = 256

func newModel(noise float64) (*sim.Engine, *soc.Topology, *msr.File, *Model) {
	eng := sim.NewEngine(9)
	top := soc.New(soc.EPYC7502x2())
	regs := msr.NewFile(top.NumThreads())
	cfg := DefaultConfig()
	cfg.NoiseRel = noise
	var m *Model
	log := sim.NewFoldLog(eng.Now(), foldLogCap, func() { m.CatchUp() })
	m = New(eng, top, cfg, regs, log)
	return eng, top, regs, m
}

func TestEnergyAccumulation(t *testing.T) {
	eng, _, _, m := newModel(0)
	m.SetCorePower(0, 2.0)
	eng.RunUntil(sim.Time(5 * sim.Second))
	got := m.CoreEnergyJoules(0)
	if math.Abs(got-10.0) > 0.01 {
		t.Fatalf("5s at 2W = %v J, want 10", got)
	}
}

func TestUpdateQuantization(t *testing.T) {
	// The counter must only change on 1 ms boundaries: the paper's
	// update-rate measurement.
	eng, _, _, m := newModel(0)
	m.SetCorePower(0, 10.0)
	eng.RunUntil(sim.Time(10*sim.Millisecond + 500*sim.Microsecond))
	// At t=10.5 ms the quantized value reflects t=10 ms exactly.
	got := m.CoreEnergyJoules(0)
	if math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("quantized energy %v, want 0.100 (10 ms at 10 W)", got)
	}
	// Unquantized view keeps integrating.
	if tj := m.trueJoules(m.coreDom(0)); math.Abs(tj-0.105) > 1e-9 {
		t.Fatalf("true energy %v, want 0.105", tj)
	}
}

func TestUpdateRateObservable(t *testing.T) {
	// Poll the counter every 100 µs: distinct values must appear exactly
	// every 1 ms (10 polls).
	eng, _, regs, m := newModel(0)
	m.SetCorePower(0, 5)
	var changes []sim.Time
	last := uint64(math.MaxUint64)
	for i := 0; i < 200; i++ {
		eng.RunFor(100 * sim.Microsecond)
		v, err := regs.Read(0, msr.CoreEnergyStat)
		if err != nil {
			t.Fatal(err)
		}
		if v != last {
			changes = append(changes, eng.Now())
			last = v
		}
	}
	if len(changes) < 15 {
		t.Fatalf("only %d counter changes in 20 ms", len(changes))
	}
	for i := 2; i < len(changes); i++ {
		dt := changes[i].Sub(changes[i-1])
		if dt != sim.Millisecond {
			t.Fatalf("update interval %v, want exactly 1 ms", dt)
		}
	}
}

func TestMSRInterface(t *testing.T) {
	eng, top, regs, m := newModel(0)
	m.SetCorePower(5, 3)
	m.SetPackagePower(1, 100)
	eng.RunUntil(sim.Time(2 * sim.Second))

	// Units register.
	u, err := regs.Read(0, msr.RAPLPwrUnit)
	if err != nil {
		t.Fatal(err)
	}
	if msr.EnergyUnitJoules(u) != 1.0/65536 {
		t.Fatalf("energy unit wrong: %v", msr.EnergyUnitJoules(u))
	}

	// Core counter is per-core: both threads of core 5 see it, thread of
	// core 6 does not.
	v5, _ := regs.Read(5, msr.CoreEnergyStat)
	v5s, _ := regs.Read(int(top.Cores[5].Threads[1]), msr.CoreEnergyStat)
	v6, _ := regs.Read(6, msr.CoreEnergyStat)
	if v5 == 0 || v5 != v5s {
		t.Fatalf("SMT siblings disagree: %d vs %d", v5, v5s)
	}
	if v6 != 0 {
		t.Fatalf("core 6 counter %d, want 0", v6)
	}
	j := float64(v5) * msr.EnergyUnitJoules(u)
	if math.Abs(j-6.0) > 0.01 {
		t.Fatalf("core 5 energy %v J, want 6", j)
	}

	// Package counter follows the thread's package.
	p0, _ := regs.Read(0, msr.PkgEnergyStat)  // package 0
	p1, _ := regs.Read(40, msr.PkgEnergyStat) // thread 40 → core 40 → package 1
	if p0 != 0 {
		t.Fatalf("package 0 counter %d, want 0", p0)
	}
	if jp := float64(p1) * msr.EnergyUnitJoules(u); math.Abs(jp-200) > 0.2 {
		t.Fatalf("package 1 energy %v J, want 200", jp)
	}
}

func TestPowerChangesIntegrateExactly(t *testing.T) {
	eng, _, _, m := newModel(0)
	m.SetCorePower(0, 1)
	eng.RunUntil(sim.Time(1 * sim.Second))
	m.SetCorePower(0, 3)
	eng.RunUntil(sim.Time(2 * sim.Second))
	m.SetCorePower(0, 0)
	eng.RunUntil(sim.Time(5 * sim.Second))
	got := m.CoreEnergyJoules(0)
	if math.Abs(got-4.0) > 0.01 {
		t.Fatalf("piecewise energy %v, want 4", got)
	}
}

func TestNoiseKeepsMeanStable(t *testing.T) {
	eng, _, _, m := newModel(0.001)
	m.SetPackagePower(0, 100)
	// Re-apply regularly so the noise factor enters the integration.
	for i := 0; i < 1000; i++ {
		eng.RunFor(10 * sim.Millisecond)
		m.SetPackagePower(0, 100)
	}
	j := m.PackageEnergyJoules(0)
	mean := j / 10.0 // 10 s elapsed
	if math.Abs(mean-100)/100 > 0.005 {
		t.Fatalf("noisy mean power %v, want within 0.5%% of 100", mean)
	}
}

func TestNegativePowerClamped(t *testing.T) {
	eng, _, _, m := newModel(0)
	m.SetCorePower(0, -5)
	eng.RunUntil(sim.Time(1 * sim.Second))
	if j := m.CoreEnergyJoules(0); j != 0 {
		t.Fatalf("negative power accumulated %v J", j)
	}
}

func TestCounterWrap32Bit(t *testing.T) {
	// 2^32 units = 65536 J; at 200 W the package counter wraps after
	// ~327 s. Delta arithmetic must survive the wrap.
	eng, _, regs, m := newModel(0)
	m.SetPackagePower(0, 200)
	eng.RunUntil(sim.Time(320 * sim.Second))
	before, _ := regs.Read(0, msr.PkgEnergyStat)
	eng.RunUntil(sim.Time(340 * sim.Second))
	after, _ := regs.Read(0, msr.PkgEnergyStat)
	if after > before {
		t.Skip("counter did not wrap at this calibration; adjust test")
	}
	u, _ := regs.Read(0, msr.RAPLPwrUnit)
	j := msr.CounterDeltaJoules(before, after, u)
	if math.Abs(j-4000) > 1 {
		t.Fatalf("wrapped delta %v J, want 4000 (20 s at 200 W)", j)
	}
}

func TestStopHaltsNoise(t *testing.T) {
	eng, _, _, m := newModel(0.01)
	m.Stop()
	n := eng.PendingEvents()
	eng.RunFor(sim.Duration(2 * sim.Second))
	if eng.PendingEvents() > n {
		t.Fatal("noise ticker still scheduling after Stop")
	}
}

// refDomain is the reference the lazy domains must reproduce: an energy
// integrator folded at every feed instant, with its snapshot rolled to the
// period boundary first.
type refDomain struct {
	ei    *sim.EnergyIntegrator
	snapJ float64
	snapT sim.Time
}

func (e *refDomain) roll(now sim.Time, period sim.Duration) {
	if b := sim.Time(int64(now) / int64(period) * int64(period)); b > e.snapT {
		e.snapJ = e.ei.Energy(b)
		e.snapT = b
	}
}

// TestLazyDomainsMatchEagerFolding feeds every domain at each of a random
// sequence of instants, as the machine does, with most powers unchanged,
// and reads random domains at random times across UpdatePeriod boundaries.
// Every quantized and unquantized reading must match eager folding bit for
// bit, through several fold-log compactions.
func TestLazyDomainsMatchEagerFolding(t *testing.T) { checkEagerFolding(t, false) }

// TestClassFeedsMatchEagerFolding is TestLazyDomainsMatchEagerFolding with
// the core domains fed through SetCorePowers in random classes: at each
// instant some cores are left unfed and the others fall into a few
// classes fed one power each, so domains join, follow, split on reads and
// leave their classes. Classes stay within one package, and a package
// with no core fed is left out of the call.
func TestClassFeedsMatchEagerFolding(t *testing.T) { checkEagerFolding(t, true) }

func checkEagerFolding(t *testing.T, classes bool) {
	eng, top, _, m := newModel(0.01)
	period := m.cfg.UpdatePeriod
	rng := sim.NewRNG(3)
	ref := make([]refDomain, len(m.doms))
	for i := range ref {
		ref[i].ei = sim.NewEnergyIntegrator(0, 0)
	}
	fed := make([]float64, len(m.doms))
	for i := range fed {
		fed[i] = rng.Range(0.05, 3)
	}
	check := func(what string, i int, want, got float64) {
		t.Helper()
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("%s of domain %d at %v: lazy %v, eager %v", what, i, eng.Now(), got, want)
		}
	}
	n := len(top.Cores)
	if classes {
		// fed holds what each core domain was last fed, nothing yet.
		clear(fed[:n])
	}
	cls := make([]int16, n)
	first := make([]int16, 3) // each class's first core this instant
	half := n / 2
	instants := 0
	for step := 0; step < 3000; step++ {
		eng.RunFor(rng.DurationRange(0, 700*sim.Microsecond))
		now := eng.Now()
		if rng.Intn(2) == 0 {
			i := rng.Intn(len(m.doms))
			ref[i].roll(now, period)
			var got float64
			if i < n {
				got = m.CoreEnergyJoules(soc.CoreID(i))
			} else {
				got = m.PackageEnergyJoules(soc.PackageID(i - n))
			}
			check("quantized energy", i, ref[i].snapJ, got)
			continue
		}
		instants++
		if classes {
			for c := range cls {
				if c%half == 0 {
					for g := range first {
						first[g] = -1
					}
				}
				cls[c] = -1
				if g := rng.Intn(len(first) + 1); g < len(first) {
					if first[g] < 0 {
						first[g] = int16(c)
						if rng.Intn(4) == 0 {
							fed[c] = rng.Range(0.05, 3)
						}
					}
					cls[c], fed[c] = first[g], fed[first[g]]
				}
			}
		}
		for i := range m.doms {
			if classes && i < n {
				// An unfed domain keeps its fed power, charged at the
				// noise factor in force.
				ref[i].roll(now, period)
				ref[i].ei.SetPower(now, math.Max(0, fed[i]*m.NoiseFactor()))
				continue
			}
			if rng.Intn(10) == 0 {
				fed[i] = rng.Range(0.05, 3)
			}
			w := math.Max(0, fed[i]*m.NoiseFactor())
			ref[i].roll(now, period)
			ref[i].ei.SetPower(now, w)
			if i < n {
				m.SetCorePower(soc.CoreID(i), fed[i])
			} else {
				m.SetPackagePower(soc.PackageID(i-n), fed[i])
			}
		}
		for lo := 0; classes && lo < n; lo += half {
			for _, k := range cls[lo : lo+half] {
				if k >= 0 {
					m.SetCorePowers(soc.CoreID(lo), fed[lo:lo+half], cls[lo:lo+half])
					break
				}
			}
		}
	}
	if instants <= foldLogCap {
		t.Fatalf("only %d feed instants; the fold log never compacted", instants)
	}
	if classes && m.Splits() == 0 {
		t.Fatal("no core domain ever split out of a class")
	}
	for i := range m.doms {
		check("true energy", i, ref[i].ei.Energy(eng.Now()), m.trueJoules(i))
	}
}
