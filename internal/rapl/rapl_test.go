package rapl

import (
	"math"
	"testing"
	"testing/quick"

	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// foldLogCap is the capacity of the fold log the tests' models own.
const foldLogCap = 256

func newModel(noise float64) (*sim.Engine, *soc.Topology, *Model) {
	eng := sim.NewEngine(9)
	top := soc.New(soc.EPYC7502x2())
	cfg := DefaultConfig()
	cfg.NoiseRel = noise
	var m *Model
	log := sim.NewFoldLog(eng.Now(), foldLogCap, func() { m.CatchUp() })
	m = New(eng, top, cfg, log)
	return eng, top, m
}

// counterDeltaJoules converts a (possibly wrapped) counter delta to Joules,
// as a reader of the energy-status register does.
func counterDeltaJoules(before, after uint64) float64 {
	delta := (after - before) & 0xFFFF_FFFF
	return float64(delta) * EnergyUnitJoules
}

// TestRAPLUnits: the counters tick in 2^-16 J, so a core at 1 W for one
// second reads 65536 ticks.
func TestRAPLUnits(t *testing.T) {
	if want := 1.0 / 65536.0; EnergyUnitJoules != want {
		t.Fatalf("energy unit = %v, want %v", EnergyUnitJoules, want)
	}
	eng, _, m := newModel(0)
	m.SetCorePower(0, 1)
	eng.RunUntil(sim.Time(sim.Second))
	if v := m.CoreEnergyStat(0); v != 65536 {
		t.Fatalf("1 J reads %d ticks, want 65536", v)
	}
}

func TestEnergyCounterWrap(t *testing.T) {
	// A counter that wraps: before near max, after small.
	before := uint64(0xFFFF_FFF0)
	after := uint64(0x10)
	j := counterDeltaJoules(before, after)
	wantTicks := 0x20
	if math.Abs(j-float64(wantTicks)/65536.0) > 1e-12 {
		t.Fatalf("wrapped delta = %v J", j)
	}
}

func TestEnergyToCounterRoundTrip(t *testing.T) {
	f := func(milliJ uint32) bool {
		// Stay below the 32-bit counter wrap point (2^32 units = 65536 J).
		joules := float64(milliJ%60_000_000) / 1000.0
		back := float64(EnergyToCounter(joules)) * EnergyUnitJoules
		// Quantization error bounded by one unit.
		return math.Abs(back-joules) <= EnergyUnitJoules
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyAccumulation(t *testing.T) {
	eng, _, m := newModel(0)
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
	eng, _, m := newModel(0)
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
	eng, _, m := newModel(0)
	m.SetCorePower(0, 5)
	var changes []sim.Time
	last := uint64(math.MaxUint64)
	for i := 0; i < 200; i++ {
		eng.RunFor(100 * sim.Microsecond)
		if v := m.CoreEnergyStat(0); v != last {
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

// TestMSRInterface: the core energy-status register is per core and
// agrees with the core domain's quantized energy.
func TestMSRInterface(t *testing.T) {
	eng, _, m := newModel(0)
	m.SetCorePower(5, 3)
	m.SetPackagePower(1, 100)
	eng.RunUntil(sim.Time(2 * sim.Second))

	v5, v6 := m.CoreEnergyStat(5), m.CoreEnergyStat(6)
	if v6 != 0 {
		t.Fatalf("core 6 counter %d, want 0", v6)
	}
	if j := float64(v5) * EnergyUnitJoules; math.Abs(j-6.0) > 0.01 {
		t.Fatalf("core 5 energy %v J, want 6", j)
	}
	if j := m.CoreEnergyJoules(5); v5 != EnergyToCounter(j) {
		t.Fatalf("core 5 counter %d, want %d (%v J)", v5, EnergyToCounter(j), j)
	}
}

func TestPowerChangesIntegrateExactly(t *testing.T) {
	eng, _, m := newModel(0)
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
	eng, _, m := newModel(0.001)
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
	eng, _, m := newModel(0)
	m.SetCorePower(0, -5)
	eng.RunUntil(sim.Time(1 * sim.Second))
	if j := m.CoreEnergyJoules(0); j != 0 {
		t.Fatalf("negative power accumulated %v J", j)
	}
}

func TestCounterWrap32Bit(t *testing.T) {
	// 2^32 units = 65536 J; at 200 W the counter wraps after ~327 s. Delta
	// arithmetic must survive the wrap.
	eng, _, m := newModel(0)
	m.SetCorePower(0, 200)
	eng.RunUntil(sim.Time(320 * sim.Second))
	before := m.CoreEnergyStat(0)
	eng.RunUntil(sim.Time(340 * sim.Second))
	after := m.CoreEnergyStat(0)
	if after > before {
		t.Fatalf("counter did not wrap: %d -> %d", before, after)
	}
	j := counterDeltaJoules(before, after)
	if math.Abs(j-4000) > 1 {
		t.Fatalf("wrapped delta %v J, want 4000 (20 s at 200 W)", j)
	}
}

func TestStopHaltsNoise(t *testing.T) {
	eng, _, m := newModel(0.01)
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
	eng, top, m := newModel(0.01)
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

// TestDomainIndexOutOfRangePanics: a core or package outside the topology
// panics with a message naming it. The domains share one slice, so
// unchecked, core 64 would read package 0's domain and package -1 core
// 63's.
func TestDomainIndexOutOfRangePanics(t *testing.T) {
	_, top, m := newModel(0)
	for _, c := range []struct {
		name, want string
		read       func()
	}{
		{"CoreEnergyJoules(64)", "rapl: core 64 out of range [0, 64)", func() { m.CoreEnergyJoules(soc.CoreID(top.NumCores())) }},
		{"CoreEnergyJoules(-1)", "rapl: core -1 out of range [0, 64)", func() { m.CoreEnergyJoules(-1) }},
		{"CoreEnergyStat(64)", "rapl: core 64 out of range [0, 64)", func() { m.CoreEnergyStat(64) }},
		{"CorePowerWatts(64)", "rapl: core 64 out of range [0, 64)", func() { m.CorePowerWatts(64) }},
		{"PackageEnergyJoules(2)", "rapl: package 2 out of range [0, 2)", func() { m.PackageEnergyJoules(2) }},
		{"PackageEnergyJoules(-1)", "rapl: package -1 out of range [0, 2)", func() { m.PackageEnergyJoules(-1) }},
		{"SetPackagePower(2)", "rapl: package 2 out of range [0, 2)", func() { m.SetPackagePower(2, 1) }},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("%s panicked with %v, want %q", c.name, got, c.want)
				}
			}()
			c.read()
		}()
	}
}
