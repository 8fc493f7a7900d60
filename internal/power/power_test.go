package power

import (
	"math"
	"testing"
	"testing/quick"

	"zen2ee/internal/cstate"
	"zen2ee/internal/iodie"
	"zen2ee/internal/sim"
	"zen2ee/internal/workload"
)

// snapshot is an Input given as per-core inputs.
type snapshot struct {
	Input
	Cores []CoreInput
}

func deepSleepInput(nCores int) snapshot {
	cores := make([]CoreInput, nCores)
	for i := range cores {
		cores[i] = CoreInput{State: cstate.C2}
	}
	return snapshot{Input: Input{DeepSleep: true, IOD: iodie.DefaultConfig()}, Cores: cores}
}

// systemWatts is m.SystemWatts of the snapshot, each core contributing its
// CoreWatts as the machine caches them.
func systemWatts(m *Model, s snapshot) float64 {
	in := s.Input
	in.CoreWatts = make([]float64, len(s.Cores))
	for i := range s.Cores {
		in.CoreWatts[i] = m.CoreWatts(&s.Cores[i])
	}
	return m.SystemWatts(in)
}

func TestFloorPower(t *testing.T) {
	m := NewModel(DefaultConfig())
	got := systemWatts(m, deepSleepInput(64))
	if math.Abs(got-99.1) > 1e-9 {
		t.Fatalf("deep-sleep power %v, want 99.1", got)
	}
}

func TestFirstC1CoreCosts81W(t *testing.T) {
	// Fig. 7: a single core in C1 raises power by 81.2 W to ~180.3 W.
	m := NewModel(DefaultConfig())
	in := deepSleepInput(64)
	in.DeepSleep = false
	in.Cores[0].State = cstate.C1
	got := systemWatts(m, in)
	if math.Abs(got-180.39) > 0.2 {
		t.Fatalf("one C1 core: %v W, want ~180.3", got)
	}
}

func TestAdditionalC1Cores(t *testing.T) {
	m := NewModel(DefaultConfig())
	in := deepSleepInput(64)
	in.DeepSleep = false
	for i := 0; i < 10; i++ {
		in.Cores[i].State = cstate.C1
	}
	p10 := systemWatts(m, in)
	in.Cores[10].State = cstate.C1
	p11 := systemWatts(m, in)
	if d := p11 - p10; math.Abs(d-0.09) > 1e-9 {
		t.Fatalf("additional C1 core costs %v W, want 0.09", d)
	}
}

func TestActivePauseCore(t *testing.T) {
	// Fig. 7: one active pause thread ≈ one C1 core (180.4 vs 180.3 W);
	// each additional active core +0.33 W; second thread +0.05 W @2.5 GHz.
	m := NewModel(DefaultConfig())
	in := deepSleepInput(64)
	in.DeepSleep = false
	in.Cores[0] = CoreInput{State: cstate.C0, ActiveThreads: 1,
		Kernel: &workload.Pause, GHz: 2.5, Volts: 1.10}
	p1 := systemWatts(m, in)
	if math.Abs(p1-180.4) > 0.4 {
		t.Fatalf("one active pause thread: %v W, want ~180.4", p1)
	}
	in.Cores[1] = in.Cores[0]
	p2 := systemWatts(m, in)
	if d := p2 - p1; math.Abs(d-0.33) > 0.01 {
		t.Fatalf("additional active core: +%v W, want +0.33", d)
	}
	in.Cores[1].ActiveThreads = 2
	p3 := systemWatts(m, in)
	if d := p3 - p2; math.Abs(d-0.05) > 0.01 {
		t.Fatalf("second hardware thread: +%v W, want +0.05", d)
	}
}

func TestActivePowerFrequencyDependent(t *testing.T) {
	m := NewModel(DefaultConfig())
	in := deepSleepInput(64)
	in.DeepSleep = false
	in.Cores[0] = CoreInput{State: cstate.C0, ActiveThreads: 1,
		Kernel: &workload.Pause, GHz: 1.5, Volts: 0.90}
	pLow := systemWatts(m, in)
	in.Cores[0].GHz, in.Cores[0].Volts = 2.5, 1.10
	pHigh := systemWatts(m, in)
	if pHigh <= pLow {
		t.Fatalf("active power not frequency dependent: %v vs %v", pLow, pHigh)
	}
	// C1 power, in contrast, is frequency independent (same input, C1).
	in.Cores[0] = CoreInput{State: cstate.C1}
	pc1 := systemWatts(m, in)
	in.Cores[0] = CoreInput{State: cstate.C1, GHz: 2.5, Volts: 1.1}
	if got := systemWatts(m, in); got != pc1 {
		t.Fatalf("C1 power depends on frequency: %v vs %v", got, pc1)
	}
}

func TestFirestarterCalibration(t *testing.T) {
	// Fig. 6: SMT 509 W at 2.03 GHz, no-SMT 489 W at 2.10 GHz.
	m := NewModel(DefaultConfig())
	// Piecewise voltage interpolation matching the DVFS P-state table
	// (1.5 GHz/0.90 V, 2.2/1.00, 2.5/1.10).
	volts := func(f float64) float64 { return 0.90 + (f-1.5)/(2.2-1.5)*0.10 }

	smt := deepSleepInput(64)
	smt.DeepSleep = false
	for i := range smt.Cores {
		smt.Cores[i] = CoreInput{State: cstate.C0, ActiveThreads: 2,
			Kernel: &workload.Firestarter, GHz: 2.03, Volts: volts(2.03)}
	}
	smt.DRAMTrafficGBs = 0
	if got := systemWatts(m, smt); math.Abs(got-509) > 5 {
		t.Fatalf("FIRESTARTER SMT: %v W, want 509±5", got)
	}

	noSMT := deepSleepInput(64)
	noSMT.DeepSleep = false
	for i := range noSMT.Cores {
		noSMT.Cores[i] = CoreInput{State: cstate.C0, ActiveThreads: 1,
			Kernel: &workload.Firestarter, GHz: 2.10, Volts: volts(2.10)}
	}
	if got := systemWatts(m, noSMT); math.Abs(got-489) > 5 {
		t.Fatalf("FIRESTARTER no-SMT: %v W, want 489±5", got)
	}
}

func TestVXorpsToggleSwing(t *testing.T) {
	// Fig. 10a: 21 W (7.6 %) swing between weight 0 and 1 on all threads.
	m := NewModel(DefaultConfig())
	mk := func(w float64) snapshot {
		in := deepSleepInput(64)
		in.DeepSleep = false
		for i := range in.Cores {
			in.Cores[i] = CoreInput{State: cstate.C0, ActiveThreads: 2,
				Kernel: &workload.VXorps, GHz: 2.5, Volts: 1.10, HammingWeight: w}
		}
		return in
	}
	p0 := systemWatts(m, mk(0))
	p05 := systemWatts(m, mk(0.5))
	p1 := systemWatts(m, mk(1))
	swing := p1 - p0
	if math.Abs(swing-21) > 0.5 {
		t.Fatalf("vxorps swing = %v W, want ~21", swing)
	}
	if rel := swing / p0; math.Abs(rel-0.076) > 0.01 {
		t.Fatalf("relative swing %.3f, want ~0.076", rel)
	}
	if math.Abs(p05-(p0+p1)/2) > 0.1 {
		t.Fatalf("weight ordering not linear: %v %v %v", p0, p05, p1)
	}
	// Absolute level in the paper's 260–290 W band.
	if p0 < 255 || p1 > 295 {
		t.Fatalf("vxorps absolute power out of band: %v..%v", p0, p1)
	}
}

func TestShrToggleSwingSmall(t *testing.T) {
	// §VII-B: shr system power within 0.9 % across weights.
	m := NewModel(DefaultConfig())
	mk := func(w float64) snapshot {
		in := deepSleepInput(64)
		in.DeepSleep = false
		for i := range in.Cores {
			in.Cores[i] = CoreInput{State: cstate.C0, ActiveThreads: 2,
				Kernel: &workload.Shr, GHz: 2.5, Volts: 1.10, HammingWeight: w}
		}
		return in
	}
	p0, p1 := systemWatts(m, mk(0)), systemWatts(m, mk(1))
	if rel := (p1 - p0) / p0; rel <= 0 || rel > 0.009 {
		t.Fatalf("shr relative swing %.4f, want (0, 0.009]", rel)
	}
}

func TestMemoryTrafficPower(t *testing.T) {
	m := NewModel(DefaultConfig())
	in := deepSleepInput(64)
	in.DeepSleep = false
	in.Cores[0] = CoreInput{State: cstate.C0, ActiveThreads: 1,
		Kernel: &workload.MemoryRead, GHz: 2.5, Volts: 1.10}
	base := systemWatts(m, in)
	in.DRAMTrafficGBs = 20
	withTraffic := systemWatts(m, in)
	if d := withTraffic - base; math.Abs(d-20*iodie.DRAMTrafficWattsPerGBs) > 1e-9 {
		t.Fatalf("traffic power delta %v", d)
	}
}

func TestIODPStateReducesPower(t *testing.T) {
	m := NewModel(DefaultConfig())
	in := deepSleepInput(64)
	in.DeepSleep = false
	in.Cores[0].State = cstate.C1
	in.IOD.Setting = iodie.P0
	p0 := systemWatts(m, in)
	in.IOD.Setting = iodie.P3
	p3 := systemWatts(m, in)
	if p3 >= p0 {
		t.Fatalf("IOD P3 (%v W) not below P0 (%v W)", p3, p0)
	}
}

func TestMonotoneInActiveCores(t *testing.T) {
	// Property: adding active cores never lowers system power.
	m := NewModel(DefaultConfig())
	f := func(n uint8, fsel uint8) bool {
		freqs := []float64{1.5, 2.2, 2.5}
		volts := []float64{0.90, 1.00, 1.10}
		fi := int(fsel) % 3
		in := deepSleepInput(64)
		in.DeepSleep = false
		k := int(n) % 64
		for i := 0; i <= k; i++ {
			in.Cores[i] = CoreInput{State: cstate.C0, ActiveThreads: 1,
				Kernel: &workload.Busywait, GHz: freqs[fi], Volts: volts[fi]}
		}
		p1 := systemWatts(m, in)
		if k+1 < 64 {
			in.Cores[k+1] = in.Cores[0]
			if systemWatts(m, in) < p1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestThermalConvergence(t *testing.T) {
	cfg := DefaultConfig()
	th := NewThermal(cfg)
	if th.TempC() != cfg.AmbientC {
		t.Fatalf("initial temp %v", th.TempC())
	}
	// Hold 500 W for many time constants.
	now := sim.Time(0)
	th.Advance(now, 500)
	for i := 0; i < 100; i++ {
		now = now.Add(10 * sim.Second)
		th.Advance(now, 500)
	}
	want := cfg.AmbientC + cfg.ThermalResistance*500
	if math.Abs(th.TempC()-want) > 0.5 {
		t.Fatalf("steady-state temp %v, want %v", th.TempC(), want)
	}
}

func TestThermalPreheat(t *testing.T) {
	cfg := DefaultConfig()
	th := NewThermal(cfg)
	th.Preheat(509)
	want := cfg.AmbientC + cfg.ThermalResistance*509
	if math.Abs(th.TempC()-want) > 1e-9 {
		t.Fatalf("preheat temp %v, want %v", th.TempC(), want)
	}
}

func TestThermalMonotoneApproach(t *testing.T) {
	cfg := DefaultConfig()
	th := NewThermal(cfg)
	th.Advance(0, 300)
	prev := th.TempC()
	for i := 1; i <= 20; i++ {
		th.Advance(sim.Time(i)*sim.Time(sim.Second), 300)
		cur := th.TempC()
		if cur < prev-1e-9 {
			t.Fatalf("temperature decreased while heating: %v -> %v", prev, cur)
		}
		prev = cur
	}
}
