package zen2ee

import (
	"math"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/machine"
	"zen2ee/internal/sim"
)

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem()
	if sys.NumCPUs() != 128 || sys.NumCores() != 64 {
		t.Fatalf("topology %d CPUs / %d cores", sys.NumCPUs(), sys.NumCores())
	}
	sys.AdvanceMillis(20)
	if p := sys.PowerWatts(); math.Abs(p-99.1) > 0.1 {
		t.Fatalf("idle power %v", p)
	}
	if err := sys.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		if err := sys.Run(cpu, "firestarter"); err != nil {
			t.Fatal(err)
		}
	}
	sys.AdvanceMillis(300)
	if f := sys.CoreGHz(0); f < 2.0 || f > 2.06 {
		t.Fatalf("EDC-throttled frequency %v GHz", f)
	}
	if p := sys.PowerWatts(); math.Abs(p-509) > 10 {
		t.Fatalf("FIRESTARTER power %v W", p)
	}
	rapl := sys.RAPLPackageWatts(0, 500)
	if math.Abs(rapl-170) > 10 {
		t.Fatalf("RAPL package %v W", rapl)
	}
}

func TestUnknownKernelAndSetting(t *testing.T) {
	sys := NewSystem()
	if err := sys.Run(0, "definitely-not-a-kernel"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	if err := sys.SetIODieSetting("P9"); err == nil {
		t.Fatal("unknown I/O-die setting accepted")
	}
	if err := sys.SetIODieSetting("P2"); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetDRAMClockMHz(0); err == nil {
		t.Fatal("zero DRAM clock accepted")
	}
}

// TestOutOfRangeCPUs: every error-returning mutator answers a CPU outside
// the topology with an error, not an index panic, and an operand weight
// outside [0, 1] is an error too.
func TestOutOfRangeCPUs(t *testing.T) {
	sys := NewSystem()
	for _, c := range []struct {
		name string
		call func() error
	}{
		{"Run(-1)", func() error { return sys.Run(-1, "busywait") }},
		{"Run(128)", func() error { return sys.Run(128, "busywait") }},
		{"RunWeighted(1000)", func() error { return sys.RunWeighted(1000, "vxorps", 0.5) }},
		{"SetFrequencyMHz(200)", func() error { return sys.SetFrequencyMHz(200, 2500) }},
		{"SetFrequencyMHz(-1)", func() error { return sys.SetFrequencyMHz(-1, 2500) }},
		{"SetOnline(500)", func() error { return sys.SetOnline(500, false) }},
		{"SetOnline(-2)", func() error { return sys.SetOnline(-2, true) }},
		{"SetCStateEnabled(128)", func() error { return sys.SetCStateEnabled(128, 2, false) }},
		{"SetCStateEnabled(-1)", func() error { return sys.SetCStateEnabled(-1, 2, true) }},
		{"RunWeighted(weight 2)", func() error { return sys.RunWeighted(0, "vxorps", 2) }},
		{"RunWeighted(weight -1)", func() error { return sys.RunWeighted(0, "vxorps", -1) }},
		{"RunWeighted(weight NaN)", func() error { return sys.RunWeighted(0, "vxorps", math.NaN()) }},
		{"RunWeighted(weight +Inf)", func() error { return sys.RunWeighted(0, "vxorps", math.Inf(1)) }},
	} {
		if err := c.call(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
	sys.AdvanceMillis(20)
	if p := sys.PowerWatts(); math.Abs(p-99.1) > 0.1 {
		t.Fatalf("rejected calls moved idle power to %v W", p)
	}
}

func TestStatAndStop(t *testing.T) {
	sys := NewSystem()
	sys.SetFrequencyMHz(0, 2200)
	if err := sys.Run(0, "busywait"); err != nil {
		t.Fatal(err)
	}
	sys.AdvanceMillis(20)
	st := sys.Stat(0, 200)
	if math.Abs(st.GHz-2.2) > 0.01 {
		t.Fatalf("stat GHz %v", st.GHz)
	}
	sys.Stop(0)
	sys.AdvanceMillis(10)
	st = sys.Stat(0, 100)
	if st.GHz != 0 {
		t.Fatalf("stopped CPU still cycling at %v GHz", st.GHz)
	}
}

func TestMeter(t *testing.T) {
	sys := NewSystem()
	mt := sys.AttachMeter()
	sys.AdvanceMillis(100)
	w, err := mt.MeasureWatts(1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-99.1) > 0.2 {
		t.Fatalf("metered idle %v W", w)
	}
}

func TestAblationOptions(t *testing.T) {
	// No EDC manager: FIRESTARTER stays at nominal frequency.
	sys := NewSystem(WithoutEDCManager())
	sys.SetAllFrequenciesMHz(2500)
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		sys.Run(cpu, "firestarter")
	}
	sys.AdvanceMillis(300)
	if f := sys.CoreGHz(0); f != 2.5 {
		t.Fatalf("without EDC: %v GHz, want 2.5", f)
	}

	// No coupling: mixed CCX frequencies keep their settings.
	sys2 := NewSystem(WithoutCCXCoupling())
	sys2.SetFrequencyMHz(0, 1500)
	sys2.Run(0, "busywait")
	for c := 1; c < 4; c++ {
		cpu := c
		sys2.SetFrequencyMHz(cpu, 2500)
		sys2.Run(cpu, "busywait")
	}
	sys2.AdvanceMillis(50)
	if f := sys2.CoreGHz(0); f != 1.5 {
		t.Fatalf("without coupling: %v GHz, want 1.5", f)
	}

	// No offline anomaly: offlining keeps deep sleep.
	cfg := machine.DefaultConfig()
	cfg.CState.OfflineElevatesToC1 = false
	m := machine.New(cfg)
	m.Eng.RunFor(20 * sim.Millisecond)
	floor := m.SystemWatts()
	if err := m.SetOnline(64, false); err != nil {
		t.Fatal(err)
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	if p := m.SystemWatts(); math.Abs(p-floor) > 0.01 {
		t.Fatalf("ablated anomaly still raises power: %v vs %v", p, floor)
	}
}

func TestWakeLatencyAPI(t *testing.T) {
	sys := NewSystem()
	sys.SetAllFrequenciesMHz(2500)
	sys.AdvanceMillis(20)
	us := sys.Machine().WakeLatency(5, false).Micros()
	if us < 20 || us > 25 {
		t.Fatalf("C2 wake %v µs", us)
	}
}

func TestExperimentRegistryAPI(t *testing.T) {
	exps := core.Registry()
	if len(exps) != 19 {
		t.Fatalf("%d experiments", len(exps))
	}
	r, err := core.RunOne("sec6acpi", core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "sec6acpi" || r.Table() == "" {
		t.Fatal("bad result")
	}
	if _, err := core.RunOne("nope", core.DefaultOptions()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestKernelsAndSettingsLists(t *testing.T) {
	if len(Kernels()) < 15 {
		t.Fatalf("kernels: %v", Kernels())
	}
	if len(IODieSettings()) != 5 {
		t.Fatalf("settings: %v", IODieSettings())
	}
}

func TestHammingWeightAPI(t *testing.T) {
	sys := NewSystem()
	sys.SetAllFrequenciesMHz(2500)
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		if err := sys.RunWeighted(cpu, "vxorps", 1.0); err != nil {
			t.Fatal(err)
		}
	}
	sys.AdvanceMillis(50)
	p1 := sys.PowerWatts()
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		sys.RunWeighted(cpu, "vxorps", 0.0)
	}
	sys.AdvanceMillis(50)
	p0 := sys.PowerWatts()
	if math.Abs((p1-p0)-21) > 1 {
		t.Fatalf("vxorps weight swing %v W, want ~21", p1-p0)
	}
}

func TestIntelSlotGridOption(t *testing.T) {
	sys := NewSystem(WithIntelSlotGrid())
	sys.SetFrequencyMHz(0, 1500)
	sys.Run(0, "busywait")
	sys.AdvanceMillis(20)
	// Transition must complete within the Intel bound (524 µs) rather than
	// the Zen 2 worst case (1390 µs).
	sys.SetFrequencyMHz(0, 2500)
	var us float64
	for us = 0; us < 600; us += 5 {
		if sys.CoreGHz(0) == 2.5 {
			break
		}
		sys.AdvanceMicros(5)
	}
	if us >= 600 {
		t.Fatalf("Intel-grid transition took ≥600 µs")
	}
}
