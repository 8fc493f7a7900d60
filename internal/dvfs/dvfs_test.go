package dvfs

import (
	"math"
	"testing"
	"testing/quick"

	"zen2ee/internal/cstate"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

func newTestController() (*sim.Engine, *soc.Topology, *Controller) {
	return newController(DefaultConfig())
}

// newController builds a controller over a C-state model whose threads
// all idle in C2, as a new machine's do.
func newController(cfg Config) (*sim.Engine, *soc.Topology, *Controller) {
	eng := sim.NewEngine(1)
	top := soc.New(soc.EPYC7502x2())
	cst := cstate.New(eng, top, cstate.DefaultConfig())
	for t := 0; t < top.NumThreads(); t++ {
		cst.EnterIdle(soc.ThreadID(t), cstate.C2)
	}
	return eng, top, New(eng, top, cfg, cst)
}

// setActive puts core's first n threads in C0 and idles the others in
// the controller's C-state model.
func setActive(c *Controller, core soc.CoreID, n int) {
	for i, t := range c.top.Cores[core].Threads {
		if i < n {
			c.cst.Wake(t, 0, false)
		} else {
			c.cst.EnterIdle(t, cstate.C2)
		}
	}
}

func TestInitialState(t *testing.T) {
	_, top, c := newTestController()
	for core := 0; core < top.NumCores(); core++ {
		if got := c.AppliedPState(soc.CoreID(core)); got != 2 {
			t.Fatalf("core %d initial P-state %d, want 2 (lowest)", core, got)
		}
	}
	if f := c.EffectiveMHz(0); f != 1500 {
		t.Fatalf("initial effective = %v, want 1500", f)
	}
}

func TestBasicTransitionTiming(t *testing.T) {
	eng, _, c := newTestController()
	// Move off the grid: request at t=250µs.
	eng.RunUntil(sim.Time(250 * sim.Microsecond))
	c.Request(0, 0) // to 2.5 GHz
	if c.AppliedPState(0) != 2 {
		t.Fatal("transition applied instantly")
	}
	// Slot at 1 ms, up-ramp 360 µs: completion at 1.36 ms.
	eng.RunUntil(sim.Time(1359 * sim.Microsecond))
	if c.AppliedPState(0) != 2 {
		t.Fatal("transition completed early")
	}
	eng.RunUntil(sim.Time(1361 * sim.Microsecond))
	if c.AppliedPState(0) != 0 {
		t.Fatal("transition did not complete at slot+ramp")
	}
	if f := c.EffectiveMHz(0); f != 2500 {
		t.Fatalf("effective = %v, want 2500", f)
	}
}

func TestDownRampSlower(t *testing.T) {
	eng, _, c := newTestController()
	c.Request(0, 0)
	eng.RunFor(sim.Duration(20 * sim.Millisecond)) // settle well past fast-return window
	start := eng.Now()
	c.Request(0, 2) // 2.5 -> 1.5 GHz
	for c.AppliedPState(0) != 2 {
		eng.RunFor(10 * sim.Microsecond)
	}
	delay := eng.Now().Sub(start)
	// Delay = slot wait (<=1ms) + 390µs down-ramp.
	if delay < 390*sim.Microsecond || delay > 1400*sim.Microsecond {
		t.Fatalf("down transition delay %v outside [390µs, 1.4ms]", delay)
	}
}

func TestMaxRequestWinsAcrossThreads(t *testing.T) {
	eng, top, c := newTestController()
	// Thread 0 (core 0) wants 1.5 GHz; its sibling (thread 64) wants 2.5.
	c.Request(0, 2)
	c.Request(top.Sibling(0), 0)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if got := c.AppliedPState(0); got != 0 {
		t.Fatalf("core P-state %d, want 0: sibling's higher request must win", got)
	}
	// Even after the sibling goes idle the request persists (§V-A):
	// there is no notion of "idle drops the request" in the hardware.
	setActive(c, 0, 1)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if got := c.AppliedPState(0); got != 0 {
		t.Fatalf("core dropped to %d after sibling idled", got)
	}
	// Only an explicit re-request from the sibling releases the core.
	c.Request(top.Sibling(0), 2)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if got := c.AppliedPState(0); got != 2 {
		t.Fatalf("core at %d after sibling re-request", got)
	}
}

func TestUniformSlotDistribution(t *testing.T) {
	// Requests at random offsets must see delays spread over
	// [ramp, slot+ramp) — the Fig. 3 uniform distribution.
	eng, _, c := newTestController()
	cfg := DefaultConfig()
	rng := sim.NewRNG(7)
	var delays []sim.Duration
	cur := 2
	for i := 0; i < 300; i++ {
		eng.RunFor(sim.Duration(rng.DurationRange(6*sim.Millisecond, 16*sim.Millisecond)))
		tgt := 2 - cur // alternate 2 <-> 0 (1.5 and 2.5 GHz: no fast return)
		start := eng.Now()
		c.Request(0, tgt)
		for c.AppliedPState(0) != tgt {
			eng.RunFor(5 * sim.Microsecond)
		}
		delays = append(delays, eng.Now().Sub(start))
		cur = tgt
	}
	minD, maxD := delays[0], delays[0]
	for _, d := range delays {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	if minD < cfg.RampUp-10*sim.Microsecond {
		t.Fatalf("min delay %v below ramp %v", minD, cfg.RampUp)
	}
	if maxD > cfg.SlotPeriod+cfg.RampDown+20*sim.Microsecond {
		t.Fatalf("max delay %v above slot+ramp", maxD)
	}
	if spread := maxD - minD; spread < 800*sim.Microsecond {
		t.Fatalf("delay spread %v too narrow for a 1 ms slot grid", spread)
	}
}

func TestFastReturnUpSwitch(t *testing.T) {
	eng, _, c := newTestController()
	// Go to 2.5 GHz, settle, then 2.5 -> 2.2 and quickly back.
	c.Request(0, 0)
	eng.RunFor(sim.Duration(20 * sim.Millisecond))
	c.Request(0, 1) // 2.5 -> 2.2
	for c.AppliedPState(0) != 1 {
		eng.RunFor(5 * sim.Microsecond)
	}
	// Return within the settle window: must be quasi-instantaneous.
	eng.RunFor(sim.Duration(500 * sim.Microsecond))
	start := eng.Now()
	c.Request(0, 0)
	for c.AppliedPState(0) != 0 {
		eng.RunFor(200 * sim.Nanosecond)
	}
	delay := eng.Now().Sub(start)
	if delay > 2*sim.Microsecond {
		t.Fatalf("fast up-return took %v, want ~1µs", delay)
	}
}

func TestFastReturnDownSwitchShortRamp(t *testing.T) {
	eng, _, c := newTestController()
	cfg := DefaultConfig()
	// 2.2 GHz settled, then 2.2 -> 2.5, quickly back to 2.2.
	c.Request(0, 1)
	eng.RunFor(sim.Duration(20 * sim.Millisecond))
	c.Request(0, 0)
	for c.AppliedPState(0) != 0 {
		eng.RunFor(5 * sim.Microsecond)
	}
	eng.RunFor(sim.Duration(100 * sim.Microsecond))
	start := eng.Now()
	c.Request(0, 1)
	for c.AppliedPState(0) != 1 {
		eng.RunFor(5 * sim.Microsecond)
	}
	delay := eng.Now().Sub(start)
	// The ramp portion must be well below the normal 390 µs: total delay
	// stays under slot + shortened ramp instead of slot + 390 µs.
	if delay > cfg.SlotPeriod+200*sim.Microsecond {
		t.Fatalf("fast down-return %v not shortened (normal max 1.39ms)", delay)
	}
}

func TestNoFastReturnBetweenLowStates(t *testing.T) {
	eng, _, c := newTestController()
	// 1.5 <-> 2.2 must never be instantaneous.
	c.Request(0, 1)
	eng.RunFor(sim.Duration(20 * sim.Millisecond))
	c.Request(0, 2)
	for c.AppliedPState(0) != 2 {
		eng.RunFor(5 * sim.Microsecond)
	}
	eng.RunFor(sim.Duration(100 * sim.Microsecond))
	start := eng.Now()
	c.Request(0, 1)
	for c.AppliedPState(0) != 1 {
		eng.RunFor(5 * sim.Microsecond)
	}
	delay := eng.Now().Sub(start)
	if delay < 300*sim.Microsecond {
		t.Fatalf("1.5->2.2 return was fast (%v); anomaly must be limited to the top two P-states", delay)
	}
}

func TestFastReturnExpiresAfterWindow(t *testing.T) {
	eng, _, c := newTestController()
	c.Request(0, 0)
	eng.RunFor(sim.Duration(20 * sim.Millisecond))
	c.Request(0, 1)
	for c.AppliedPState(0) != 1 {
		eng.RunFor(5 * sim.Microsecond)
	}
	// Wait longer than the 5 ms settle window (paper: effect disappears
	// with waits of at least 5 ms).
	eng.RunFor(sim.Duration(6 * sim.Millisecond))
	start := eng.Now()
	c.Request(0, 0)
	for c.AppliedPState(0) != 0 {
		eng.RunFor(5 * sim.Microsecond)
	}
	delay := eng.Now().Sub(start)
	if delay < 300*sim.Microsecond {
		t.Fatalf("fast return still active after settle window: %v", delay)
	}
}

func TestCouplingTable1(t *testing.T) {
	// Reproduce Table I: measured core at fSet with three active cores at
	// fOther in the same CCX.
	cases := []struct {
		set, others int     // P-state indices
		wantMHz     float64 // paper's measured mean, GHz*1000
		tol         float64
	}{
		{2, 2, 1500, 2}, {2, 1, 1466, 2}, {2, 0, 1428, 2},
		{1, 2, 2200, 2}, {1, 1, 2200, 2}, {1, 0, 2000, 2},
		{0, 2, 2500, 4}, {0, 1, 2500, 4}, {0, 0, 2500, 4},
	}
	for _, cse := range cases {
		eng, top, c := newTestController()
		// CCX0 = cores 0..3; core 0 measured, 1..3 others. All active.
		for core := 0; core < 4; core++ {
			setActive(c, soc.CoreID(core), 1)
		}
		c.Request(0, cse.set)
		for other := 1; other < 4; other++ {
			c.Request(top.Cores[other].Threads[0], cse.others)
		}
		eng.RunFor(sim.Duration(10 * sim.Millisecond))
		got := c.EffectiveMHz(0)
		if math.Abs(got-cse.wantMHz) > cse.tol {
			t.Errorf("set P%d others P%d: effective %.1f MHz, want %.1f±%.1f",
				cse.set, cse.others, got, cse.wantMHz, cse.tol)
		}
	}
}

func TestCouplingIgnoresIdleCores(t *testing.T) {
	eng, top, c := newTestController()
	setActive(c, 0, 1)
	c.Request(0, 2)
	// Core 1 requests 2.5 GHz but is idle: no penalty on core 0.
	c.Request(top.Cores[1].Threads[0], 0)
	setActive(c, 1, 0)
	eng.RunFor(sim.Duration(10 * sim.Millisecond))
	if got := c.EffectiveMHz(0); got != 1500 {
		t.Fatalf("idle neighbour caused penalty: %v MHz", got)
	}
	// Activating it brings the Table I penalty.
	setActive(c, 1, 1)
	if got := c.EffectiveMHz(0); math.Abs(got-1428) > 2 {
		t.Fatalf("active 2.5 GHz neighbour: effective %v, want 1428", got)
	}
}

func TestCouplingDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CouplingEnabled = false
	eng, top, c := newController(cfg)
	for core := 0; core < 4; core++ {
		setActive(c, soc.CoreID(core), 1)
	}
	c.Request(0, 2)
	for other := 1; other < 4; other++ {
		c.Request(top.Cores[other].Threads[0], 0)
	}
	eng.RunFor(sim.Duration(10 * sim.Millisecond))
	if got := c.EffectiveMHz(0); got != 1500 {
		t.Fatalf("ablated coupling still penalizes: %v", got)
	}
}

func TestL3Clock(t *testing.T) {
	eng, top, c := newTestController()
	// All idle: floor.
	if got := c.L3MHz(0); got != 400 {
		t.Fatalf("idle L3 = %v, want 400 floor", got)
	}
	setActive(c, 0, 1)
	c.Request(0, 2)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if got := c.L3MHz(0); got != 1500 {
		t.Fatalf("L3 = %v, want 1500", got)
	}
	// A faster active core raises the L3 clock (Fig. 4 mechanism).
	setActive(c, 1, 1)
	c.Request(top.Cores[1].Threads[0], 0)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if got := c.L3MHz(0); got != 2500 {
		t.Fatalf("L3 = %v, want 2500 (fastest active core)", got)
	}
	// Other CCX unaffected.
	if got := c.L3MHz(1); got != 400 {
		t.Fatalf("CCX1 L3 = %v, want 400", got)
	}
}

func TestSMUCap(t *testing.T) {
	eng, _, c := newTestController()
	setActive(c, 0, 1)
	c.Request(0, 0)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	c.SetCapMHz(0, 2025)
	if got := c.EffectiveMHz(0); got != 2025 {
		t.Fatalf("capped effective = %v, want 2025", got)
	}
	if got := c.AppliedPState(0); got != 0 {
		t.Fatalf("cap changed P-state to %d", got)
	}
	c.SetCapMHz(0, math.Inf(1)) // uncap
	if got := c.EffectiveMHz(0); got != 2500 {
		t.Fatalf("uncapped effective = %v", got)
	}
}

func TestVoltageInterpolation(t *testing.T) {
	_, _, c := newTestController()
	cases := []struct{ mhz, want float64 }{
		{2500, 1.10}, {2200, 1.00}, {1500, 0.90},
		// Above P0 (boost range) the voltage extrapolates along the top
		// segment (0.1 V / 300 MHz), bounded at the 1.40 V rail ceiling.
		{3000, 1.2667}, {3350, 1.3833}, {4000, 1.40},
		{1000, 0.90},
		{2350, 1.05}, {1850, 0.95},
	}
	for _, cse := range cases {
		if got := c.VoltageAt(cse.mhz); math.Abs(got-cse.want) > 1e-4 {
			t.Errorf("VoltageAt(%v) = %v, want %v", cse.mhz, got, cse.want)
		}
	}
}

func TestBoostGrant(t *testing.T) {
	eng, _, c := newTestController()
	setActive(c, 0, 1)
	c.Request(0, 0)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	// Grant quantizes to 25 MHz steps and only applies in P-state 0.
	c.SetBoostsMHz([]soc.CoreID{0}, 3344)
	if got := c.EffectiveMHz(0); got != 3325 {
		t.Fatalf("boosted effective = %v, want 3325 (quantized)", got)
	}
	if got := c.UncappedMHz(0); got != 3325 {
		t.Fatalf("uncapped = %v", got)
	}
	// A cap still wins over the boost grant.
	c.SetCapMHz(0, 2100)
	if got := c.EffectiveMHz(0); got != 2100 {
		t.Fatalf("capped boosted = %v", got)
	}
	c.SetCapMHz(0, math.Inf(1))
	// Dropping to a lower P-state disables the boost grant.
	c.Request(0, 1)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if got := c.EffectiveMHz(0); got != 2200 {
		t.Fatalf("P1 with stale grant = %v, want 2200", got)
	}
}

// TestBeforeAfterChangeHooks pins that a completed transition runs
// AfterChange once.
func TestBeforeAfterChangeHooks(t *testing.T) {
	eng, _, c := newTestController()
	after := 0
	c.AfterChange = func() { after++ }
	c.Request(0, 0)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if after != 1 {
		t.Fatalf("AfterChange ran %d times over one transition, want 1", after)
	}
}

func TestCouplingPenaltyProperties(t *testing.T) {
	// Penalty is zero when fMax <= fSet, non-negative, and bounded by the
	// frequency gap for arbitrary inputs.
	f := func(a, b uint16) bool {
		fSet := 1000 + float64(a%2000)
		fMax := 1000 + float64(b%2000)
		p := couplingPenaltyMHz(fSet, fMax)
		if fMax <= fSet && p != 0 {
			return false
		}
		return p >= 0 && p <= 250
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.PStates = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty P-state table validated")
	}
	bad2 := DefaultConfig()
	bad2.PStates = []PState{{2200, 1}, {2500, 1.1}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("ascending P-state table validated")
	}
	bad3 := DefaultConfig()
	bad3.SlotPeriod = 0
	if err := bad3.Validate(); err == nil {
		t.Fatal("zero slot period validated")
	}
}

// The next three tests pin the register-encoding checks of Validate: each
// P-state's frequency needs a frequency ID (25 MHz steps, at most 255) and
// its voltage an SVI2 voltage ID in 0..255.

func TestValidateFrequencyEncoding(t *testing.T) {
	for _, mhz := range []int{25, 400, 1500, 2200, 2500, 3350, 6375} {
		cfg := DefaultConfig()
		cfg.PStates = []PState{{mhz, 1.0}}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d MHz: %v", mhz, err)
		}
	}
}

func TestValidateFrequencyEncodingRejects(t *testing.T) {
	for _, p := range []PState{
		{2510, 1.0}, {0, 1.0}, {-100, 1.0}, {6400, 1.0},
		{2500, 9.9}, {2500, -1}, {2500, 1.56}, {2500, math.NaN()},
	} {
		cfg := DefaultConfig()
		cfg.PStates = []PState{p}
		if err := cfg.Validate(); err == nil {
			t.Errorf("P-state %+v validated", p)
		}
	}
}

// TestValidatePaperPStateTable checks that the paper's table, and the EPYC
// 7742 table of the throttling extension, encode.
func TestValidatePaperPStateTable(t *testing.T) {
	for _, table := range [][]PState{
		DefaultConfig().PStates,
		{{2250, 1.05}, {1800, 0.95}, {1500, 0.90}},
	} {
		cfg := DefaultConfig()
		cfg.PStates = table
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", table, err)
		}
	}
}

func TestIndexOfMHz(t *testing.T) {
	cfg := DefaultConfig()
	if i, err := cfg.IndexOfMHz(2200); err != nil || i != 1 {
		t.Fatalf("IndexOfMHz(2200) = %d, %v", i, err)
	}
	if _, err := cfg.IndexOfMHz(1800); err == nil {
		t.Fatal("IndexOfMHz(1800) should fail")
	}
}

func TestRequestWithdrawnBeforeSlot(t *testing.T) {
	eng, _, c := newTestController()
	eng.RunUntil(sim.Time(100 * sim.Microsecond))
	c.Request(0, 0)
	// Withdraw before the 1 ms slot arrives.
	eng.RunUntil(sim.Time(500 * sim.Microsecond))
	c.Request(0, 2)
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if got := c.AppliedPState(0); got != 2 {
		t.Fatalf("withdrawn request still applied: P%d", got)
	}
}

func TestRetargetDuringRamp(t *testing.T) {
	eng, _, c := newTestController()
	eng.RunUntil(sim.Time(100 * sim.Microsecond))
	c.Request(0, 0)
	// Change target mid-ramp (slot at 1ms, ramp ends 1.36ms).
	eng.RunUntil(sim.Time(1200 * sim.Microsecond))
	c.Request(0, 1)
	eng.RunFor(sim.Duration(10 * sim.Millisecond))
	if got := c.AppliedPState(0); got != 1 {
		t.Fatalf("final P-state %d, want 1 (latest request)", got)
	}
}
