package dvfs

import (
	"math"
	"testing"

	"zen2ee/internal/msr"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

func TestRequestMHzUnknownFrequency(t *testing.T) {
	_, _, c := newTestController()
	if err := c.RequestMHz(0, 1800); err == nil {
		t.Fatal("1800 MHz accepted but not in table")
	}
	if err := c.RequestMHz(0, 2200); err != nil {
		t.Fatal(err)
	}
}

func TestRequestOutOfRangePanics(t *testing.T) {
	_, _, c := newTestController()
	defer func() {
		if recover() == nil {
			t.Fatal("P-state 7 request did not panic with 3 defined states")
		}
	}()
	c.Request(0, 7)
}

func TestPStateCtlMSRReadback(t *testing.T) {
	eng := sim.NewEngine(1)
	top := soc.New(soc.EPYC7502x2())
	regs := msr.NewFile(top.NumThreads())
	New(eng, top, DefaultConfig(), regs)
	// Write a command and read it back through the PStateCtl hook.
	if err := regs.Write(9, msr.PStateCtl, 1); err != nil {
		t.Fatal(err)
	}
	v, err := regs.Read(9, msr.PStateCtl)
	if err != nil || v != 1 {
		t.Fatalf("PStateCtl readback %d, %v", v, err)
	}
	// The sibling's control register is separate.
	v, _ = regs.Read(9+64, msr.PStateCtl)
	if v != 2 {
		t.Fatalf("sibling PStateCtl = %d, want 2 (lowest)", v)
	}
}

func TestL3FloorWhenAllCoresSlow(t *testing.T) {
	eng, top, c := newTestController()
	// One active core at 1.5 GHz: the L3 follows it (above the 400 floor).
	c.SetActiveThreads(0, 1)
	c.Request(top.Cores[0].Threads[0], 2)
	eng.RunFor(5 * sim.Millisecond)
	if got := c.L3MHz(0); got != 1500 {
		t.Fatalf("L3 = %v", got)
	}
}

func TestSetCapsBulkNoOp(t *testing.T) {
	_, top, c := newTestController()
	calls := 0
	var moved []soc.PackageID
	c.AfterChange = func() { calls++ }
	c.CapMoved = func(pkg soc.PackageID) { moved = append(moved, pkg) }
	c.Dirty = func(core soc.CoreID) { t.Fatalf("a cap step marked core %d dirty", core) }
	c.SetCapMHz(0, 2000)
	if calls != 1 || len(moved) != 1 || moved[0] != 0 {
		t.Fatalf("package cap triggered %d notifications and moved %v, want 1 and [0]", calls, moved)
	}
	if c.CapMHz(0) != 2000 || !math.IsInf(c.CapMHz(1), 1) {
		t.Fatalf("caps %v, %v after capping package 0", c.CapMHz(0), c.CapMHz(1))
	}
	// Re-applying the identical cap must not notify at all.
	c.SetCapMHz(0, 2000)
	if calls != 1 || len(moved) != 1 {
		t.Fatalf("idempotent package cap notified again (%d)", calls)
	}
	// The cap applies to every core of the package, and to no other.
	c.Dirty = nil
	c.SetActiveThreads(0, 1)
	last := top.Packages[0].CCDs[len(top.Packages[0].CCDs)-1]
	c.Request(0, 0)
	c.Request(top.Cores[top.CCXs[top.CCDs[last].CCXs[0]].Cores[0]].Threads[0], 0)
	c.Request(top.Cores[len(top.Cores)-1].Threads[0], 0)
	c.eng.RunFor(5 * sim.Millisecond)
	if got := c.AppliedMHz(top.CCXs[top.CCDs[last].CCXs[0]].Cores[0]); got != 2000 {
		t.Fatalf("package 0's last CCD runs at %v MHz, want the 2000 MHz cap", got)
	}
	if got := c.AppliedMHz(soc.CoreID(len(top.Cores) - 1)); got != 2500 {
		t.Fatalf("package 1 runs at %v MHz, want 2500 uncapped", got)
	}
	// Uncap via 0.
	calls = 0
	c.SetCapMHz(0, 0)
	if calls != 1 || len(moved) != 2 {
		t.Fatalf("uncap notifications: %d, moved %v", calls, moved)
	}
	if got := c.EffectiveMHz(0); got != 2500 {
		t.Fatalf("frequency after uncap: %v", got)
	}
}

func TestSetBoostsBulkQuantization(t *testing.T) {
	eng, _, c := newTestController()
	c.SetActiveThreads(0, 1)
	c.Request(0, 0)
	eng.RunFor(5 * sim.Millisecond)
	c.SetBoostsMHz([]soc.CoreID{0}, 3344)
	if got := c.EffectiveMHz(0); got != 3325 {
		t.Fatalf("bulk boost effective = %v, want 3325", got)
	}
	c.SetBoostsMHz([]soc.CoreID{0}, -5)
	if got := c.EffectiveMHz(0); got != 2500 {
		t.Fatalf("negative grant should clear boost: %v", got)
	}
}

func TestTransitionInFlightVisibility(t *testing.T) {
	eng, _, c := newTestController()
	eng.RunUntil(sim.Time(100 * sim.Microsecond))
	c.Request(0, 0)
	if !c.TransitionInFlight(0) {
		t.Fatal("slot wait not visible as in-flight")
	}
	eng.RunUntil(sim.Time(1100 * sim.Microsecond)) // mid-ramp
	if !c.TransitionInFlight(0) {
		t.Fatal("ramp not visible as in-flight")
	}
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if c.TransitionInFlight(0) {
		t.Fatal("still in-flight after completion")
	}
}
