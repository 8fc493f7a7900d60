package dvfs

import (
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
	_, _, c := newTestController()
	calls := 0
	c.AfterChange = func() { calls++ }
	cores := []soc.CoreID{0, 1, 2, 3}
	c.SetCapsMHz(cores, 2000)
	if calls != 1 {
		t.Fatalf("bulk cap triggered %d notifications, want 1", calls)
	}
	// Re-applying the identical cap must not notify at all.
	c.SetCapsMHz(cores, 2000)
	if calls != 1 {
		t.Fatalf("idempotent bulk cap notified again (%d)", calls)
	}
	// Uncap via 0.
	c.SetCapsMHz(cores, 0)
	if calls != 2 {
		t.Fatalf("uncap notifications: %d", calls)
	}
	if got := c.EffectiveMHz(0); got != 1500 {
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
