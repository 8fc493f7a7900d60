package msr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestFileUnknownMSR(t *testing.T) {
	f := NewFile(1)
	_, err := f.Read(0, Addr(0xDEAD))
	var unknown ErrUnknownMSR
	if !errors.As(err, &unknown) {
		t.Fatalf("expected ErrUnknownMSR, got %v", err)
	}
}

func TestFileCPURange(t *testing.T) {
	f := NewFile(2)
	f.HookRead(TSC, func(int) uint64 { return 0 })
	if _, err := f.Read(2, TSC); err == nil {
		t.Fatal("out-of-range CPU read succeeded")
	}
	if _, err := f.Read(-1, TSC); err == nil {
		t.Fatal("negative CPU read succeeded")
	}
}

func TestFileHooks(t *testing.T) {
	f := NewFile(2)
	calls := 0
	f.HookRead(APERF, func(cpu int) uint64 {
		calls++
		return uint64(cpu) * 100
	})
	v, err := f.Read(1, APERF)
	if err != nil || v != 100 {
		t.Fatalf("hook read: %d, %v", v, err)
	}
	if calls != 1 {
		t.Fatalf("hook called %d times", calls)
	}
}

func TestRAPLUnits(t *testing.T) {
	u := DefaultRAPLUnits()
	unit := EnergyUnitJoules(u)
	want := 1.0 / 65536.0
	if math.Abs(unit-want) > 1e-12 {
		t.Fatalf("energy unit = %v, want %v", unit, want)
	}
}

func TestEnergyCounterWrap(t *testing.T) {
	u := DefaultRAPLUnits()
	// A counter that wraps: before near max, after small.
	before := uint64(0xFFFF_FFF0)
	after := uint64(0x10)
	j := CounterDeltaJoules(before, after, u)
	wantTicks := 0x20
	if math.Abs(j-float64(wantTicks)/65536.0) > 1e-12 {
		t.Fatalf("wrapped delta = %v J", j)
	}
}

func TestEnergyToCounterRoundTrip(t *testing.T) {
	f := func(milliJ uint32) bool {
		u := DefaultRAPLUnits()
		// Stay below the 32-bit counter wrap point (2^32 units = 65536 J).
		joules := float64(milliJ%60_000_000) / 1000.0
		c := EnergyToCounter(joules, u)
		back := float64(c) * EnergyUnitJoules(u)
		// Quantization error bounded by one unit.
		return math.Abs(back-joules) <= EnergyUnitJoules(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
