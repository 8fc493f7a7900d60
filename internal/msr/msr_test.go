package msr

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPStateDefRoundTrip(t *testing.T) {
	f := func(en bool, fid, dfs, vid, idd, iddDiv uint8) bool {
		p := PStateDef{
			Enabled:  en,
			CpuFid:   fid,
			CpuDfsId: dfs & 0x3F,
			CpuVid:   vid,
			IddValue: idd & 0x3F,
			IddDiv:   iddDiv & 0x3,
		}
		return DecodePStateDef(p.Encode()) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestFrequencyEncoding(t *testing.T) {
	cases := []struct {
		mhz int
	}{{1500}, {2200}, {2500}, {3350}, {400}, {25}}
	for _, c := range cases {
		def, err := PStateDefFor(c.mhz, 1.0)
		if err != nil {
			t.Fatalf("PStateDefFor(%d): %v", c.mhz, err)
		}
		if got := def.FrequencyMHz(); got != c.mhz {
			t.Errorf("round-trip %d MHz -> %d MHz", c.mhz, got)
		}
	}
}

func TestFrequencyEncodingRejects(t *testing.T) {
	if _, err := PStateDefFor(2510, 1.0); err == nil {
		t.Error("2510 MHz (not a 25 MHz multiple) accepted")
	}
	if _, err := PStateDefFor(0, 1.0); err == nil {
		t.Error("0 MHz accepted")
	}
	if _, err := PStateDefFor(-100, 1.0); err == nil {
		t.Error("negative frequency accepted")
	}
	if _, err := PStateDefFor(2500, 9.9); err == nil {
		t.Error("absurd voltage accepted")
	}
}

func TestVoltageEncoding(t *testing.T) {
	def, err := PStateDefFor(2500, 1.10)
	if err != nil {
		t.Fatal(err)
	}
	if got := def.VoltageVolts(); math.Abs(got-1.10) > 0.004 {
		t.Fatalf("voltage round trip: %v, want ~1.10 (VID step 6.25 mV)", got)
	}
}

func TestPStateDefAddr(t *testing.T) {
	if a := PStateDefAddr(0); a != 0xC0010064 {
		t.Fatalf("PStateDefAddr(0) = %#x", uint32(a))
	}
	if a := PStateDefAddr(7); a != 0xC001006B {
		t.Fatalf("PStateDefAddr(7) = %#x", uint32(a))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PStateDefAddr(8) did not panic")
		}
	}()
	PStateDefAddr(8)
}

func TestFileStatic(t *testing.T) {
	f := NewFile(4)
	f.Define(PStateCtl, 0)
	if err := f.Write(2, PStateCtl, 2); err != nil {
		t.Fatal(err)
	}
	v, err := f.Read(2, PStateCtl)
	if err != nil || v != 2 {
		t.Fatalf("read back %d, %v", v, err)
	}
	// Other CPUs unaffected.
	v, _ = f.Read(0, PStateCtl)
	if v != 0 {
		t.Fatalf("cpu0 value leaked: %d", v)
	}
}

func TestFileUnknownMSR(t *testing.T) {
	f := NewFile(1)
	_, err := f.Read(0, Addr(0xDEAD))
	var unknown ErrUnknownMSR
	if !errors.As(err, &unknown) {
		t.Fatalf("expected ErrUnknownMSR, got %v", err)
	}
	if err := f.Write(0, Addr(0xDEAD), 1); !errors.As(err, &unknown) {
		t.Fatalf("expected ErrUnknownMSR on write, got %v", err)
	}
}

func TestFileCPURange(t *testing.T) {
	f := NewFile(2)
	f.Define(TSC, 0)
	if _, err := f.Read(2, TSC); err == nil {
		t.Fatal("out-of-range CPU read succeeded")
	}
	if err := f.Write(-1, TSC, 0); err == nil {
		t.Fatal("out-of-range CPU write succeeded")
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
	var wrote uint64
	f.HookWrite(PStateCtl, func(cpu int, v uint64) error {
		wrote = v
		return nil
	})
	if err := f.Write(0, PStateCtl, 5); err != nil {
		t.Fatal(err)
	}
	if wrote != 5 {
		t.Fatalf("write hook saw %d", wrote)
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

func TestPaperPStateTable(t *testing.T) {
	// The paper's three frequencies as a P-state table, highest first.
	freqs := []int{2500, 2200, 1500}
	volts := []float64{1.10, 1.00, 0.90}
	for i, mhz := range freqs {
		def, err := PStateDefFor(mhz, volts[i])
		if err != nil {
			t.Fatal(err)
		}
		if def.FrequencyMHz() != mhz {
			t.Fatalf("p%d: %d MHz", i, def.FrequencyMHz())
		}
		if !def.Enabled {
			t.Fatalf("p%d not enabled", i)
		}
	}
}
