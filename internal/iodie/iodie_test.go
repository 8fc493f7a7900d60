package iodie

import (
	"math"
	"testing"
)

func cfg(s Setting, mem int) Config {
	return Config{MemClkMHz: mem, Setting: s, ChannelsPerQuadrant: 2}
}

func TestFig5bAnchors(t *testing.T) {
	cases := []struct {
		s    Setting
		mem  int
		want float64
	}{
		{P3, DRAM1467, 142}, {P2, DRAM1467, 101}, {P1, DRAM1467, 113},
		{P0, DRAM1467, 96}, {Auto, DRAM1467, 92},
		{P3, DRAM1600, 137}, {P2, DRAM1600, 104}, {P1, DRAM1600, 110},
		{P0, DRAM1600, 109}, {Auto, DRAM1600, 104},
	}
	for _, c := range cases {
		if got := cfg(c.s, c.mem).LatencyNs(); got != c.want {
			t.Errorf("latency(%v, %d) = %v, want %v", c.s, c.mem, got, c.want)
		}
	}
}

func TestPaperLatencyFindings(t *testing.T) {
	// "auto outperforms the P-state 0 with 92.0 ns vs 96.0 ns"
	if a, p0 := cfg(Auto, DRAM1467).LatencyNs(), cfg(P0, DRAM1467).LatencyNs(); a >= p0 {
		t.Fatalf("auto (%v) must beat P0 (%v) at 1.467 GHz", a, p0)
	}
	// "for the higher memory frequency, also the I/O die P-state 2 performs
	// better than P-state 0"
	if p2, p0 := cfg(P2, DRAM1600).LatencyNs(), cfg(P0, DRAM1600).LatencyNs(); p2 >= p0 {
		t.Fatalf("P2 (%v) must beat P0 (%v) at 1.6 GHz", p2, p0)
	}
	// Auto performs well in all scenarios: never worse than the best pinned
	// state by more than measurement noise.
	for _, mem := range []int{DRAM1467, DRAM1600} {
		best := math.Inf(1)
		for _, s := range []Setting{P0, P1, P2, P3} {
			if v := cfg(s, mem).LatencyNs(); v < best {
				best = v
			}
		}
		if a := cfg(Auto, mem).LatencyNs(); a > best {
			t.Fatalf("auto (%v ns) worse than best pinned (%v ns) at %d MHz", a, best, mem)
		}
	}
}

func TestFig5aAnchors(t *testing.T) {
	cases := []struct {
		s      Setting
		mem    int
		cores  int
		twoCCX bool
		want   float64
	}{
		{P3, DRAM1467, 1, false, 22.2},
		{P3, DRAM1600, 4, true, 31.0},
		{P2, DRAM1600, 4, false, 40.1},
		{P1, DRAM1467, 3, false, 36.8},
		{P0, DRAM1600, 2, false, 32.4},
		{Auto, DRAM1467, 4, true, 38.2},
		{Auto, DRAM1600, 1, false, 26.5},
	}
	for _, c := range cases {
		got := cfg(c.s, c.mem).StreamBandwidthGBs(c.cores, c.twoCCX)
		if got != c.want {
			t.Errorf("bw(%v,%d,%d,%v) = %v, want %v", c.s, c.mem, c.cores, c.twoCCX, got, c.want)
		}
	}
}

func TestHigherIODPStateLowersBandwidth(t *testing.T) {
	// P3 must be the clear loser everywhere (paper: higher I/O die P-states
	// lower memory bandwidth).
	for _, mem := range []int{DRAM1467, DRAM1600} {
		for cores := 1; cores <= 4; cores++ {
			p3 := cfg(P3, mem).StreamBandwidthGBs(cores, false)
			for _, s := range []Setting{P0, P1, P2, Auto} {
				if v := cfg(s, mem).StreamBandwidthGBs(cores, false); v <= p3 {
					t.Fatalf("%v (%v GB/s) not above P3 (%v) at %d cores", s, v, p3, cores)
				}
			}
		}
	}
}

func TestDRAMFrequencySurprise(t *testing.T) {
	// "Surprisingly, a higher DRAM frequency does not increase memory
	// bandwidth significantly" — single-core bandwidth changes by < 2 %.
	for _, s := range Settings() {
		lo := cfg(s, DRAM1467).StreamBandwidthGBs(1, false)
		hi := cfg(s, DRAM1600).StreamBandwidthGBs(1, false)
		if rel := math.Abs(hi-lo) / lo; rel > 0.02 {
			t.Errorf("%v: single-core bandwidth moved %.1f%% with DRAM frequency", s, rel*100)
		}
	}
}

func TestMemClkInterpolation(t *testing.T) {
	mid := cfg(P0, (DRAM1467+DRAM1600)/2).LatencyNs()
	lo, hi := cfg(P0, DRAM1467).LatencyNs(), cfg(P0, DRAM1600).LatencyNs()
	if mid <= math.Min(lo, hi) || mid >= math.Max(lo, hi) {
		t.Fatalf("interpolated latency %v outside (%v, %v)", mid, lo, hi)
	}
	// Clamped outside the calibrated range.
	if got := cfg(P0, 1200).LatencyNs(); got != lo {
		t.Fatalf("below-range latency %v, want clamp to %v", got, lo)
	}
	if got := cfg(P0, 1900).LatencyNs(); got != hi {
		t.Fatalf("above-range latency %v, want clamp to %v", got, hi)
	}
}

func TestFCLK(t *testing.T) {
	cases := []struct {
		s    Setting
		mem  int
		want int
	}{
		{P0, DRAM1600, 1467}, {P1, DRAM1600, 1333}, {P2, DRAM1600, 1200},
		{P3, DRAM1600, 667},
		{Auto, DRAM1600, 1467}, // capped at fabric max
		{Auto, DRAM1467, 1467},
		{Auto, 1200, 1200}, // coupled below the cap
	}
	for _, c := range cases {
		if got := cfg(c.s, c.mem).FCLKMHz(); got != c.want {
			t.Errorf("FCLK(%v,%d) = %d, want %d", c.s, c.mem, got, c.want)
		}
	}
}

func TestActiveWattsOrdering(t *testing.T) {
	// Higher I/O-die P-states reduce power.
	p0 := cfg(P0, DRAM1600).ActiveWatts()
	p3 := cfg(P3, DRAM1600).ActiveWatts()
	if p3 >= p0 {
		t.Fatalf("P3 power %v not below P0 %v", p3, p0)
	}
	// P0 anchors at the Fig. 7 wake cost.
	if math.Abs(p0-WakeWatts) > 1e-9 {
		t.Fatalf("P0 active watts %v, want %v", p0, WakeWatts)
	}
}

func TestTrafficWatts(t *testing.T) {
	if TrafficWatts(-5) != 0 {
		t.Fatal("negative traffic must not produce power")
	}
	if got := TrafficWatts(10); math.Abs(got-3.5) > 1e-9 {
		t.Fatalf("TrafficWatts(10) = %v", got)
	}
}

func TestBandwidthCoreClamping(t *testing.T) {
	c := cfg(Auto, DRAM1600)
	if got := c.StreamBandwidthGBs(0, false); got != 0 {
		t.Fatalf("0 cores = %v", got)
	}
	// More than 4 cores clamps to the 4-core column.
	if got, want := c.StreamBandwidthGBs(7, false), c.StreamBandwidthGBs(4, false); got != want {
		t.Fatalf("7 cores = %v, want %v", got, want)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{MemClkMHz: 0, Setting: Auto, ChannelsPerQuadrant: 2},
		{MemClkMHz: 1600, Setting: Setting(9), ChannelsPerQuadrant: 2},
		{MemClkMHz: 1600, Setting: Auto, ChannelsPerQuadrant: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestSettingString(t *testing.T) {
	if Auto.String() != "auto" || P2.String() != "P2" {
		t.Fatalf("%v %v", Auto, P2)
	}
}
