// Package iodie models the Rome I/O die: its own voltage/frequency domain
// (I/O-die P-states selecting the Infinity Fabric clock, FCLK), the unified
// memory controllers (UMC) with their DRAM clock (MEMCLK), and the resulting
// main-memory bandwidth and latency behaviour of §V-D / Fig. 5.
//
// The paper publishes the response surface (bandwidth and latency for every
// combination of I/O-die P-state, DRAM frequency and core count) but not the
// underlying control mechanism, and explicitly notes non-monotonic effects
// ("a better match between the frequency domains for memory and I/O die").
// The model therefore keeps the measured anchor matrices as its calibrated
// response surface and interpolates between them.
package iodie

import "fmt"

// Setting selects the I/O-die P-state. P0 is the highest fabric frequency.
type Setting int

// Auto lets the hardware control loop pick the fabric state; the paper
// finds it "performs good for all scenarios".
const (
	Auto Setting = iota - 1 // -1
	P0
	P1
	P2
	P3
)

func (s Setting) String() string {
	if s == Auto {
		return "auto"
	}
	return fmt.Sprintf("P%d", int(s))
}

// Settings lists all selectable I/O-die P-states in the Fig. 5 row order.
func Settings() []Setting { return []Setting{P3, P2, P1, P0, Auto} }

// DRAM frequencies of the paper's BIOS options, in MHz.
const (
	DRAM1467 = 1467
	DRAM1600 = 1600
)

// Config parameterizes the I/O-die model.
type Config struct {
	// MemClkMHz is the DRAM clock (1467 or 1600 on the test system).
	MemClkMHz int
	// Setting is the selected I/O-die P-state.
	Setting Setting
	// ChannelsPerQuadrant reflects the "2-Channel Interleaving (per
	// Quadrant)" NUMA mode of the test system.
	ChannelsPerQuadrant int
}

// DefaultConfig is the paper's default: DRAM at 1.6 GHz, auto I/O-die
// P-state, per-quadrant interleaving.
func DefaultConfig() Config {
	return Config{MemClkMHz: DRAM1600, Setting: Auto, ChannelsPerQuadrant: 2}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MemClkMHz <= 0 {
		return fmt.Errorf("iodie: non-positive DRAM clock")
	}
	if c.Setting < Auto || c.Setting > P3 {
		return fmt.Errorf("iodie: invalid I/O-die P-state %d", int(c.Setting))
	}
	if c.ChannelsPerQuadrant <= 0 {
		return fmt.Errorf("iodie: need at least one channel per quadrant")
	}
	return nil
}

// FCLKMHz returns the Infinity Fabric clock for a setting. In Auto the
// fabric couples to the memory clock (capped at the fabric's 1467 MHz
// maximum), which is why Auto wins the latency comparison.
func (c Config) FCLKMHz() int {
	switch c.Setting {
	case P0:
		return 1467
	case P1:
		return 1333
	case P2:
		return 1200
	case P3:
		return 667
	default: // Auto
		if c.MemClkMHz < 1467 {
			return c.MemClkMHz
		}
		return 1467
	}
}

// settingIndex maps a Setting to the anchor-table row (Fig. 5 order:
// P3, P2, P1, P0, auto).
func settingIndex(s Setting) int {
	switch s {
	case P3:
		return 0
	case P2:
		return 1
	case P1:
		return 2
	case P0:
		return 3
	default:
		return 4
	}
}

// latencyNs holds Fig. 5b: DRAM load-to-use latency (pointer chasing, huge
// pages, prefetchers off) in ns, rows per settingIndex, columns for MEMCLK
// 1467 and 1600 MHz.
var latencyNs = [5][2]float64{
	{142, 137}, // P3
	{101, 104}, // P2
	{113, 110}, // P1
	{96, 109},  // P0
	{92, 104},  // auto
}

// bandwidthGBs holds Fig. 5a: STREAM-Triad bandwidth in GB/s for
// {1, 2, 3, 4} cores on one CCX and 4 cores spread over both CCXs of one
// CCD; rows per settingIndex; [mem][cores] with mem 0 = 1467, 1 = 1600.
var bandwidthGBs = [5][2][5]float64{
	{{22.2, 28.3, 28.9, 31.7, 32.1}, {22.2, 28.2, 30.0, 30.6, 31.0}}, // P3
	{{27.2, 33.7, 37.6, 39.6, 39.6}, {27.1, 33.7, 39.1, 40.1, 40.1}}, // P2
	{{26.8, 32.9, 36.8, 38.8, 38.9}, {26.8, 32.9, 38.5, 39.5, 39.5}}, // P1
	{{26.5, 32.4, 35.9, 38.1, 38.1}, {26.4, 32.4, 37.8, 38.6, 38.6}}, // P0
	{{26.5, 32.6, 36.0, 38.2, 38.2}, {26.5, 32.5, 37.9, 38.8, 38.8}}, // auto
}

// memColumns interpolates between the two calibrated MEMCLK columns.
func memInterp(memclk int) (int, int, float64) {
	switch {
	case memclk <= DRAM1467:
		return 0, 0, 0
	case memclk >= DRAM1600:
		return 1, 1, 0
	default:
		t := float64(memclk-DRAM1467) / float64(DRAM1600-DRAM1467)
		return 0, 1, t
	}
}

// LatencyNs returns the DRAM access latency for the configuration.
func (c Config) LatencyNs() float64 {
	row := settingIndex(c.Setting)
	lo, hi, t := memInterp(c.MemClkMHz)
	return latencyNs[row][lo] + t*(latencyNs[row][hi]-latencyNs[row][lo])
}

// StreamBandwidthGBs returns the achievable STREAM-Triad bandwidth for a
// given thread placement on one CCD: cores is the number of reading cores
// (≥1), twoCCX marks the 2+2 split across both CCXs.
func (c Config) StreamBandwidthGBs(cores int, twoCCX bool) float64 {
	if cores < 1 {
		return 0
	}
	col := cores - 1
	if cores >= 4 {
		col = 3
		if twoCCX {
			col = 4
		}
	}
	row := settingIndex(c.Setting)
	lo, hi, t := memInterp(c.MemClkMHz)
	a := bandwidthGBs[row][lo][col]
	b := bandwidthGBs[row][hi][col]
	return a + t*(b-a)
}

// Power model for the I/O die. The paper establishes the +81.2 W cost of
// waking the I/O die out of the package deep-sleep (Fig. 7) and that higher
// I/O-die P-states "reduce power consumption"; the per-state deltas are not
// published, so the model scales the fabric's share of that wake power with
// FCLK (documented substitution).
const (
	// WakeWatts is the Fig. 7 step when any thread leaves the deepest
	// C-state: I/O die, fabric and UMCs leave their low-power state.
	WakeWatts = 81.2
	// fabricShare is the fraction of WakeWatts attributed to the FCLK
	// domain (the rest is PHYs, UMCs and fixed I/O).
	fabricShare = 0.35
	// DRAMTrafficWattsPerGBs converts achieved DRAM+fabric traffic into
	// power (visible to the external meter, invisible to RAPL).
	DRAMTrafficWattsPerGBs = 0.35
)

// ActiveWatts returns the I/O-die power (per system) when awake, before
// traffic-dependent contributions.
func (c Config) ActiveWatts() float64 {
	ref := 1467.0
	f := float64(c.FCLKMHz())
	return WakeWatts * ((1 - fabricShare) + fabricShare*f/ref)
}

// TrafficWatts returns the power added by trafficGBs of DRAM traffic.
func TrafficWatts(trafficGBs float64) float64 {
	if trafficGBs < 0 {
		return 0
	}
	return DRAMTrafficWattsPerGBs * trafficGBs
}
