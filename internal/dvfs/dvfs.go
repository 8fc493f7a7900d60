// Package dvfs models the Zen 2 core P-state machinery as characterized by
// the paper (§V):
//
//   - Per-core P-state selection coordinated across both hardware threads:
//     the core's frequency follows the *highest* frequency requested by any
//     of its threads, whether or not that thread is idle or even offline
//     (§V-A — "the frequency of the core is defined by the offline thread").
//   - A fixed 1 ms update-interval grid at which transitions may be
//     initiated, followed by a ~390 µs (down) / ~360 µs (up) ramp; together
//     these produce the uniform 390–1390 µs delay distribution of Fig. 3.
//   - The fast-return anomaly between the two highest P-states (§V-B):
//     returning to the previous P-state before the voltage has settled
//     (≈5 ms) completes early — down to 160 µs for 2.5→2.2 GHz and
//     quasi-instantaneously (1 µs) for 2.2→2.5 GHz.
//   - Cross-core frequency coupling within a CCX (Table I): a core
//     configured below the CCX's fastest active core loses frequency, with
//     the empirically-measured penalties; and the shared L3 clock follows
//     the fastest active core in the CCX (Fig. 4).
//
// The controller exposes effective per-core frequencies and the L3 clock to
// the rest of the model. Which cores are active (have a thread in C0) it
// reads in place from the C-state model, the only owner of those counts;
// the controller owns each package's SMU cap, which the SMU reads and
// writes here.
package dvfs

import (
	"fmt"
	"math"

	"zen2ee/internal/cstate"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

// PState is one entry of the P-state table (index 0 = highest performance).
type PState struct {
	MHz   int
	Volts float64
}

// Config holds the timing and coupling parameters of the model.
type Config struct {
	// PStates is the table, highest-performance first.
	PStates []PState
	// SlotPeriod is the interval of the transition-initiation grid (1 ms on
	// the paper's system, vs. 500 µs on Intel Haswell/Skylake).
	SlotPeriod sim.Duration
	// RampUp/RampDown are the post-slot transition durations.
	RampUp, RampDown sim.Duration
	// FastReturnWindow is the voltage settle time after a transition during
	// which returning to the previous P-state is accelerated.
	FastReturnWindow sim.Duration
	// FastReturnMinRamp is the minimum down-ramp under fast return (160 µs).
	FastReturnMinRamp sim.Duration
	// FastReturnUpLatency is the quasi-instantaneous up-return delay (1 µs).
	FastReturnUpLatency sim.Duration
	// FastReturnTopStates restricts the anomaly to the N highest P-states
	// (2 on the paper's system: only 2.5 GHz ↔ 2.2 GHz shows it).
	FastReturnTopStates int
	// CouplingEnabled switches the CCX mixed-frequency penalty (Table I) on.
	CouplingEnabled bool
	// L3MinMHz is the architectural L3 floor ("L3 frequencies below 400 MHz
	// are not supported").
	L3MinMHz int
}

// DefaultConfig returns the paper's EPYC 7502 parameters.
func DefaultConfig() Config {
	return Config{
		PStates: []PState{
			{MHz: 2500, Volts: 1.10},
			{MHz: 2200, Volts: 1.00},
			{MHz: 1500, Volts: 0.90},
		},
		SlotPeriod:          sim.Millisecond,
		RampUp:              360 * sim.Microsecond,
		RampDown:            390 * sim.Microsecond,
		FastReturnWindow:    5 * sim.Millisecond,
		FastReturnMinRamp:   160 * sim.Microsecond,
		FastReturnUpLatency: 1 * sim.Microsecond,
		FastReturnTopStates: 2,
		CouplingEnabled:     true,
		L3MinMHz:            400,
	}
}

// maxPStates is the architectural number of P-state definition registers.
const maxPStates = 8

// Validate reports configuration errors. Every P-state must be one a
// P-state definition register can hold: its frequency a positive multiple
// of 25 MHz with a frequency ID (MHz / 25) of at most 255, and its voltage
// an SVI2 voltage ID (1.55 V − 6.25 mV × VID) in 0..255.
func (c Config) Validate() error {
	if len(c.PStates) == 0 || len(c.PStates) > maxPStates {
		return fmt.Errorf("dvfs: need 1..%d P-states", maxPStates)
	}
	for i, p := range c.PStates {
		if i > 0 && p.MHz >= c.PStates[i-1].MHz {
			return fmt.Errorf("dvfs: P-state table must be strictly descending")
		}
		if p.MHz <= 0 || p.MHz%25 != 0 || p.MHz/25 > 0xFF {
			return fmt.Errorf("dvfs: P%d: %d MHz is not a positive multiple of 25 MHz up to %d MHz", i, p.MHz, 25*0xFF)
		}
		if vid := math.Round((1.55 - p.Volts) / 0.00625); !(vid >= 0 && vid <= 0xFF) {
			return fmt.Errorf("dvfs: P%d: %.3f V is outside the VID range", i, p.Volts)
		}
	}
	if c.SlotPeriod <= 0 || c.RampUp <= 0 || c.RampDown <= 0 {
		return fmt.Errorf("dvfs: non-positive timing parameter")
	}
	return nil
}

// IndexOfMHz returns the P-state index for an exact frequency.
func (c Config) IndexOfMHz(mhz int) (int, error) {
	for i, p := range c.PStates {
		if p.MHz == mhz {
			return i, nil
		}
	}
	return 0, fmt.Errorf("dvfs: no P-state with %d MHz", mhz)
}

type coreState struct {
	threadReq [2]int // per-SMT-thread requested P-state index
	current   int    // applied P-state
	prev      int    // P-state before the last completed transition

	transActive bool
	transTarget int
	slotWaiting bool

	lastTransEnd sim.Time      // completion time of the last transition
	boostMHz     float64       // SMU boost grant above P0; 0 = no boost
	pkg          soc.PackageID // the package whose SMU cap applies

	// event is the core's transition event, bound on its first transition
	// so later ones allocate nothing. A core has at most one pending: the
	// slot that begins a waiting transition's ramp, or the ramp's end.
	event func()
}

// Controller is the per-system DVFS model.
type Controller struct {
	eng *sim.Engine
	top *soc.Topology
	cfg Config
	// cst holds each core's count of threads in C0; idle cores neither
	// anchor the L3 clock nor suffer coupling penalties.
	cst *cstate.Model

	cores []coreState
	// caps holds each package's SMU frequency cap; +Inf when uncapped.
	caps []float64

	// AfterChange, when set, runs after any effective-frequency-relevant
	// mutation.
	AfterChange func()
	// Dirty, when set, is invoked with each core whose effective frequency
	// may have changed, before AfterChange fires — the machine layer uses it
	// to scope its incremental refresh to the affected CCX.
	Dirty func(core soc.CoreID)
	// CapMoved, when set, is invoked with a package whose SMU cap changed,
	// before AfterChange fires. A cap moves every core of its package, and
	// nothing else, so it is one notification for the package rather than
	// one Dirty per core.
	CapMoved func(pkg soc.PackageID)
}

// New creates a controller and initialises all cores to the lowest P-state.
// cst is the C-state model of the same topology, whose per-core C0 counts
// the controller reads.
func New(eng *sim.Engine, top *soc.Topology, cfg Config, cst *cstate.Model) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{eng: eng, top: top, cfg: cfg, cst: cst}
	c.cores = make([]coreState, top.NumCores())
	c.caps = make([]float64, len(top.Packages))
	c.Reset()
	return c
}

// Reset puts every core back in the lowest P-state with no transition in
// flight and no boost grant, and uncaps every package, as New does,
// without running the hooks. Each core keeps its bound transition event.
// It must follow a reset of the engine (sim.Engine.Reset), which drops
// every pending transition.
func (c *Controller) Reset() {
	lowest := len(c.cfg.PStates) - 1
	for i := range c.cores {
		c.cores[i] = coreState{
			threadReq: [2]int{lowest, lowest},
			current:   lowest,
			prev:      lowest,
			pkg:       c.top.PackageOfCore(soc.CoreID(i)),
			event:     c.cores[i].event,
		}
	}
	for p := range c.caps {
		c.caps[p] = math.Inf(1)
	}
}

func (c *Controller) notifyAfter() {
	if c.AfterChange != nil {
		c.AfterChange()
	}
}

func (c *Controller) markDirty(core soc.CoreID) {
	if c.Dirty != nil {
		c.Dirty(core)
	}
}

// Request selects a P-state for one hardware thread (the cpufreq userspace
// governor path). The core-level target follows the highest-frequency
// request across both threads — idle or offline threads included.
func (c *Controller) Request(t soc.ThreadID, pstate int) {
	if pstate < 0 || pstate >= len(c.cfg.PStates) {
		panic(fmt.Sprintf("dvfs: P-state %d out of range", pstate))
	}
	th := c.top.Threads[t]
	cs := &c.cores[th.Core]
	if cs.threadReq[th.SMT] == pstate {
		return
	}
	cs.threadReq[th.SMT] = pstate
	c.reconcile(th.Core)
}

// RequestMHz is Request with a frequency instead of an index.
func (c *Controller) RequestMHz(t soc.ThreadID, mhz int) error {
	idx, err := c.cfg.IndexOfMHz(mhz)
	if err != nil {
		return err
	}
	c.Request(t, idx)
	return nil
}

// target returns the core's resolved P-state target: the minimum index
// (= maximum frequency) over both threads' requests.
func (cs *coreState) target() int {
	if cs.threadReq[0] < cs.threadReq[1] {
		return cs.threadReq[0]
	}
	return cs.threadReq[1]
}

// reconcile drives the core toward its target P-state.
func (c *Controller) reconcile(core soc.CoreID) {
	cs := &c.cores[core]
	tgt := cs.target()
	if cs.transActive || cs.slotWaiting {
		// Let the pending transition run to completion; completion
		// re-reconciles. This mirrors hardware, where a new request cannot
		// pre-empt an in-flight voltage/PLL ramp.
		return
	}
	if tgt == cs.current {
		return
	}
	now := c.eng.Now()
	if cs.event == nil {
		cs.event = func() { c.onEvent(core) }
	}

	// Fast-return up-switch: the previous transition lowered the frequency
	// but the voltage has not settled back down yet, so raising the
	// frequency back needs no voltage ramp and no transition slot.
	if c.fastReturnApplies(cs, tgt) && tgt < cs.current {
		cs.transActive = true
		cs.transTarget = tgt
		c.eng.Schedule(c.cfg.FastReturnUpLatency, cs.event)
		return
	}

	// Regular path: wait for the next slot on the 1 ms grid, then ramp.
	cs.slotWaiting = true
	slot := c.nextSlot(now)
	c.eng.ScheduleAt(slot, cs.event)
}

// nextSlot returns the next transition-initiation grid point strictly after
// now (global grid, phase 0 — the asynchrony with the caller's request is
// exactly what spreads Fig. 3 across a full slot period).
func (c *Controller) nextSlot(now sim.Time) sim.Time {
	p := int64(c.cfg.SlotPeriod)
	k := (int64(now) / p) + 1
	return sim.Time(k * p)
}

// onEvent runs core's pending transition event.
func (c *Controller) onEvent(core soc.CoreID) {
	if c.cores[core].slotWaiting {
		c.beginRamp(core)
	} else {
		c.completeTransition(core)
	}
}

func (c *Controller) beginRamp(core soc.CoreID) {
	cs := &c.cores[core]
	cs.slotWaiting = false
	tgt := cs.target()
	if tgt == cs.current {
		return // request withdrawn while waiting for the slot
	}
	ramp := c.cfg.RampUp
	if tgt > cs.current { // larger index = lower frequency = down-switch
		ramp = c.cfg.RampDown
		if c.fastReturnApplies(cs, tgt) {
			// Voltage is still partially at the previous (lower) level:
			// the down-ramp shortens with how little time has elapsed.
			elapsed := c.eng.Now().Sub(cs.lastTransEnd)
			frac := float64(elapsed) / float64(c.cfg.FastReturnWindow)
			if frac > 1 {
				frac = 1
			}
			scaled := sim.Duration(float64(c.cfg.FastReturnMinRamp) +
				frac*float64(ramp-c.cfg.FastReturnMinRamp))
			ramp = scaled
		}
	}
	cs.transActive = true
	cs.transTarget = tgt
	c.eng.Schedule(ramp, cs.event)
}

// fastReturnApplies reports whether switching the core to tgt qualifies for
// the §V-B anomaly: it must return to the immediately-previous P-state,
// within the voltage settle window, and both states must be among the
// FastReturnTopStates highest P-states.
func (c *Controller) fastReturnApplies(cs *coreState, tgt int) bool {
	if tgt != cs.prev {
		return false
	}
	if c.eng.Now().Sub(cs.lastTransEnd) >= c.cfg.FastReturnWindow {
		return false
	}
	return tgt < c.cfg.FastReturnTopStates && cs.current < c.cfg.FastReturnTopStates
}

func (c *Controller) completeTransition(core soc.CoreID) {
	cs := &c.cores[core]
	cs.prev = cs.current
	cs.current = cs.transTarget
	cs.transActive = false
	cs.lastTransEnd = c.eng.Now()
	c.markDirty(core)
	c.notifyAfter()
	// The target may have moved while the ramp was in flight.
	if cs.target() != cs.current {
		c.reconcile(core)
	}
}

// SetCapMHz applies the SMU frequency cap (EDC/PPT throttling) to every
// core of a package; +Inf uncaps. Caps act immediately (clock stretching /
// duty cycling, no P-state change). The SMU is the only caller and caps
// whole packages, so the controller holds one cap per package and reports
// a change through CapMoved, once. Rewriting the present cap notifies
// nothing.
func (c *Controller) SetCapMHz(pkg soc.PackageID, mhz float64) {
	if c.caps[pkg] == mhz {
		return
	}
	c.caps[pkg] = mhz
	if c.CapMoved != nil {
		c.CapMoved(pkg)
	}
	c.notifyAfter()
}

// CapMHz returns the package's SMU cap, +Inf when uncapped.
func (c *Controller) CapMHz(pkg soc.PackageID) float64 { return c.caps[pkg] }

// SetBoostsMHz applies one Core Performance Boost grant from the SMU to
// the cores of a list that have a thread in C0, and withdraws the grant
// from the idle ones, with a single notification: while a core sits
// in P-state 0, its clock may exceed the nominal frequency up to the grant
// (in 25 MHz steps, per AMD's Precision Boost description). The grant
// remains subject to EDC/PPT caps. The SMU is the only caller.
func (c *Controller) SetBoostsMHz(cores []soc.CoreID, mhz float64) {
	if mhz < 0 {
		mhz = 0
	}
	mhz = float64(int(mhz/25)) * 25 // quantize to Precision Boost steps
	moved := false
	for _, core := range cores {
		cs := &c.cores[core]
		grant := mhz
		if c.cst.ActiveThreads(core) == 0 {
			grant = 0
		}
		if cs.boostMHz == grant {
			continue
		}
		moved = true
		cs.boostMHz = grant
		c.markDirty(core)
	}
	if moved {
		c.notifyAfter()
	}
}

// AppliedPState returns the core's currently-applied P-state index.
func (c *Controller) AppliedPState(core soc.CoreID) int { return c.cores[core].current }

// TransitionInFlight reports whether the core is mid-transition (including
// waiting for a slot).
func (c *Controller) TransitionInFlight(core soc.CoreID) bool {
	cs := &c.cores[core]
	return cs.transActive || cs.slotWaiting
}

// UncappedMHz returns the core's applied P-state frequency (including any
// boost grant) before any SMU cap — the frequency throttling releases back
// to.
func (c *Controller) UncappedMHz(core soc.CoreID) float64 {
	cs := &c.cores[core]
	f := float64(c.cfg.PStates[cs.current].MHz)
	if cs.current == 0 && cs.boostMHz > f {
		f = cs.boostMHz
	}
	return f
}

// AppliedMHz is the core's P-state frequency (raised by any boost grant
// while in P-state 0) clamped by its package's SMU cap.
func (c *Controller) AppliedMHz(core soc.CoreID) float64 {
	return Capped(c.UncappedMHz(core), c.caps[c.cores[core].pkg])
}

// Capped is an uncapped frequency f clamped by an SMU cap. The clamp is
// monotone, so it maps the fastest of several uncapped clocks to the
// fastest of the capped ones, bit for bit.
func Capped(f, cap float64) float64 {
	if cap < f {
		return cap
	}
	return f
}

// CCXPeakMHz returns the highest applied frequency among the CCX's active
// cores, 0 when none is active: the L3 clock before its floor, and the
// fastest core every active core of the CCX is coupled to. It is the
// CCX's uncapped peak under its package's cap (see Capped).
func (c *Controller) CCXPeakMHz(ccx soc.CCXID) float64 {
	first := c.top.CoresOfCCX(ccx)[0]
	return Capped(c.CCXUncappedPeakMHz(ccx), c.caps[c.cores[first].pkg])
}

// CCXUncappedPeakMHz is CCXPeakMHz before the SMU cap: the highest
// uncapped frequency among the CCX's active cores, 0 when none is active.
func (c *Controller) CCXUncappedPeakMHz(ccx soc.CCXID) float64 {
	peak := 0.0
	for _, core := range c.top.CoresOfCCX(ccx) {
		if c.cst.ActiveThreads(core) > 0 {
			if f := c.UncappedMHz(core); f > peak {
				peak = f
			}
		}
	}
	return peak
}

// L3MHz returns the CCX's L3 clock: the highest applied frequency among
// active cores, floored at the architectural minimum.
func (c *Controller) L3MHz(ccx soc.CCXID) float64 {
	return math.Max(float64(c.cfg.L3MinMHz), c.CCXPeakMHz(ccx))
}

// EffectiveMHz returns the core's effective clock after the SMU cap and the
// CCX mixed-frequency coupling penalty.
func (c *Controller) EffectiveMHz(core soc.CoreID) float64 {
	f := c.AppliedMHz(core)
	if c.cst.ActiveThreads(core) == 0 {
		return f
	}
	return c.CoupledMHz(f, c.CCXPeakMHz(c.top.Cores[core].CCX))
}

// CoupledMHz is EffectiveMHz of an active core applied at f MHz in a CCX
// whose peak (CCXPeakMHz) is peak MHz.
func (c *Controller) CoupledMHz(f, peak float64) float64 {
	if !c.cfg.CouplingEnabled {
		return f
	}
	return f - couplingPenaltyMHz(f, peak)
}

// VoltageAt interpolates the rail voltage for a frequency from the P-state
// table (clamped at the ends). SMU caps stretch the clock without lowering
// the rail, so voltage follows the applied P-state frequency.
func (c *Controller) VoltageAt(mhz float64) float64 {
	ps := c.cfg.PStates
	if mhz >= float64(ps[0].MHz) {
		// Boost range: extrapolate along the top segment's slope, bounded
		// by the SVI2 rail ceiling.
		if mhz > float64(ps[0].MHz) && len(ps) > 1 {
			hi, lo := ps[0], ps[1]
			slope := (hi.Volts - lo.Volts) / float64(hi.MHz-lo.MHz)
			v := hi.Volts + slope*(mhz-float64(hi.MHz))
			if v > 1.40 {
				v = 1.40
			}
			return v
		}
		return ps[0].Volts
	}
	last := len(ps) - 1
	if mhz <= float64(ps[last].MHz) {
		return ps[last].Volts
	}
	for i := 0; i < last; i++ {
		hi, lo := ps[i], ps[i+1]
		if mhz <= float64(hi.MHz) && mhz >= float64(lo.MHz) {
			t := (mhz - float64(lo.MHz)) / (float64(hi.MHz) - float64(lo.MHz))
			return lo.Volts + t*(hi.Volts-lo.Volts)
		}
	}
	return ps[last].Volts
}

// couplingPenaltyMHz is the empirically-calibrated Table I penalty: the
// frequency loss of a core at fSet MHz sharing a CCX with an active core at
// fMax MHz. The paper discloses no mechanism, so the model interpolates
// bilinearly between the measured anchor points.
func couplingPenaltyMHz(fSet, fMax float64) float64 {
	if fMax <= fSet {
		return 0
	}
	// Anchor grid from Table I (set frequency × fastest other core).
	setPts := []float64{1500, 2200, 2500}
	maxPts := []float64{1500, 2200, 2500}
	penalty := [3][3]float64{
		{0, 34, 72}, // set 1500: measured 1.499/1.466/1.428 GHz
		{0, 1, 200}, // set 2200: measured 2.200/2.199/2.000 GHz
		{0, 0, 1},   // set 2500: measured 2.497/2.499/2.499 GHz
	}
	si, st := interpIndex(setPts, fSet)
	mi, mt := interpIndex(maxPts, fMax)
	p00 := penalty[si][mi]
	p01 := penalty[si][min(mi+1, 2)]
	p10 := penalty[min(si+1, 2)][mi]
	p11 := penalty[min(si+1, 2)][min(mi+1, 2)]
	lo := p00 + mt*(p01-p00)
	hi := p10 + mt*(p11-p10)
	return lo + st*(hi-lo)
}

// interpIndex locates x in pts, returning the lower index and the fractional
// position toward the next point (clamped to the table range).
func interpIndex(pts []float64, x float64) (int, float64) {
	if x <= pts[0] {
		return 0, 0
	}
	last := len(pts) - 1
	if x >= pts[last] {
		return last, 0
	}
	for i := 0; i < last; i++ {
		if x >= pts[i] && x <= pts[i+1] {
			return i, (x - pts[i]) / (pts[i+1] - pts[i])
		}
	}
	return last, 0
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
