// Package machine assembles the full simulated system: topology, DVFS
// controller, C-state model, SMU (EDC manager), I/O die, power model,
// thermal model, RAPL model and per-thread performance counters — the
// simulated counterpart of the paper's dual-socket EPYC 7502 test system.
// It models only the readings a product takes: each thread's cycle and
// instruction counters (ReadCounters) and the RAPL domains (rapl.Model);
// frequencies come from the model, not from APERF/MPERF registers.
//
// A machine has one initialisation path. New allocates what the topology
// sizes and wires the layers, then calls Reset, which puts every piece of
// model state in place: the engine's clock, queue and RNG, the SMU's and
// RAPL's noise streams and tickers, the C-states, DVFS, RAPL domains,
// counters and their classes, thermal and AC energy, the refresh and SMU
// counts and the simcheck shadows. Reset keeps only capacity (the event
// arena, the tables, the kernel table) and bound closures (hooks, tickers,
// transition events), so a reset machine is a freshly built one to every
// reading, and an experiment that measures many points on fresh systems
// resets one machine instead of building one per point.
//
// Every state mutation marks the machine stale, and one refresh per
// simulated instant re-derives the rates: power, traffic, temperature, the
// RAPL model's inputs and the per-thread counter rates. The refresh runs
// from a flush event scheduled at the mutation's instant, which the engine
// fires after every event already queued for that instant and before the
// clock moves. A read of an instantaneous derived value (SystemWatts,
// TrafficGBs, TempC, Preheat and the SMU's activity readings) flushes
// first, so it always sees the refreshed machine. Reads of integrated
// quantities (AC and RAPL energy, the performance counters) need no flush:
// the rates a pending refresh installs only start at the current instant.
//
// Coalescing same-instant refreshes is exact: a refresh folds elapsed time
// into every integrator, and a second refresh at the same instant would
// fold zero time. So integrators fold at exactly the instants they would
// if every mutation refreshed on the spot, and counters and energies are
// exact for piecewise-constant behaviour regardless of event granularity.
// The per-thread counters and the RAPL domains fold lazily over one log of
// those instants, replaying the folds only when a rate changes or someone
// reads them.
//
// A refresh does one derivation per class of dirty cores, not one per
// dirty core. A core's class key covers everything its derivation reads
// but its package's SMU cap: per thread, the effective C-state, the kernel
// (interned at StartKernel, so equal kernels compare as one small integer)
// and the operand weight; for a core with a thread in C0, also its
// uncapped clock (P-state and boost grant) and its CCX's fastest active
// uncapped clock. The cap then fixes the applied clock, min(uncapped,
// cap), and the CCX's peak, min(fastest uncapped, cap), which sets the
// coupling penalty. A thread's C-state is kept with its run and re-read
// only after a mutation of the thread. Floats are compared by their
// bits. A dirty core whose key equals that of the latest derived core,
// under an equal cap, copies that core's power-model input, RAPL estimate,
// effective clock, power-model watts and EDC current. The same float
// operations on bit-equal inputs give the same bits, so sharing moves no
// result; `-tags simcheck` builds re-derive every core after every
// refresh. The sums over cores (system power, the RAPL package feeds, the
// SMU's package current) add the cached per-core values in core order.
//
// The dirty cores of one package that share a derivation form a class. A
// member whose counters (or, separately, RAPL core domain) are
// bit-identical to those of the class's latest owning core follows that
// core (sim.Classes): it owns no counters or domain of its own, and the
// one update of its owner serves it. Classes never reach across packages,
// and a refresh regroups only the packages holding a dirty core; a clean
// package's classes, domains and RAPL package sum stay as they are. A
// member copies its owner's state (splits out) when its counters or core
// domain are read, before its owner is read (the owner hands its state to
// its first follower), and when a refresh updates it unlike its owner,
// taking the owner's state from before the update; fold-log catch-ups skip
// followers. Copy-on-write moves no result either: `-tags simcheck` builds
// check every counter and domain read against an eagerly folded shadow.
//
// The SMU's EDC manager moves a package's cap about every millisecond
// under a dense load, and a cap moves no class key. So when a refresh's
// only change in a package is its cap, and the package's last keyed
// refresh keyed all its cores, the package keeps that refresh's classes:
// each class of active cores derives once under the new cap and is copied
// to its members, and only the owners' counters and core domains are
// updated. No core is keyed, and the counters and core domains regroup
// only if a read split a member out of its class since the package last
// regrouped. Each refresh also recomputes the SMU monitor (smu.Monitor) of
// every package it touched.
package machine

import (
	"fmt"
	"math"

	"zen2ee/internal/cstate"
	"zen2ee/internal/dvfs"
	"zen2ee/internal/iodie"
	"zen2ee/internal/power"
	"zen2ee/internal/rapl"
	"zen2ee/internal/sim"
	"zen2ee/internal/smu"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// Config aggregates all subsystem configurations.
type Config struct {
	SoC    soc.Config
	DVFS   dvfs.Config
	CState cstate.Config
	SMU    smu.Config
	IOD    iodie.Config
	Power  power.Config
	RAPL   rapl.Config
	Seed   uint64
}

// DefaultConfig returns the paper's test system.
func DefaultConfig() Config {
	sc := soc.EPYC7502x2()
	sm := smu.DefaultConfig()
	sm.EDCAmps = sc.EDCAmps
	sm.TDPWatts = sc.TDPWatts
	return Config{
		SoC:    sc,
		DVFS:   dvfs.DefaultConfig(),
		CState: cstate.DefaultConfig(),
		SMU:    sm,
		IOD:    iodie.DefaultConfig(),
		Power:  power.DefaultConfig(),
		RAPL:   rapl.DefaultConfig(),
		Seed:   1,
	}
}

// EPYC7742Config returns a dual-socket 64-core Rome configuration — the
// paper's future-work target ("we will analyze the frequency throttling on
// processors with more cores. We expect a more severe impact, since the
// ratio of compute to I/O resources is higher"). P-state table and EDC
// limit follow the 7742's 2.25 GHz nominal / 225 W TDP envelope; the power
// floor and I/O-die model are carried over from the 7502 system.
func EPYC7742Config() Config {
	cfg := DefaultConfig()
	cfg.SoC = soc.EPYC7742x2()
	cfg.DVFS.PStates = []dvfs.PState{
		{MHz: 2250, Volts: 1.05},
		{MHz: 1800, Volts: 0.95},
		{MHz: 1500, Volts: 0.90},
	}
	cfg.SMU.EDCAmps = cfg.SoC.EDCAmps
	cfg.SMU.TDPWatts = cfg.SoC.TDPWatts
	return cfg
}

// threadRun tracks what a hardware thread is executing. With its C-state
// as the refresh last read it, it is the thread's half of its core's class
// key (coreKey).
type threadRun struct {
	kernel int32   // 1 + index into Machine.kernels; 0 when idle
	seen   int32   // 1 + effective C-state as last keyed; 0 after a mutation
	weight float64 // operand Hamming weight
}

// same reports whether two threads' key halves are equal, comparing the
// weights by their bits.
func (r *threadRun) same(o *threadRun) bool {
	return r.kernel == o.kernel && r.seen == o.seen &&
		math.Float64bits(r.weight) == math.Float64bits(o.weight)
}

// Machine is the simulated system.
type Machine struct {
	Eng     *sim.Engine
	Top     *soc.Topology
	DVFS    *dvfs.Controller
	CStates *cstate.Model
	SMU     *smu.Manager
	Power   *power.Model
	Thermal *power.Thermal
	RAPL    *rapl.Model

	cfg Config
	iod iodie.Config

	runs []threadRun
	// kernels holds one copy of each distinct kernel started, so threads
	// running equal kernels share an index and a pointer.
	kernels []*workload.Kernel

	// acEnergy integrates the true AC power; its power is the system
	// power of the last refresh.
	acEnergy sim.EnergyIntegrator

	// log holds the refresh instants the per-thread counters and the RAPL
	// domains fold at.
	log *sim.FoldLog
	// counters holds each core's thread counters; classes records which
	// cores follow another core's counters instead of their own.
	counters []coreCounters
	classes  sim.Classes
	shadow   counterShadow // eager counters, -tags simcheck only

	trafficGBs float64
	inRefresh  bool
	// stale marks a mutation since the last refresh; flushQueued marks a
	// flush event pending at the current instant.
	stale       bool
	flushQueued bool
	flushEvent  func()
	// stats counts refreshes and the cores they derived or shared.
	stats RefreshStats

	// Incremental-refresh state. Per-core derived values (power-model
	// inputs, RAPL estimates, power-model watts, EDC currents) and
	// per-thread counter rates are cached across refreshes; a refresh
	// recomputes them only for cores marked dirty since the last one. Any
	// mutation that can change a core's derived state marks its whole CCX
	// dirty (effective frequencies couple within a CCX), so cached values
	// are always bit-identical to a full recompute — which `-tags simcheck`
	// builds assert on every refresh.
	//
	// cls[c] is -1 for a clean core and 0 for a core marked dirty. The
	// refresh sets each dirty core's class, the first core of its package
	// with the same derivation in that refresh, regroups the counters and
	// RAPL domains by it and resets it to -1. Every dirty core lies in
	// dirtyLo..dirtyHi-1. part[c] is c's class in the last refresh that
	// keyed every core of c's package; a cap step reuses it while
	// pkgs[p].whole holds.
	cls              []int16
	part             []int16
	pkgs             []pkgState
	dirtyLo, dirtyHi int
	inputsBuf        []power.CoreInput
	floats           []float64 // the five float caches below, in one block
	effBuf           []float64 // effective MHz of active cores (0 when idle)
	raplWBuf         []float64 // RAPL estimate before model noise
	wattsBuf         []float64 // power-model watts (power.Model.CoreWatts)
	ampsBuf          []float64 // EDC current, 0 when idle
	ccdGBs           []float64 // achieved DRAM traffic per CCD
	coresPerPackage  int
}

// pkgState is a package's refresh state.
type pkgState struct {
	// capMoved marks a change of the package's SMU cap since the last
	// refresh, coreDirty a core marked dirty. stepped marks, during a
	// refresh, a package re-derived for its cap alone. whole marks part as
	// the package's classes: its last keyed refresh keyed every core.
	capMoved, coreDirty, stepped, whole bool
	// raplW is the sum of the cores' RAPL estimates, in core order.
	raplW float64
	// splits is the machine's split count (splits) after the package's
	// last regroup. While it holds, no member has left its class since.
	splits uint64
	// mon is the SMU monitor as of the last refresh that touched the
	// package.
	mon smu.Monitor
}

// RefreshStats counts the machine's refresh work since New or Reset. Every
// core a refresh re-derives is either derived or shared: the dirty cores,
// and the active cores of a package whose cap alone moved.
type RefreshStats struct {
	// Refreshes is the number of refreshes run.
	Refreshes uint64
	// Derived counts dirty cores derived from scratch.
	Derived uint64
	// Shared counts dirty cores that copied the derivation of the latest
	// derived core, whose class key was equal.
	Shared uint64
	// Splits counts copy-on-write copies of a class owner's counters or
	// RAPL core domain: a member that was read or left its class, or an
	// owner read while followed.
	Splits uint64
	// Monitors counts package SMU monitors recomputed.
	Monitors uint64
}

// threadCounters are a hardware thread's performance counters, indexed by
// counterKind. Their rates are the thread's cached derived state: a refresh
// sets them only for threads of dirty cores.
type threadCounters [numCounters]sim.LazyIntegrator

// coreCounters are a core's thread counters, indexed by soc.Thread.SMT.
type coreCounters [2]threadCounters

// sameCounters reports whether two cores' counters are bit-identical. No
// counter holds a NaN or a negative zero (rates and elapsed times are
// non-negative, so an integral that starts at +0 stays +0 or grows), so ==
// on the floats is bit equality here.
func sameCounters(a, b *coreCounters) bool { return *a == *b }

// counterKind names one of a thread's counters.
type counterKind int

const (
	cycles counterKind = iota // cycles/s while in C0
	instrs
	numCounters
)

// foldLogCap bounds the fold log; a full log catches every counter and
// RAPL domain up and starts over.
const foldLogCap = 256

// New builds and wires the system: it allocates what the topology sizes,
// then Reset puts every piece of model state in place. All threads start
// idle in the deepest C-state at the lowest P-state.
func New(cfg Config) *Machine {
	if err := cfg.IOD.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine(cfg.Seed)
	top := soc.New(cfg.SoC)

	n := top.NumCores()
	// The per-core and per-CCD float caches share one allocation, and so
	// do the per-core class tables.
	f := make([]float64, 4*n+len(top.CCDs))
	cls := make([]int16, 2*n)
	m := &Machine{
		Eng:  eng,
		Top:  top,
		cfg:  cfg,
		runs: make([]threadRun, top.NumThreads()),

		cls:             cls[:n:n],
		part:            cls[n:],
		pkgs:            make([]pkgState, len(top.Packages)),
		inputsBuf:       make([]power.CoreInput, n),
		floats:          f,
		effBuf:          f[:n:n],
		raplWBuf:        f[n : 2*n : 2*n],
		wattsBuf:        f[2*n : 3*n : 3*n],
		ampsBuf:         f[3*n : 4*n : 4*n],
		ccdGBs:          f[4*n:],
		counters:        make([]coreCounters, n),
		classes:         sim.NewClasses(n),
		coresPerPackage: cfg.SoC.CoresPerPackage(),
	}
	m.flushEvent = m.onFlushEvent
	m.log = sim.NewFoldLog(eng.Now(), foldLogCap, m.catchUp)
	m.CStates = cstate.New(eng, top, cfg.CState)
	m.DVFS = dvfs.New(eng, top, cfg.DVFS, m.CStates)
	m.Power = power.NewModel(cfg.Power)
	m.Thermal = power.NewThermal(cfg.Power)
	m.RAPL = rapl.New(eng, top, cfg.RAPL, m.log)
	m.SMU = smu.New(eng, top, cfg.SMU, m.DVFS, (*activitySource)(m))

	m.CStates.Dirty = m.markThreadDirty
	m.CStates.AfterChange = m.changed
	m.DVFS.Dirty = m.markCoreDirty
	m.DVFS.CapMoved = m.markCapMoved
	m.DVFS.AfterChange = m.changed
	m.RAPL.BeforeNoise = m.flush

	m.Reset()
	return m
}

// Reset puts the machine back to exactly what New(m.Config()) returns, in
// place: the same readings, event order, random streams and counts follow
// from any later use. It rewinds the engine (sim.Engine.Reset) and resets
// every layer New wires, in New's order: the fold log, the C-states (every
// thread idle in C2, in one pass), the DVFS controller, the thermal model,
// RAPL (whose noise stream it forks first and whose ticker it arms first),
// the AC energy, the counters and their classes, and the SMU; then it
// refreshes once, as New does. It keeps what New allocated: the engine's
// event arena, the tables the topology sizes, the kernel table's capacity
// and every bound closure (hooks, tickers, transition events). Anything
// else attached to the old engine, such as an AC meter
// (measure.NewPowerAnalyzer), is stopped for good: its ticker is stale.
// Reset must not run from inside an engine event.
func (m *Machine) Reset() {
	m.Eng.Reset(m.cfg.Seed)
	now := m.Eng.Now()
	m.iod = m.cfg.IOD
	clear(m.runs)
	m.kernels = m.kernels[:0]
	m.log.Reset(now)
	m.CStates.Reset(cstate.C2)
	m.DVFS.Reset()
	m.Thermal.Reset()
	m.RAPL.Reset()

	m.acEnergy = sim.EnergyIntegrator{}
	start := sim.NewLazyIntegrator(m.log, now)
	for c := range m.counters {
		m.counters[c] = coreCounters{{start, start}, {start, start}}
	}
	m.classes.Reset()
	m.shadow.init(m)

	m.SMU.Reset()

	m.trafficGBs, m.inRefresh, m.stale, m.flushQueued = 0, false, false, false
	m.stats = RefreshStats{}
	clear(m.part)
	clear(m.pkgs)
	clear(m.inputsBuf)
	clear(m.floats)
	// Every core starts dirty, and the idle system refreshes once.
	m.markAllDirty()
	m.changed()
	m.flush()
}

// changed records a mutation: it marks the machine stale, wakes the SMU
// and, unless one is already pending, schedules a flush event at the
// current instant. Every mutation calls it, so each instant with a
// mutation gets exactly one refresh, and a parked SMU ticker wakes before
// any reading it parked on can change.
func (m *Machine) changed() {
	m.stale = true
	m.SMU.Wake()
	if !m.flushQueued {
		m.flushQueued = true
		m.Eng.ScheduleAt(m.Eng.Now(), m.flushEvent)
	}
}

func (m *Machine) onFlushEvent() {
	m.flushQueued = false
	m.flush()
}

// flush runs the pending refresh, if any. Reads of instantaneous derived
// values call it first.
func (m *Machine) flush() {
	if m.stale {
		m.refresh()
	}
	m.checkFlushed()
}

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// SetIODSetting selects the I/O-die P-state (BIOS option). It rejects a
// setting outside Auto..P3.
func (m *Machine) SetIODSetting(s iodie.Setting) error {
	c := m.iod
	c.Setting = s
	return m.setIOD(c)
}

// SetDRAMClock selects the DRAM frequency in MHz (BIOS option). It rejects
// a non-positive clock.
func (m *Machine) SetDRAMClock(mhz int) error {
	c := m.iod
	c.MemClkMHz = mhz
	return m.setIOD(c)
}

// setIOD applies an I/O-die configuration change if it validates.
func (m *Machine) setIOD(c iodie.Config) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	m.iod = c
	// The achieved traffic of every CCD depends on the I/O die.
	m.markAllDirty()
	m.changed()
	return nil
}

// --- Workload control ---

// StartKernel puts a thread to work on a kernel. If the thread is idle it
// is woken first; the returned duration is the wake-up latency (zero when
// already active). weight is the operand Hamming weight in [0, 1] for
// data-dependent kernels. An invalid kernel (workload.Kernel.Validate) or
// weight is an error, and the thread is left as it was.
func (m *Machine) StartKernel(t soc.ThreadID, k workload.Kernel, weight float64) (sim.Duration, error) {
	if err := m.checkThread(t); err != nil {
		return 0, err
	}
	if !m.CStates.Online(t) {
		return 0, fmt.Errorf("machine: thread %d is offline", t)
	}
	if !ValidWeight(weight) {
		return 0, fmt.Errorf("machine: operand Hamming weight %v outside [0, 1]", weight)
	}
	id, err := m.intern(k)
	if err != nil {
		return 0, fmt.Errorf("machine: %w", err)
	}
	lat := sim.Duration(0)
	if m.CStates.EffectiveState(t) != cstate.C0 {
		core := m.Top.Threads[t].Core
		lat = m.CStates.Wake(t, m.DVFS.EffectiveMHz(core), false)
	}
	m.runs[t] = threadRun{kernel: id, weight: weight}
	m.markThreadDirty(t)
	m.changed()
	return lat, nil
}

// intern returns 1 + the index of kernel k in m.kernels, adding a copy on
// first use if k validates. Kernels are few, so a linear search serves.
func (m *Machine) intern(k workload.Kernel) (int32, error) {
	for i, p := range m.kernels {
		if *p == k {
			return int32(i) + 1, nil
		}
	}
	if err := k.Validate(); err != nil {
		return 0, err
	}
	p := new(workload.Kernel)
	*p = k
	m.kernels = append(m.kernels, p)
	return int32(len(m.kernels)), nil
}

// kernelOf returns the kernel thread t runs, nil when idle.
func (m *Machine) kernelOf(t soc.ThreadID) *workload.Kernel {
	if id := m.runs[t].kernel; id > 0 {
		return m.kernels[id-1]
	}
	return nil
}

// ValidWeight reports whether w is an operand Hamming weight: a number in
// [0, 1].
func ValidWeight(w float64) bool { return w >= 0 && w <= 1 }

// checkThread rejects a thread outside the topology.
func (m *Machine) checkThread(t soc.ThreadID) error {
	if t < 0 || int(t) >= m.Top.NumThreads() {
		return fmt.Errorf("machine: cpu%d out of range [0, %d)", t, m.Top.NumThreads())
	}
	return nil
}

// SetHammingWeight changes the operand weight of a running kernel. A weight
// outside [0, 1] is a programming error and panics.
func (m *Machine) SetHammingWeight(t soc.ThreadID, weight float64) {
	if !ValidWeight(weight) {
		panic(fmt.Sprintf("machine: operand Hamming weight %v outside [0, 1]", weight))
	}
	if m.runs[t].kernel != 0 {
		m.runs[t].weight = weight
		m.markThreadDirty(t)
		m.changed()
	}
}

// StopKernel idles a thread; the cpuidle governor picks the deepest enabled
// C-state.
func (m *Machine) StopKernel(t soc.ThreadID) {
	m.runs[t] = threadRun{}
	m.markThreadDirty(t)
	m.CStates.EnterIdle(t, m.CStates.DeepestEnabled(t))
	m.changed()
}

// Running reports whether the thread is executing a kernel.
func (m *Machine) Running(t soc.ThreadID) bool { return m.runs[t].kernel != 0 }

// SetThreadFrequencyMHz is the cpufreq userspace-governor path: pins one
// hardware thread's requested frequency.
func (m *Machine) SetThreadFrequencyMHz(t soc.ThreadID, mhz int) error {
	if err := m.checkThread(t); err != nil {
		return err
	}
	return m.DVFS.RequestMHz(t, mhz)
}

// SetAllFrequenciesMHz pins every thread's request.
func (m *Machine) SetAllFrequenciesMHz(mhz int) error {
	for t := 0; t < m.Top.NumThreads(); t++ {
		if err := m.DVFS.RequestMHz(soc.ThreadID(t), mhz); err != nil {
			return err
		}
	}
	return nil
}

// SetOnline flips a thread's sysfs online state. Offlining stops any
// running kernel; under the §VI-B anomaly the thread is then elevated to C1.
// A rejected call (cpu0 cannot be taken offline) changes nothing.
func (m *Machine) SetOnline(t soc.ThreadID, online bool) error {
	if err := m.checkThread(t); err != nil {
		return err
	}
	if err := m.CStates.SetOnline(t, online); err != nil {
		return err
	}
	if !online {
		m.runs[t] = threadRun{}
		m.markThreadDirty(t)
		m.CStates.EnterIdle(t, m.CStates.DeepestEnabled(t))
	}
	m.changed()
	return nil
}

// SetCStateEnabled toggles a sysfs C-state disable file and re-applies the
// idle governor's choice on idle threads (disabling C2 demotes C2 residents
// to C1; re-enabling promotes them back — the Fig. 7 sweep protocol).
func (m *Machine) SetCStateEnabled(t soc.ThreadID, s cstate.State, enabled bool) error {
	if err := m.checkThread(t); err != nil {
		return err
	}
	if err := m.CStates.SetEnabled(t, s, enabled); err != nil {
		return err
	}
	if m.runs[t].kernel == 0 && m.CStates.Online(t) {
		m.CStates.EnterIdle(t, m.CStates.DeepestEnabled(t))
	}
	m.changed()
	return nil
}

// WakeLatency reports the latency to wake thread t from its current state,
// with the waker on the same (remote=false) or the other package.
func (m *Machine) WakeLatency(t soc.ThreadID, remote bool) sim.Duration {
	core := m.Top.Threads[t].Core
	return m.CStates.WakeLatency(m.CStates.EffectiveState(t), m.DVFS.EffectiveMHz(core), remote)
}

// --- Observables ---

// SystemWatts returns the present true AC power.
func (m *Machine) SystemWatts() float64 {
	m.flush()
	return m.acEnergy.Power()
}

// EnergyJoules implements measure.EnergySource: total AC energy.
func (m *Machine) EnergyJoules(now sim.Time) float64 { return m.acEnergy.Energy(now) }

// TrafficGBs returns the currently-achieved DRAM traffic.
func (m *Machine) TrafficGBs() float64 {
	m.flush()
	return m.trafficGBs
}

// EffectiveMHz returns a core's effective frequency. An active core with
// no refresh pending is answered from the value the last refresh derived;
// otherwise the DVFS controller derives it. It never flushes, so reading it
// does not move a refresh.
func (m *Machine) EffectiveMHz(core soc.CoreID) float64 {
	if !m.stale && m.cls[core] < 0 && m.inputsBuf[core].ActiveThreads > 0 {
		m.checkEffective(core)
		return m.effBuf[core]
	}
	return m.DVFS.EffectiveMHz(core)
}

// TempC returns the package temperature.
func (m *Machine) TempC() float64 {
	m.flush()
	return m.Thermal.TempC()
}

// Preheat brings the thermal model to steady state for the present power —
// the paper's 15-minute warm-up before power-sensitive measurements.
func (m *Machine) Preheat() {
	m.flush()
	m.Thermal.Preheat(m.acEnergy.Power())
}

// Counters is a per-thread performance-counter snapshot.
type Counters struct {
	Cycles       float64
	Instructions float64
}

// ReadCounters samples a thread's counters.
func (m *Machine) ReadCounters(t soc.ThreadID) Counters {
	return Counters{
		Cycles:       m.readCounter(int(t), cycles),
		Instructions: m.readCounter(int(t), instrs),
	}
}

// readCounter folds one counter of thread t up to now and returns it. A
// read folds only the counter read, exactly as an eager integrator would;
// the thread's core first takes its counters out of its class.
func (m *Machine) readCounter(t int, k counterKind) float64 {
	now := m.Eng.Now()
	th := &m.Top.Threads[t]
	sim.Own(&m.classes, m.counters, int(th.Core))
	v := m.counters[th.Core][th.SMT][k].Energy(m.log, now)
	m.shadow.checkRead(m, t, k, now, v)
	return v
}

// countersOf returns thread t's counters: its core's class owner's,
// as they are, without splitting the core out of its class.
func (m *Machine) countersOf(t soc.ThreadID) *threadCounters {
	th := &m.Top.Threads[t]
	return &m.counters[m.classes.Owner(int(th.Core))][th.SMT]
}

// catchUp folds every counter and RAPL domain through the whole fold log.
// A core following another's counters has none of its own to fold.
func (m *Machine) catchUp() {
	for c := range m.counters {
		if m.classes.Follows(c) {
			continue
		}
		for i := range m.counters[c] {
			for k := range m.counters[c][i] {
				m.counters[c][i][k].CatchUp(m.log)
			}
		}
	}
	m.RAPL.CatchUp()
}

// L3LatencyNs returns the L3 hit latency observed by a core: the Fig. 4
// model 20.0/f_core + 16.5/f_L3 + 0.61 ns (frequencies in GHz, fitted to
// all nine cells of Fig. 4 within 0.25 ns using the *effective* core
// frequencies of Table I), where the L3 clock follows the fastest active
// core in the CCX.
func (m *Machine) L3LatencyNs(core soc.CoreID) float64 {
	fCore := m.DVFS.EffectiveMHz(core) / 1000
	fL3 := m.DVFS.L3MHz(m.Top.Cores[core].CCX) / 1000
	if fCore <= 0 || fL3 <= 0 {
		return math.Inf(1)
	}
	return 20.0/fCore + 16.5/fL3 + 0.61
}

// DRAMLatencyNs returns the main-memory latency for the current I/O-die and
// DRAM configuration (Fig. 5b).
func (m *Machine) DRAMLatencyNs() float64 { return m.iod.LatencyNs() }

// --- Internal derivation ---

// markCoreDirty flags a core's whole CCX for recomputation on the next
// refresh: effective frequencies couple across the CCX (shared L3 clock,
// Table I penalties), so any per-core change can move its CCX siblings. A
// marked core's CCX is marked whole already.
func (m *Machine) markCoreDirty(core soc.CoreID) {
	if m.cls[core] >= 0 {
		return
	}
	cores := m.Top.CCXs[m.Top.Cores[core].CCX].Cores
	for _, c := range cores {
		m.cls[c] = 0
	}
	m.dirtyLo = min(m.dirtyLo, int(cores[0]))
	m.dirtyHi = max(m.dirtyHi, int(cores[len(cores)-1])+1)
	m.pkgs[m.Top.PackageOfCore(core)].coreDirty = true
}

// markThreadDirty marks thread t's C-state for re-reading and its CCX
// dirty.
func (m *Machine) markThreadDirty(t soc.ThreadID) {
	m.runs[t].seen = 0
	m.markCoreDirty(m.Top.Threads[t].Core)
}

func (m *Machine) markAllDirty() {
	clear(m.cls)
	m.dirtyLo, m.dirtyHi = 0, len(m.cls)
	for t := range m.runs {
		m.runs[t].seen = 0
	}
	for p := range m.pkgs {
		m.pkgs[p].coreDirty = true
	}
}

// markCapMoved records a change of package pkg's SMU cap. It marks no
// core: the refresh decides whether the package can keep its classes.
func (m *Machine) markCapMoved(pkg soc.PackageID) {
	m.pkgs[pkg].capMoved = true
}

// markPackageDirty marks every core of package p dirty.
func (m *Machine) markPackageDirty(p int) {
	lo, hi := p*m.coresPerPackage, (p+1)*m.coresPerPackage
	clear(m.cls[lo:hi])
	m.dirtyLo, m.dirtyHi = min(m.dirtyLo, lo), max(m.dirtyHi, hi)
	m.pkgs[p].coreDirty = true
}

// deriveCore computes a core's power-model input into ci and returns its
// RAPL-model power estimate (before model noise), effective frequency and
// EDC current (both 0 when no thread is active) and its power-model watts —
// the expensive per-core step of refresh. activeMHz is the core's effective
// frequency should a thread be active.
func (m *Machine) deriveCore(core soc.CoreID, activeMHz float64, raplCfg rapl.Config, ci *power.CoreInput) (raplW, effMHz, watts, amps float64) {
	*ci = power.CoreInput{
		State:         m.CStates.CoreState(core),
		ActiveThreads: m.CStates.ActiveThreads(core),
	}
	if ci.ActiveThreads > 0 {
		effMHz = activeMHz
		ci.GHz = effMHz / 1000
		ci.Volts = m.DVFS.VoltageAt(effMHz)
		ci.Kernel, ci.HammingWeight = m.coreKernel(core)
		amps = ci.Kernel.EDCWeight(ci.ActiveThreads) * ci.GHz * ci.Volts
	}
	// RAPL: per-core activity-event estimate. The toggle (operand) component
	// is deliberately absent — that is the paper's central RAPL finding.
	switch {
	case ci.ActiveThreads > 0:
		smt := 1.0
		if ci.ActiveThreads > 1 {
			smt += ci.Kernel.SMTFactor
		}
		dyn := ci.Kernel.DynWatts * ci.GHz * ci.Volts * ci.Volts * smt
		raplW = ci.Kernel.RAPLWeight*dyn + raplCfg.CoreC0Static
	case ci.State == cstate.C1:
		raplW = raplCfg.CoreC1Static
	default:
		raplW = raplCfg.CoreC2Static
	}
	return raplW, effMHz, m.Power.CoreWatts(ci), amps
}

// deriveThread computes a thread's performance-counter rates (cycles and
// instructions per second) from its core's derived input and effective
// frequency.
func (m *Machine) deriveThread(id soc.ThreadID, ci *power.CoreInput, effMHz float64) (cyc, ins float64) {
	if m.CStates.EffectiveState(id) == cstate.C0 {
		cyc = effMHz * 1e6
		if k := m.kernelOf(id); k != nil {
			n := ci.ActiveThreads
			ins = k.IPC(n) / float64(n) * effMHz * 1e6
		}
	}
	return cyc, ins
}

// coreKey is a core's class key: everything deriveCore and deriveThread
// read of the core but its package's SMU cap, with floats compared by
// their bits. Dirty cores with equal keys under equal caps derive
// bit-identical inputs, RAPL estimates, effective clocks and thread rates.
type coreKey struct {
	// threads is the thread half: each thread's run and C-state, which
	// only thread mutations move.
	threads [2]threadRun
	// uncMHz and peakMHz are the core's uncapped clock and its CCX's
	// fastest active uncapped clock (dvfs.Controller.CCXUncappedPeakMHz),
	// which with the cap fix its effective clock. Both are zero for an
	// idle core, which reads neither.
	uncMHz, peakMHz float64
}

// eq is key == o, written out field by field with floats compared by their
// bits: the compiler would compare the whole struct through a runtime
// call, which costs more than the comparison itself.
func (k *coreKey) eq(o *coreKey) bool {
	return math.Float64bits(k.uncMHz) == math.Float64bits(o.uncMHz) &&
		math.Float64bits(k.peakMHz) == math.Float64bits(o.peakMHz) &&
		k.threads[0].same(&o.threads[0]) && k.threads[1].same(&o.threads[1])
}

// coreKey sets key to core's class key; peakMHz is its CCX's fastest
// active uncapped clock. It re-reads a thread's C-state only after a
// mutation of the thread.
func (m *Machine) coreKey(key *coreKey, core soc.CoreID, peakMHz float64) {
	active := false
	for i, t := range m.Top.Cores[core].Threads {
		r := &m.runs[t]
		if r.seen == 0 {
			r.seen = 1 + int32(m.CStates.EffectiveState(t))
		}
		key.threads[i] = *r
		active = active || r.seen == 1+int32(cstate.C0)
	}
	key.uncMHz, key.peakMHz = 0, 0
	if active {
		key.uncMHz, key.peakMHz = m.DVFS.UncappedMHz(core), peakMHz
	}
}

// clockOf is the effective clock of an active core whose uncapped clock is
// uncMHz, in a CCX whose fastest active uncapped clock is peakMHz, under
// SMU cap capMHz: dvfs.Controller.EffectiveMHz, from the uncapped clocks.
func (m *Machine) clockOf(uncMHz, peakMHz, capMHz float64) float64 {
	return m.DVFS.CoupledMHz(dvfs.Capped(uncMHz, capMHz), dvfs.Capped(peakMHz, capMHz))
}

// deriveDirty derives core c from scratch into the per-core caches;
// activeMHz is as for deriveCore.
func (m *Machine) deriveDirty(c int, activeMHz float64, raplCfg rapl.Config) {
	m.raplWBuf[c], m.effBuf[c], m.wattsBuf[c], m.ampsBuf[c] = m.deriveCore(soc.CoreID(c), activeMHz, raplCfg, &m.inputsBuf[c])
	m.stats.Derived++
}

// shareDirty gives core c the derivation of core lead, the latest derived
// core, whose class key is equal.
func (m *Machine) shareDirty(c, lead int) {
	m.inputsBuf[c] = m.inputsBuf[lead]
	m.raplWBuf[c], m.effBuf[c] = m.raplWBuf[lead], m.effBuf[lead]
	m.wattsBuf[c], m.ampsBuf[c] = m.wattsBuf[lead], m.ampsBuf[lead]
	m.stats.Shared++
}

// shareClock gives core c what a cap step moved of the derivation of core
// first, whose class it is in: the clock and voltage of its input, its
// RAPL estimate, effective clock, power-model watts and EDC current. The
// rest of its input, which the class's key fixes, is already equal.
func (m *Machine) shareClock(c, first int) {
	ci, f := &m.inputsBuf[c], &m.inputsBuf[first]
	ci.GHz, ci.Volts = f.GHz, f.Volts
	m.raplWBuf[c], m.effBuf[c] = m.raplWBuf[first], m.effBuf[first]
	m.wattsBuf[c], m.ampsBuf[c] = m.wattsBuf[first], m.ampsBuf[first]
	m.stats.Shared++
}

// setRates sets the counter rates of core c's threads from its derived
// input and effective clock.
func (m *Machine) setRates(c int) {
	for i, t := range m.Top.Cores[c].Threads {
		cyc, ins := m.deriveThread(t, &m.inputsBuf[c], m.effBuf[c])
		tc := &m.counters[c][i]
		tc[cycles].SetRate(m.log, cyc)
		tc[instrs].SetRate(m.log, ins)
	}
}

// RefreshStats returns the refresh counts since New or Reset.
func (m *Machine) RefreshStats() RefreshStats {
	s := m.stats
	s.Splits = m.splits()
	return s
}

// refresh recomputes all rates after the mutations of one instant. It runs
// at most once per instant: mutations only mark the machine stale (changed),
// and the refresh runs from the instant's flush event or from the first
// derived read (flush). Per-core and per-thread derivations run only for
// cores marked dirty since the last refresh, and once per class: a dirty
// core whose key equals that of the latest derived core under an equal cap
// copies that core's derivation. A package whose cap alone moved is
// stepped instead (stepCap). Counter rates are set, and core domains fed,
// once per class owner. The sums over cores add cached per-core values in
// a fixed core order, so their floating-point results are bit-identical
// whether a core's values were recomputed, shared or cached; a partial sum
// none of whose terms changed (a clean CCD's traffic, a clean package's
// RAPL estimate) is kept.
func (m *Machine) refresh() {
	m.inRefresh = true
	m.stale = false

	now := m.Eng.Now()
	raplCfg := m.RAPL.Config()
	nominalGHz := float64(m.cfg.SoC.NominalMHz) / 1000

	// Advance the thermal model under the previous power level first.
	m.Thermal.Advance(now, m.acEnergy.Power())

	// The counters and RAPL domains fold at every refresh instant; one
	// whose rate is unchanged replays those folds only when it is read or
	// its rate moves.
	m.log.Record(now)

	// A package whose cap moved is stepped if nothing else changed in it
	// and its classes are known; otherwise all its cores are keyed again.
	for p := range m.pkgs {
		ps := &m.pkgs[p]
		if !ps.capMoved {
			continue
		}
		ps.capMoved = false
		if ps.coreDirty || !ps.whole {
			m.markPackageDirty(p)
		} else {
			ps.stepped = true
			m.stepCap(p, raplCfg)
		}
	}

	// lead is the latest derived core, leadKey its key and leadCap its
	// package's cap; first is the first core of lead's class in the
	// current package.
	cpp := m.coresPerPackage
	lo, hi := m.dirtyLo, m.dirtyHi
	var key, leadKey coreKey
	lead, leadCap, peakCCX, peak := -1, 0.0, soc.CCXID(-1), 0.0
	for p := lo / cpp; p*cpp < hi; p++ {
		if !m.pkgs[p].coreDirty {
			continue
		}
		capMHz := m.DVFS.CapMHz(soc.PackageID(p))
		if capMHz != leadCap {
			lead = -1
		}
		first := -1
		for c := max(lo, p*cpp); c < min(hi, (p+1)*cpp); c++ {
			if m.cls[c] < 0 {
				continue
			}
			if x := m.Top.Cores[c].CCX; x != peakCCX {
				peakCCX, peak = x, m.DVFS.CCXUncappedPeakMHz(x)
			}
			m.coreKey(&key, soc.CoreID(c), peak)
			if lead >= 0 && key.eq(&leadKey) {
				m.shareDirty(c, lead)
				if first < 0 {
					first = c
				}
			} else {
				m.deriveDirty(c, m.clockOf(key.uncMHz, key.peakMHz, capMHz), raplCfg)
				lead, leadKey, leadCap, first = c, key, capMHz, c
			}
			m.cls[c] = int16(first)
		}
	}

	// Memory traffic per CCD, capped by the Fig. 5a response surface. A
	// CCD's traffic changes only with its cores' inputs (and the I/O die,
	// whose changes mark every core dirty), so it is recomputed only for
	// CCDs with a dirty core, and for CCDs with traffic in a stepped
	// package: a cap scales the demand of the cores it has, and leaves a
	// CCD without demand at +0, which an idle CCD adds too.
	m.trafficGBs = 0
	for d := range m.Top.CCDs {
		if m.ccdDirty(d) || m.ccdGBs[d] != 0 && m.pkgs[m.Top.CCDs[d].Package].stepped {
			m.ccdGBs[d] = m.ccdTraffic(d, nominalGHz)
		}
		m.trafficGBs += m.ccdGBs[d]
	}

	deep := m.CStates.SystemDeepSleep()
	sysW := m.Power.SystemWatts(power.Input{
		CoreWatts:      m.wattsBuf,
		DeepSleep:      deep,
		IOD:            m.iod,
		DRAMTrafficGBs: m.trafficGBs,
	})
	m.acEnergy.SetPower(now, sysW)

	// Classes never reach across packages, so the counters and core
	// domains of a package holding a dirty core regroup by class, and
	// only its dirty cores are fed, by class: a core's fed power changes
	// only with its estimate (the RAPL model applies its noise itself).
	// A stepped package keeps its classes: every class owner is fed, and
	// nothing regroups unless a read split a member out of its class
	// since the package last regrouped, when its active cores regroup by
	// the kept classes to take it back. Then the counter rates of the
	// class owners re-derived are set, every core is marked clean, and
	// the package's RAPL sum and SMU monitor are recomputed. Other
	// packages are left as they are.
	for p := range m.pkgs {
		ps := &m.pkgs[p]
		if !ps.coreDirty && !ps.stepped {
			continue
		}
		plo, phi := p*cpp, (p+1)*cpp
		cls := m.cls[plo:phi]
		if ps.stepped && ps.splits == m.splits() {
			m.RAPL.StepCorePowers(soc.CoreID(plo), m.raplWBuf[plo:phi])
			for c := plo; c < phi; c++ {
				if m.inputsBuf[c].ActiveThreads > 0 && !m.classes.Follows(c) {
					m.setRates(c)
				}
			}
		} else {
			if ps.stepped {
				for j, k := range m.part[plo:phi] {
					if m.inputsBuf[plo+j].ActiveThreads > 0 {
						cls[j] = k
					}
				}
			}
			m.RAPL.SetCorePowers(soc.CoreID(plo), m.raplWBuf[plo:phi], cls)
			sim.Regroup(&m.classes, m.counters, plo, cls, sameCounters)
			whole := true
			for j, k := range cls {
				if k >= 0 && !m.classes.Follows(plo+j) {
					m.setRates(plo + j)
				}
				whole = whole && k >= 0
			}
			if ps.coreDirty {
				if ps.whole = whole; whole {
					copy(m.part[plo:phi], cls)
				}
			}
			for j := range cls {
				cls[j] = -1
			}
			ps.splits = m.splits()
		}
		m.measure(p, !ps.stepped)
		ps.coreDirty, ps.stepped = false, false
	}
	m.dirtyLo, m.dirtyHi = len(m.cls), 0

	// The packages are fed their cores' cached estimates, summed in core
	// order, plus uncore and temperature leakage, every refresh, since
	// leakage follows the temperature.
	leak := max(0, raplCfg.TempLeakPerK*(m.Thermal.TempC()-raplCfg.TempRefC))
	for p := range m.pkgs {
		uncore := raplCfg.UncoreActive
		if deep {
			uncore = raplCfg.UncoreSleep
		}
		m.RAPL.SetPackagePower(soc.PackageID(p), m.pkgs[p].raplW+uncore+leak)
	}
	m.verifyFeed()
	m.verifyRefresh(raplCfg)
	m.shadow.refresh(m, now)
	m.stats.Refreshes++
	m.inRefresh = false
}

// stepCap re-derives package p, whose SMU cap alone moved: a cap moves no
// class key, so the package keeps the classes of its last keyed refresh
// (part). Each class of active cores derives once under the new cap, at
// its first core, and the other members copy what the cap moved. An idle
// core reads no clock and is left as it is.
func (m *Machine) stepCap(p int, raplCfg rapl.Config) {
	capMHz := m.DVFS.CapMHz(soc.PackageID(p))
	cpp := m.coresPerPackage
	for c := p * cpp; c < (p+1)*cpp; c++ {
		if m.inputsBuf[c].ActiveThreads == 0 {
			continue
		}
		if first := int(m.part[c]); first != c {
			m.shareClock(c, first)
			continue
		}
		core := soc.CoreID(c)
		peak := m.DVFS.CCXUncappedPeakMHz(m.Top.Cores[c].CCX)
		m.deriveDirty(c, m.clockOf(m.DVFS.UncappedMHz(core), peak, capMHz), raplCfg)
	}
}

// measure recomputes package p's RAPL estimate, the sum of its cores'
// estimates, and its SMU monitor: the sum of its active cores' EDC
// currents, both in core order, and their fastest effective clock and,
// unless uncapped is false because only the cap moved, their fastest
// uncapped clock.
func (m *Machine) measure(p int, uncapped bool) {
	ps := &m.pkgs[p]
	lo, hi := p*m.coresPerPackage, (p+1)*m.coresPerPackage
	in := m.inputsBuf[lo:hi]
	raplW, amps, eff := m.raplWBuf[lo:hi][:len(in)], m.ampsBuf[lo:hi][:len(in)], m.effBuf[lo:hi][:len(in)]
	w := 0.0
	mon := smu.Monitor{MaxUncappedMHz: ps.mon.MaxUncappedMHz}
	if uncapped {
		mon.MaxUncappedMHz = 0
	}
	for j := range in {
		w += raplW[j]
		if in[j].ActiveThreads == 0 {
			continue
		}
		mon.ActiveCores++
		mon.Amps += amps[j]
		if eff[j] > mon.MaxEffMHz {
			mon.MaxEffMHz = eff[j]
		}
		if !uncapped {
			continue
		}
		if f := m.DVFS.UncappedMHz(soc.CoreID(lo + j)); f > mon.MaxUncappedMHz {
			mon.MaxUncappedMHz = f
		}
	}
	ps.raplW, ps.mon = w, mon
	m.stats.Monitors++
}

// splits counts the copy-on-write splits of counters and core domains.
func (m *Machine) splits() uint64 { return m.classes.Splits() + m.RAPL.Splits() }

// ccdDirty reports whether CCD d has a dirty core. Cores are marked dirty
// a whole CCX at a time.
func (m *Machine) ccdDirty(d int) bool {
	for _, x := range m.Top.CCDs[d].CCXs {
		if m.cls[m.Top.CCXs[x].Cores[0]] >= 0 {
			return true
		}
	}
	return false
}

// ccdTraffic returns the DRAM traffic CCD d achieves: its cores' demand,
// capped by the I/O die's bandwidth for that many cores.
func (m *Machine) ccdTraffic(d int, nominalGHz float64) float64 {
	demand := 0.0
	nCores := 0
	ccxWithTraffic := 0
	for _, ccxID := range m.Top.CCDs[d].CCXs {
		hit := false
		for _, core := range m.Top.CCXs[ccxID].Cores {
			ci := &m.inputsBuf[core]
			if ci.ActiveThreads > 0 && ci.Kernel.MemGBs > 0 {
				demand += ci.Kernel.MemGBs * ci.GHz / nominalGHz
				nCores++
				hit = true
			}
		}
		if hit {
			ccxWithTraffic++
		}
	}
	if nCores == 0 {
		return 0
	}
	return math.Min(demand, m.iod.StreamBandwidthGBs(nCores, ccxWithTraffic > 1))
}

// coreKernel picks the kernel and operand weight representing a core: the
// kernel of its first active running thread; the weight is the maximum over
// active threads.
func (m *Machine) coreKernel(core soc.CoreID) (*workload.Kernel, float64) {
	var k *workload.Kernel
	var weight float64
	for _, t := range m.Top.Cores[core].Threads {
		if m.CStates.EffectiveState(t) == cstate.C0 && m.runs[t].kernel != 0 {
			if k == nil {
				k = m.kernelOf(t)
			}
			if m.runs[t].weight > weight {
				weight = m.runs[t].weight
			}
		}
	}
	if k == nil {
		// Active (C0) but not running a kernel: a pause-like OS idle loop
		// (POLL) — occurs only transiently.
		k = &workload.Poll
	}
	return k, weight
}

// activitySource adapts Machine to smu.ActivitySource: the SMU monitors the
// machine's own activity and power model (its internal estimate), not the
// external reference meter. Every method flushes a pending refresh, then
// answers from what that refresh derived, so a control tick re-derives
// nothing; `-tags simcheck` builds re-derive every core of the package on
// every monitor read and panic on a stale answer.
type activitySource Machine

func (a *activitySource) Monitor(pkg soc.PackageID) smu.Monitor {
	m := (*Machine)(a)
	m.flush()
	m.checkActivityRead()
	return m.pkgs[pkg].mon
}

func (a *activitySource) PackageWatts(pkg soc.PackageID) float64 {
	m := (*Machine)(a)
	m.flush()
	return m.RAPL.PackagePowerWatts(pkg)
}
