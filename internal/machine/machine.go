// Package machine assembles the full simulated system: topology, MSR file,
// DVFS controller, C-state model, SMU (EDC manager), I/O die, power model,
// thermal model, RAPL model and per-thread performance counters — the
// simulated counterpart of the paper's dual-socket EPYC 7502 test system.
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
// The per-thread counters and the RAPL domains fold lazily over a log of
// those instants, replaying the folds only when a rate changes or someone
// reads them.
//
// A refresh does one derivation per class of dirty cores, not one per
// dirty core. A core's class key covers everything its derivation reads:
// per thread, the effective C-state, the kernel (interned at StartKernel,
// so equal kernels compare as one small integer) and the operand weight;
// for a core with a thread in C0, also its applied clock (P-state, boost
// grant and SMU cap) and its CCX's peak applied clock, which fixes the
// coupling penalty. Floats are compared by their bits. A dirty core whose
// key equals that of the latest derived core copies that core's power-model
// input, RAPL estimate, effective clock and thread counter rates. The same
// float operations on bit-equal inputs give the same bits, so sharing moves
// no result; `-tags simcheck` builds re-derive every core after every
// refresh. When the SMU moves a package-wide cap, every core of a package
// running one load is one class. Counters of a sharing core that are
// bit-identical to the derived core's before its update take the updated
// counters whole instead of replaying the log (sim.LazyIntegrator.Same).
// The RAPL model does likewise for domains fed equal powers in a row, and
// it applies its noise factor itself, so a noise step re-feeds no domain.
package machine

import (
	"fmt"
	"math"

	"zen2ee/internal/cstate"
	"zen2ee/internal/dvfs"
	"zen2ee/internal/iodie"
	"zen2ee/internal/msr"
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

// threadRun tracks what a hardware thread is executing.
type threadRun struct {
	kernel int32   // 1 + index into Machine.kernels; 0 when idle
	weight float64 // operand Hamming weight
}

// Machine is the simulated system.
type Machine struct {
	Eng     *sim.Engine
	Top     *soc.Topology
	Regs    *msr.File
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

	acEnergy *sim.EnergyIntegrator
	lastSysW float64

	// log holds the refresh instants the per-thread counters fold at.
	log      *sim.FoldLog
	counters []threadCounters
	shadow   counterShadow // eager counters, -tags simcheck only

	trafficGBs float64
	inRefresh  bool
	// stale marks a mutation since the last refresh; flushQueued marks a
	// flush event pending at the current instant.
	stale       bool
	flushQueued bool
	flushEvent  func()
	// stats counts refreshes and the cores they derived or shared. Its
	// refresh count is the SMU's epoch: everything the SMU reads is derived
	// or notified through refresh, so an unchanged count means unchanged
	// activity readings (smu.ActivitySource.Epoch).
	stats RefreshStats

	// Incremental-refresh state. Per-core derived values (power-model
	// inputs, RAPL estimates) and per-thread counter rates are cached across
	// refreshes; a refresh recomputes them only for cores marked dirty since
	// the last one. Any mutation that can change a core's derived state
	// marks its whole CCX dirty (effective frequencies couple within a CCX),
	// so cached values are always bit-identical to a full recompute — which
	// `-tags simcheck` builds assert on every refresh.
	dirtyAll   bool
	dirtyCores []bool
	inputsBuf  []power.CoreInput
	effBuf     []float64 // effective MHz of active cores (0 when idle)
	raplWBuf   []float64
	pkgWBuf    []float64
	corePkg    []soc.PackageID
	// leadPre holds the counters of the refresh's latest derived core as
	// they were before it set their rates. A core sharing its derivation
	// whose counters are the same (sim.LazyIntegrator.Same) takes the
	// derived core's counters whole instead of replaying its own.
	leadPre [2]threadCounters
}

// RefreshStats counts the machine's refresh work since New. Every core a
// refresh finds dirty is either derived or shared.
type RefreshStats struct {
	// Refreshes is the number of refreshes run.
	Refreshes uint64
	// Derived counts dirty cores derived from scratch.
	Derived uint64
	// Shared counts dirty cores that copied the derivation of the latest
	// derived core, whose class key was equal.
	Shared uint64
}

// threadCounters are a hardware thread's performance counters, indexed by
// counterKind. Their rates are the thread's cached derived state: a refresh
// sets them only for threads of dirty cores.
type threadCounters [numCounters]sim.LazyIntegrator

// counterKind names one of a thread's counters.
type counterKind int

const (
	cycles counterKind = iota // cycles/s while in C0 (== aperf)
	instrs
	mperf
	numCounters
)

// foldLogCap bounds the counters' fold log; a full log catches every
// counter up and starts over.
const foldLogCap = 256

// New builds and wires the system. All threads start idle in the deepest
// C-state at the lowest P-state.
func New(cfg Config) *Machine {
	if err := cfg.IOD.Validate(); err != nil {
		panic(err)
	}
	eng := sim.NewEngine(cfg.Seed)
	top := soc.New(cfg.SoC)
	regs := msr.NewFile(top.NumThreads())

	m := &Machine{
		Eng:  eng,
		Top:  top,
		Regs: regs,
		cfg:  cfg,
		iod:  cfg.IOD,
		runs: make([]threadRun, top.NumThreads()),

		dirtyAll:   true,
		dirtyCores: make([]bool, top.NumCores()),
		inputsBuf:  make([]power.CoreInput, top.NumCores()),
		effBuf:     make([]float64, top.NumCores()),
		raplWBuf:   make([]float64, top.NumCores()),
		pkgWBuf:    make([]float64, len(top.Packages)),
		corePkg:    make([]soc.PackageID, top.NumCores()),
	}
	for c := range m.corePkg {
		m.corePkg[c] = top.PackageOfCore(soc.CoreID(c))
	}
	m.flushEvent = m.onFlushEvent
	m.DVFS = dvfs.New(eng, top, cfg.DVFS, regs)
	m.CStates = cstate.New(eng, top, cfg.CState)
	m.Power = power.NewModel(cfg.Power)
	m.Thermal = power.NewThermal(cfg.Power)
	m.RAPL = rapl.New(eng, top, cfg.RAPL, regs)

	m.acEnergy = sim.NewEnergyIntegrator(eng.Now(), 0)
	m.log = sim.NewFoldLog(eng.Now(), foldLogCap, m.catchUpCounters)
	m.counters = make([]threadCounters, top.NumThreads())
	start := sim.NewLazyIntegrator(m.log, eng.Now())
	for t := range m.counters {
		m.counters[t] = threadCounters{start, start, start}
	}
	m.shadow.init(m)
	m.wirePerfMSRs(float64(cfg.SoC.NominalMHz))

	m.CStates.OnCoreActive = func(core soc.CoreID, n int) { m.DVFS.SetActiveThreads(core, n) }
	m.CStates.Dirty = m.markThreadDirty
	m.CStates.DirtyAll = m.markAllDirty
	m.CStates.AfterChange = m.changed
	m.DVFS.Dirty = m.markCoreDirty
	m.DVFS.AfterChange = m.changed
	m.RAPL.BeforeNoise = m.flush

	m.SMU = smu.New(eng, top, cfg.SMU, m.DVFS, (*activitySource)(m))

	// Idle system: every thread parks in the deepest C-state.
	for t := 0; t < top.NumThreads(); t++ {
		m.CStates.EnterIdle(soc.ThreadID(t), cstate.C2)
	}
	m.changed()
	m.flush()
	return m
}

// changed records a mutation: it marks the machine stale and, unless one
// is already pending, schedules a flush event at the current instant.
// Every mutation calls it, so each instant with a mutation gets exactly one
// refresh.
func (m *Machine) changed() {
	m.stale = true
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

func (m *Machine) wirePerfMSRs(nominalMHz float64) {
	m.Regs.HookRead(msr.TSC, func(cpu int) uint64 {
		return uint64(m.Eng.Now().Seconds() * nominalMHz * 1e6)
	})
	m.Regs.HookRead(msr.APERF, func(cpu int) uint64 {
		return uint64(m.readCounter(cpu, cycles))
	})
	m.Regs.HookRead(msr.MPERF, func(cpu int) uint64 {
		return uint64(m.readCounter(cpu, mperf))
	})
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
	m.changed()
	return nil
}

// --- Workload control ---

// StartKernel puts a thread to work on a kernel. If the thread is idle it
// is woken first; the returned duration is the wake-up latency (zero when
// already active). weight is the operand Hamming weight for data-dependent
// kernels.
func (m *Machine) StartKernel(t soc.ThreadID, k workload.Kernel, weight float64) (sim.Duration, error) {
	if !m.Top.Online(t) {
		return 0, fmt.Errorf("machine: thread %d is offline", t)
	}
	lat := sim.Duration(0)
	if m.CStates.EffectiveState(t) != cstate.C0 {
		core := m.Top.Threads[t].Core
		lat = m.CStates.Wake(t, m.DVFS.EffectiveMHz(core), false)
	}
	m.runs[t] = threadRun{kernel: m.intern(k), weight: weight}
	m.markThreadDirty(t)
	m.changed()
	return lat, nil
}

// intern returns 1 + the index of kernel k in m.kernels, adding a copy on
// first use. Kernels are few, so a linear search serves.
func (m *Machine) intern(k workload.Kernel) int32 {
	for i, p := range m.kernels {
		if *p == k {
			return int32(i) + 1
		}
	}
	p := new(workload.Kernel)
	*p = k
	m.kernels = append(m.kernels, p)
	return int32(len(m.kernels))
}

// kernelOf returns the kernel thread t runs, nil when idle.
func (m *Machine) kernelOf(t soc.ThreadID) *workload.Kernel {
	if id := m.runs[t].kernel; id > 0 {
		return m.kernels[id-1]
	}
	return nil
}

// SetHammingWeight changes the operand weight of a running kernel.
func (m *Machine) SetHammingWeight(t soc.ThreadID, weight float64) {
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
func (m *Machine) SetOnline(t soc.ThreadID, online bool) error {
	if !online {
		m.runs[t] = threadRun{}
		m.markThreadDirty(t)
		m.CStates.EnterIdle(t, m.CStates.DeepestEnabled(t))
	}
	err := m.Top.SetOnline(t, online)
	if err == nil {
		m.CStates.NotifyOnlineChanged()
	}
	m.changed()
	return err
}

// SetCStateEnabled toggles a sysfs C-state disable file and re-applies the
// idle governor's choice on idle threads (disabling C2 demotes C2 residents
// to C1; re-enabling promotes them back — the Fig. 7 sweep protocol).
func (m *Machine) SetCStateEnabled(t soc.ThreadID, s cstate.State, enabled bool) error {
	if err := m.CStates.SetEnabled(t, s, enabled); err != nil {
		return err
	}
	if m.runs[t].kernel == 0 && m.Top.Online(t) {
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
	return m.lastSysW
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
	if !m.stale && !m.dirtyAll && !m.dirtyCores[core] && m.inputsBuf[core].ActiveThreads > 0 {
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
	m.Thermal.Preheat(m.lastSysW)
}

// Counters is a per-thread performance-counter snapshot.
type Counters struct {
	Cycles       float64
	Instructions float64
	Aperf        float64
	Mperf        float64
	TSC          float64
}

// ReadCounters samples a thread's counters.
func (m *Machine) ReadCounters(t soc.ThreadID) Counters {
	now := m.Eng.Now()
	return Counters{
		Cycles:       m.readCounter(int(t), cycles),
		Instructions: m.readCounter(int(t), instrs),
		Aperf:        m.readCounter(int(t), cycles),
		Mperf:        m.readCounter(int(t), mperf),
		TSC:          now.Seconds() * float64(m.cfg.SoC.NominalMHz) * 1e6,
	}
}

// readCounter folds one counter of thread t up to now and returns it. A
// read folds only the counter read, exactly as an eager integrator would.
func (m *Machine) readCounter(t int, k counterKind) float64 {
	now := m.Eng.Now()
	v := m.counters[t][k].Energy(m.log, now)
	m.shadow.checkRead(m, t, k, now, v)
	return v
}

// catchUpCounters folds every counter through the whole fold log.
func (m *Machine) catchUpCounters() {
	for t := range m.counters {
		for k := range m.counters[t] {
			m.counters[t][k].CatchUp(m.log)
		}
	}
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
// Table I penalties), so any per-core change can move its CCX siblings.
func (m *Machine) markCoreDirty(core soc.CoreID) {
	if m.dirtyAll {
		return
	}
	for _, c := range m.Top.CCXs[m.Top.Cores[core].CCX].Cores {
		m.dirtyCores[c] = true
	}
}

func (m *Machine) markThreadDirty(t soc.ThreadID) {
	m.markCoreDirty(m.Top.Threads[t].Core)
}

func (m *Machine) markAllDirty() { m.dirtyAll = true }

// deriveCore computes a core's power-model input into ci and returns its
// RAPL-model power estimate (before model noise) and effective frequency
// (0 when no thread is active) — the expensive per-core step of refresh.
// activeMHz is the core's effective frequency should a thread be active.
func (m *Machine) deriveCore(core soc.CoreID, activeMHz float64, raplCfg rapl.Config, ci *power.CoreInput) (raplW, effMHz float64) {
	*ci = power.CoreInput{
		State:         m.CStates.CoreState(core),
		ActiveThreads: m.CStates.ActiveThreads(core),
	}
	if ci.ActiveThreads > 0 {
		effMHz = activeMHz
		ci.GHz = effMHz / 1000
		ci.Volts = m.DVFS.VoltageAt(effMHz)
		ci.Kernel, ci.HammingWeight = m.coreKernel(core)
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
	return raplW, effMHz
}

// deriveThread computes a thread's performance-counter rates (cycles,
// instructions and mperf reference cycles per second) from its core's
// derived input and effective frequency.
func (m *Machine) deriveThread(id soc.ThreadID, ci *power.CoreInput, effMHz float64) (cyc, ins, mpf float64) {
	if m.CStates.EffectiveState(id) == cstate.C0 {
		cyc = effMHz * 1e6
		mpf = float64(m.cfg.SoC.NominalMHz) * 1e6
		if k := m.kernelOf(id); k != nil {
			n := ci.ActiveThreads
			ins = k.IPC(n) / float64(n) * effMHz * 1e6
		}
	}
	return cyc, ins, mpf
}

// coreKey is a core's class key: everything deriveCore and deriveThread
// read of the core, with floats compared by their bits. Dirty cores with
// equal keys derive bit-identical inputs, RAPL estimates, effective clocks
// and thread rates.
type coreKey struct {
	threads [2]threadKey
	// appliedMHz and peakMHz are the core's applied clock and its CCX's
	// peak (dvfs.Controller.CCXPeakMHz), which fix its effective clock.
	// Both are zero for an idle core, which reads neither.
	appliedMHz, peakMHz uint64
}

// threadKey is one thread's part of a coreKey: its effective C-state, its
// interned kernel (threadRun.kernel) and its operand weight.
type threadKey struct {
	state, kernel int32
	weight        uint64
}

// eq is key == o, written out field by field: the compiler would compare
// the whole struct through a runtime call, which costs more than the
// comparison itself.
func (k *coreKey) eq(o *coreKey) bool {
	return k.appliedMHz == o.appliedMHz && k.peakMHz == o.peakMHz &&
		k.threads[0] == o.threads[0] && k.threads[1] == o.threads[1]
}

// coreKey sets key to core's class key; peakMHz is its CCX's peak.
// appliedMHz and peakMHz are left zero for an idle core.
func (m *Machine) coreKey(key *coreKey, core soc.CoreID, peakMHz float64) {
	active := false
	for i, t := range m.Top.Cores[core].Threads {
		s := m.CStates.EffectiveState(t)
		r := &m.runs[t]
		key.threads[i] = threadKey{state: int32(s), kernel: r.kernel, weight: math.Float64bits(r.weight)}
		active = active || s == cstate.C0
	}
	key.appliedMHz, key.peakMHz = 0, 0
	if active {
		key.appliedMHz = math.Float64bits(m.DVFS.AppliedMHz(core))
		key.peakMHz = math.Float64bits(peakMHz)
	}
}

// deriveDirty derives core c and its threads' counter rates from scratch;
// activeMHz is as for deriveCore.
func (m *Machine) deriveDirty(c int, activeMHz float64, raplCfg rapl.Config) {
	ci := &m.inputsBuf[c]
	m.raplWBuf[c], m.effBuf[c] = m.deriveCore(soc.CoreID(c), activeMHz, raplCfg, ci)
	for i, t := range m.Top.Cores[c].Threads {
		cyc, ins, mpf := m.deriveThread(t, ci, m.effBuf[c])
		tc := &m.counters[t]
		m.leadPre[i] = *tc
		tc[cycles].SetRate(m.log, cyc)
		tc[instrs].SetRate(m.log, ins)
		tc[mperf].SetRate(m.log, mpf)
	}
	m.stats.Derived++
}

// shareDirty gives core c the derivation of core lead, the latest derived
// core, whose class key is equal: its input, RAPL estimate, effective
// clock and, thread by thread, its counter rates. A counter in the state
// lead's was in before its update takes lead's updated counter whole.
func (m *Machine) shareDirty(c, lead int) {
	m.inputsBuf[c] = m.inputsBuf[lead]
	m.raplWBuf[c], m.effBuf[c] = m.raplWBuf[lead], m.effBuf[lead]
	from := &m.Top.Cores[lead].Threads
	for i, t := range m.Top.Cores[c].Threads {
		tc, fc, pre := &m.counters[t], &m.counters[from[i]], &m.leadPre[i]
		for k := range tc {
			if tc[k].Same(&pre[k]) {
				tc[k] = fc[k]
			} else {
				tc[k].SetRate(m.log, fc[k].Rate())
			}
		}
	}
	m.stats.Shared++
}

// RefreshStats returns the refresh counts since New.
func (m *Machine) RefreshStats() RefreshStats { return m.stats }

// refresh recomputes all rates after the mutations of one instant. It runs
// at most once per instant: mutations only mark the machine stale (changed),
// and the refresh runs from the instant's flush event or from the first
// derived read (flush). Per-core and per-thread derivations run only for
// cores marked dirty since the last refresh, and once per class: a dirty
// core whose key equals that of the latest derived core copies that core's
// derivation. The aggregation loops below always run in full, in a fixed
// order, so their floating-point results are bit-identical whether a
// core's values were recomputed, shared or cached.
func (m *Machine) refresh() {
	m.inRefresh = true
	m.stale = false

	now := m.Eng.Now()
	raplCfg := m.RAPL.Config()
	nominalGHz := float64(m.cfg.SoC.NominalMHz) / 1000

	// Advance the thermal model under the previous power level first.
	m.Thermal.Advance(now, m.lastSysW)

	// The counters fold at every refresh instant; a counter whose rate is
	// unchanged replays those folds only when it is read or its rate moves.
	m.log.Record(now)
	inputs := m.inputsBuf
	// lead is the latest derived core and leadKey its key.
	var key, leadKey coreKey
	lead, peakCCX, peak := -1, soc.CCXID(-1), 0.0
	for c := range m.Top.Cores {
		if !m.dirtyAll && !m.dirtyCores[c] {
			continue
		}
		if x := m.Top.Cores[c].CCX; x != peakCCX {
			peakCCX, peak = x, m.DVFS.CCXPeakMHz(x)
		}
		m.coreKey(&key, soc.CoreID(c), peak)
		if lead >= 0 && key.eq(&leadKey) {
			m.shareDirty(c, lead)
		} else {
			m.deriveDirty(c, m.DVFS.CoupledMHz(math.Float64frombits(key.appliedMHz), peak), raplCfg)
			lead, leadKey = c, key
		}
	}
	m.verifyRefresh(raplCfg)
	m.shadow.refresh(m, now)
	m.stats.Refreshes++

	// Memory traffic per CCD, capped by the Fig. 5a response surface.
	m.trafficGBs = 0
	for _, ccd := range m.Top.CCDs {
		demand := 0.0
		nCores := 0
		ccxWithTraffic := 0
		for _, ccxID := range ccd.CCXs {
			hit := false
			for _, core := range m.Top.CCXs[ccxID].Cores {
				ci := &inputs[core]
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
		if nCores > 0 {
			cap := m.iod.StreamBandwidthGBs(nCores, ccxWithTraffic > 1)
			m.trafficGBs += math.Min(demand, cap)
		}
	}

	deep := m.CStates.SystemDeepSleep()
	sysW := m.Power.SystemWatts(power.Input{
		Cores:          inputs,
		DeepSleep:      deep,
		IOD:            m.iod,
		DRAMTrafficGBs: m.trafficGBs,
	})
	m.acEnergy.SetPower(now, sysW)
	m.lastSysW = sysW

	// RAPL model: the cached per-core activity-event estimates plus package
	// uncore and temperature leakage. A core's fed power changes only with
	// its estimate (the model applies its noise itself), so only dirty
	// cores are fed; the packages are fed every refresh, since leakage
	// follows the temperature.
	leak := math.Max(0, raplCfg.TempLeakPerK*(m.Thermal.TempC()-raplCfg.TempRefC))
	pkgW := m.pkgWBuf
	for i := range pkgW {
		pkgW[i] = 0
	}
	for c, w := range m.raplWBuf {
		if m.dirtyAll || m.dirtyCores[c] {
			m.RAPL.SetCorePower(soc.CoreID(c), w)
		}
		pkgW[m.corePkg[c]] += w
	}
	for p := range pkgW {
		uncore := raplCfg.UncoreActive
		if deep {
			uncore = raplCfg.UncoreSleep
		}
		m.RAPL.SetPackagePower(soc.PackageID(p), pkgW[p]+uncore+leak)
	}
	m.verifyFeed()

	m.dirtyAll = false
	for c := range m.dirtyCores {
		m.dirtyCores[c] = false
	}
	m.inRefresh = false
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
// answers from the per-core state that refresh derived, so a control tick
// re-derives nothing; `-tags simcheck` builds re-derive on every read and
// panic on a stale answer.
type activitySource Machine

func (a *activitySource) Epoch() uint64 {
	m := (*Machine)(a)
	m.flush()
	return m.stats.Refreshes
}

func (a *activitySource) CoreCurrentAmps(core soc.CoreID) float64 {
	m := (*Machine)(a)
	m.flush()
	m.checkActivityRead(core)
	ci := &m.inputsBuf[core]
	if ci.ActiveThreads == 0 {
		return 0
	}
	return ci.Kernel.EDCWeight(ci.ActiveThreads) * ci.GHz * ci.Volts
}

func (a *activitySource) CoreActive(core soc.CoreID) bool {
	m := (*Machine)(a)
	m.flush()
	m.checkActivityRead(core)
	return m.inputsBuf[core].ActiveThreads > 0
}

func (a *activitySource) CoreEffectiveMHz(core soc.CoreID) float64 {
	m := (*Machine)(a)
	m.flush()
	m.checkActivityRead(core)
	return m.effBuf[core]
}

func (a *activitySource) PackageWatts(pkg soc.PackageID) float64 {
	m := (*Machine)(a)
	m.flush()
	return m.RAPL.PackagePowerWatts(pkg)
}
