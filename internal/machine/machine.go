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
	active bool
	kernel workload.Kernel
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
	// epoch counts completed refreshes. Everything the SMU reads is
	// derived or notified through refresh, so an unchanged epoch means
	// unchanged activity readings (smu.ActivitySource.Epoch).
	epoch uint64

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
	// fedNoise is the RAPL noise factor of the last refresh's power feed.
	// While it holds, a clean core's fed power is unchanged, so only dirty
	// cores are re-fed.
	fedNoise float64
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

// IOD returns the current I/O-die configuration.
func (m *Machine) IOD() iodie.Config { return m.iod }

// SetIODSetting selects the I/O-die P-state (BIOS option).
func (m *Machine) SetIODSetting(s iodie.Setting) {
	m.iod.Setting = s
	m.changed()
}

// SetDRAMClock selects the DRAM frequency in MHz (BIOS option).
func (m *Machine) SetDRAMClock(mhz int) {
	m.iod.MemClkMHz = mhz
	m.changed()
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
	m.runs[t] = threadRun{active: true, kernel: k, weight: weight}
	m.markThreadDirty(t)
	m.changed()
	return lat, nil
}

// SetHammingWeight changes the operand weight of a running kernel.
func (m *Machine) SetHammingWeight(t soc.ThreadID, weight float64) {
	if m.runs[t].active {
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
func (m *Machine) Running(t soc.ThreadID) bool { return m.runs[t].active }

// KernelOn returns the kernel a thread runs (zero Kernel when idle).
func (m *Machine) KernelOn(t soc.ThreadID) workload.Kernel { return m.runs[t].kernel }

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
	if !m.runs[t].active && m.Top.Online(t) {
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

// StreamBandwidthGBs returns the achieved STREAM bandwidth for reading
// cores placed on a single CCD (Fig. 5a).
func (m *Machine) StreamBandwidthGBs(cores int, twoCCX bool) float64 {
	return m.iod.StreamBandwidthGBs(cores, twoCCX)
}

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
func (m *Machine) deriveCore(core soc.CoreID, raplCfg rapl.Config, ci *power.CoreInput) (raplW, effMHz float64) {
	*ci = power.CoreInput{
		State:         m.CStates.CoreState(core),
		ActiveThreads: m.CStates.ActiveThreads(core),
	}
	if ci.ActiveThreads > 0 {
		effMHz = m.DVFS.EffectiveMHz(core)
		ci.GHz = effMHz / 1000
		ci.Volts = m.DVFS.VoltageAt(effMHz)
		k, weight := m.coreKernel(core)
		ci.Kernel, ci.HammingWeight = *k, weight
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
		if m.runs[id].active {
			n := ci.ActiveThreads
			ins = m.runs[id].kernel.IPC(n) / float64(n) * effMHz * 1e6
		}
	}
	return cyc, ins, mpf
}

// refresh recomputes all rates after the mutations of one instant. It runs
// at most once per instant: mutations only mark the machine stale (changed),
// and the refresh runs from the instant's flush event or from the first
// derived read (flush). Per-core and per-thread derivations run only for
// cores marked dirty since the last refresh; the aggregation loops below
// always run in full, in a fixed order, so their floating-point results are
// bit-identical whether a core's values were recomputed or cached.
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
	for c := range m.Top.Cores {
		if !m.dirtyAll && !m.dirtyCores[c] {
			continue
		}
		ci := &inputs[c]
		m.raplWBuf[c], m.effBuf[c] = m.deriveCore(soc.CoreID(c), raplCfg, ci)
		for _, t := range m.Top.Cores[c].Threads {
			cyc, ins, mpf := m.deriveThread(t, ci, m.effBuf[c])
			tc := &m.counters[t]
			tc[cycles].SetRate(m.log, cyc)
			tc[instrs].SetRate(m.log, ins)
			tc[mperf].SetRate(m.log, mpf)
		}
	}
	m.verifyRefresh(raplCfg)
	m.shadow.refresh(m, now)
	m.epoch++

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
	// its estimate or the model noise, so clean cores are re-fed only when
	// the noise has moved; the packages are fed every refresh, since
	// leakage follows the temperature.
	leak := math.Max(0, raplCfg.TempLeakPerK*(m.Thermal.TempC()-raplCfg.TempRefC))
	feedAll := m.dirtyAll || m.RAPL.NoiseFactor() != m.fedNoise
	m.fedNoise = m.RAPL.NoiseFactor()
	pkgW := m.pkgWBuf
	for i := range pkgW {
		pkgW[i] = 0
	}
	for c, w := range m.raplWBuf {
		if feedAll || m.dirtyCores[c] {
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
		if m.CStates.EffectiveState(t) == cstate.C0 && m.runs[t].active {
			if k == nil {
				k = &m.runs[t].kernel
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
	return m.epoch
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
