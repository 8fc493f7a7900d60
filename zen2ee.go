// Package zen2ee is a simulation-backed reproduction of "Energy Efficiency
// Aspects of the AMD Zen 2 Architecture" (Schöne et al., IEEE CLUSTER 2021,
// arXiv:2108.00808).
//
// It models the power-management architecture of a dual-socket AMD EPYC
// 7502 ("Rome") system — core P-states with their 1 ms transition-slot grid,
// CCX frequency coupling, the SMU's EDC manager, C-states with package deep
// sleep, I/O-die P-states, the modeled (not measured) RAPL energy interface
// — and ships the paper's complete measurement-benchmark suite re-targeted
// at the model, regenerating every table and figure.
//
// Quick start:
//
//	sys := zen2ee.NewSystem()
//	sys.SetAllFrequenciesMHz(2500)
//	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
//	    sys.Run(cpu, "firestarter")
//	}
//	sys.AdvanceMillis(500)
//	fmt.Printf("%.0f W at %.2f GHz\n", sys.PowerWatts(), sys.CoreGHz(0))
//
// The experiment registry exposes every paper artifact:
//
//	res, _ := zen2ee.RunExperiment("fig3", zen2ee.DefaultOptions())
//	fmt.Print(res.Table())
package zen2ee

import (
	"fmt"

	"zen2ee/internal/core"
	"zen2ee/internal/cstate"
	"zen2ee/internal/iodie"
	"zen2ee/internal/machine"
	"zen2ee/internal/measure"
	"zen2ee/internal/phases"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// System is a simulated Zen 2 test system (dual EPYC 7502 by default).
type System struct {
	m *machine.Machine
}

// Option customizes a System.
type Option func(*machine.Config)

// WithSeed sets the simulation seed (default 1; simulations are
// deterministic per seed).
func WithSeed(seed uint64) Option {
	return func(c *machine.Config) { c.Seed = seed }
}

// WithoutCCXCoupling ablates the Table I mixed-frequency penalty.
func WithoutCCXCoupling() Option {
	return func(c *machine.Config) { c.DVFS.CouplingEnabled = false }
}

// WithoutEDCManager disables the SMU's throttle loops (EDC and PPT) for
// ablation runs. Note: with only the EDC limit removed, the package-power
// (TDP) loop becomes binding under FIRESTARTER at ~2.12 GHz — remove both
// to observe unthrottled behaviour.
func WithoutEDCManager() Option {
	return func(c *machine.Config) {
		c.SMU.EDCAmps = 1e12
		c.SMU.TDPWatts = 0
	}
}

// WithoutOfflineAnomaly ablates the §VI-B offline-thread C1 elevation.
func WithoutOfflineAnomaly() Option {
	return func(c *machine.Config) { c.CState.OfflineElevatesToC1 = false }
}

// WithBoost enables Core Performance Boost: the SMU grants clocks above
// nominal (up to the part's single-core maximum, descending ~30 MHz per
// active core beyond the first four), still subject to EDC/PPT limits.
func WithBoost() Option {
	return func(c *machine.Config) {
		c.SMU.BoostMHz = float64(c.SoC.BoostMHz)
		c.SMU.BoostFreeCores = 4
		c.SMU.BoostSlopeMHz = 30
	}
}

// WithIntelSlotGrid switches the DVFS transition timing to the Intel
// Haswell parameters (500 µs grid, 21–24 µs ramps) for comparison runs.
func WithIntelSlotGrid() Option {
	return func(c *machine.Config) {
		c.DVFS.SlotPeriod = 500 * sim.Microsecond
		c.DVFS.RampUp = 21 * sim.Microsecond
		c.DVFS.RampDown = 24 * sim.Microsecond
	}
}

// NewSystem builds the paper's test system.
func NewSystem(opts ...Option) *System {
	cfg := machine.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return &System{m: machine.New(cfg)}
}

// Machine exposes the underlying machine for advanced use within this
// module (the cmd/ tools use it).
func (s *System) Machine() *machine.Machine { return s.m }

// NumCPUs returns the number of logical CPUs (hardware threads).
func (s *System) NumCPUs() int { return s.m.Top.NumThreads() }

// NumCores returns the number of physical cores.
func (s *System) NumCores() int { return s.m.Top.NumCores() }

// Kernels lists the available workload kernel names.
func Kernels() []string {
	var out []string
	for _, k := range workload.All() {
		out = append(out, k.Name)
	}
	return out
}

// Run starts a named kernel on a logical CPU (waking it if idle).
func (s *System) Run(cpu int, kernel string) error {
	return s.RunWeighted(cpu, kernel, 0)
}

// RunWeighted starts a kernel with an operand Hamming weight (0..1), for
// the data-dependent-power kernels vxorps and shr.
func (s *System) RunWeighted(cpu int, kernel string, weight float64) error {
	k, err := workload.ByName(kernel)
	if err != nil {
		return err
	}
	_, err = s.m.StartKernel(soc.ThreadID(cpu), k, weight)
	return err
}

// Stop idles a CPU; the idle governor selects the deepest enabled C-state.
func (s *System) Stop(cpu int) { s.m.StopKernel(soc.ThreadID(cpu)) }

// SetFrequencyMHz pins one CPU's requested frequency (userspace governor).
// Note the paper's §V-A finding: the core follows the *highest* request of
// its two hardware threads, idle or offline threads included.
func (s *System) SetFrequencyMHz(cpu, mhz int) error {
	return s.m.SetThreadFrequencyMHz(soc.ThreadID(cpu), mhz)
}

// SetAllFrequenciesMHz pins every CPU's request.
func (s *System) SetAllFrequenciesMHz(mhz int) error {
	return s.m.SetAllFrequenciesMHz(mhz)
}

// SetOnline flips a CPU's sysfs online state. Beware §VI-B: offline
// threads block package deep sleep until re-onlined.
func (s *System) SetOnline(cpu int, online bool) error {
	return s.m.SetOnline(soc.ThreadID(cpu), online)
}

// SetCStateEnabled toggles an idle state (1 = C1, 2 = C2) on one CPU.
func (s *System) SetCStateEnabled(cpu, state int, enabled bool) error {
	return s.m.SetCStateEnabled(soc.ThreadID(cpu), cstate.State(state), enabled)
}

// IODieSettings lists the selectable I/O-die P-state names.
func IODieSettings() []string {
	var out []string
	for _, x := range iodie.Settings() {
		out = append(out, x.String())
	}
	return out
}

// SetIODieSetting selects the I/O-die P-state by name ("auto", "P0".."P3").
func (s *System) SetIODieSetting(name string) error {
	for _, x := range iodie.Settings() {
		if x.String() == name {
			s.m.SetIODSetting(x)
			return nil
		}
	}
	return fmt.Errorf("zen2ee: unknown I/O-die setting %q", name)
}

// SetDRAMClockMHz selects the DRAM frequency (1467 or 1600 on the paper's
// system; other values interpolate/clamp).
func (s *System) SetDRAMClockMHz(mhz int) { s.m.SetDRAMClock(mhz) }

// AdvanceMillis advances the simulation by ms milliseconds.
func (s *System) AdvanceMillis(ms float64) {
	s.m.Eng.RunFor(sim.DurationFromSeconds(ms / 1000))
}

// AdvanceMicros advances the simulation by µs microseconds.
func (s *System) AdvanceMicros(us float64) {
	s.m.Eng.RunFor(sim.DurationFromSeconds(us / 1e6))
}

// NowSeconds returns the simulation clock.
func (s *System) NowSeconds() float64 { return s.m.Eng.Now().Seconds() }

// PowerWatts returns the current true AC system power.
func (s *System) PowerWatts() float64 { return s.m.SystemWatts() }

// EnergyJoules returns the accumulated AC energy.
func (s *System) EnergyJoules() float64 { return s.m.EnergyJoules(s.m.Eng.Now()) }

// TempC returns the package temperature.
func (s *System) TempC() float64 { return s.m.TempC() }

// Preheat jumps the thermal model to steady state (the paper's 15-minute
// warm-up).
func (s *System) Preheat() { s.m.Preheat() }

// CoreGHz returns a core's effective frequency in GHz — after EDC
// throttling and CCX coupling.
func (s *System) CoreGHz(core int) float64 {
	return s.m.EffectiveMHz(soc.CoreID(core)) / 1000
}

// CoreOf maps a logical CPU to its physical core.
func (s *System) CoreOf(cpu int) int { return int(s.m.Top.Threads[cpu].Core) }

// SiblingOf maps a logical CPU to its SMT sibling.
func (s *System) SiblingOf(cpu int) int { return int(s.m.Top.Sibling(soc.ThreadID(cpu))) }

// RAPLPackageWatts measures the RAPL package domain over ms milliseconds of
// simulated time (advancing the simulation).
func (s *System) RAPLPackageWatts(pkg int, ms float64) float64 {
	e0 := s.m.RAPL.PackageEnergyJoules(soc.PackageID(pkg))
	t0 := s.m.Eng.Now()
	s.AdvanceMillis(ms)
	return (s.m.RAPL.PackageEnergyJoules(soc.PackageID(pkg)) - e0) /
		s.m.Eng.Now().Sub(t0).Seconds()
}

// RAPLCoreWatts measures a core's RAPL domain over ms milliseconds.
func (s *System) RAPLCoreWatts(core int, ms float64) float64 {
	e0 := s.m.RAPL.CoreEnergyJoules(soc.CoreID(core))
	t0 := s.m.Eng.Now()
	s.AdvanceMillis(ms)
	return (s.m.RAPL.CoreEnergyJoules(soc.CoreID(core)) - e0) /
		s.m.Eng.Now().Sub(t0).Seconds()
}

// WakeLatencyMicros reports the wake-up latency of an idle CPU in µs.
func (s *System) WakeLatencyMicros(cpu int, remote bool) float64 {
	return s.m.WakeLatency(soc.ThreadID(cpu), remote).Micros()
}

// CPUStat is a per-CPU counter snapshot delta.
type CPUStat struct {
	GHz float64 // cycles per wall-clock second
	IPC float64
}

// Stat samples a CPU over ms milliseconds (advancing the simulation).
func (s *System) Stat(cpu int, ms float64) CPUStat {
	t := soc.ThreadID(cpu)
	before := s.m.ReadCounters(t)
	t0 := s.m.Eng.Now()
	s.AdvanceMillis(ms)
	after := s.m.ReadCounters(t)
	secs := s.m.Eng.Now().Sub(t0).Seconds()
	dc := after.Cycles - before.Cycles
	st := CPUStat{GHz: dc / secs / 1e9}
	if dc > 0 {
		st.IPC = (after.Instructions - before.Instructions) / dc
	}
	return st
}

// L3LatencyNs returns the L3 latency a core observes (Fig. 4 model).
func (s *System) L3LatencyNs(core int) float64 {
	return s.m.L3LatencyNs(soc.CoreID(core))
}

// DRAMLatencyNs returns main-memory latency for the current I/O-die and
// DRAM configuration (Fig. 5b model).
func (s *System) DRAMLatencyNs() float64 { return s.m.DRAMLatencyNs() }

// MemoryTrafficGBs returns the currently-achieved DRAM traffic.
func (s *System) MemoryTrafficGBs() float64 { return s.m.TrafficGBs() }

// Meter is an attached external power analyzer (ZES LMG670 class).
type Meter struct {
	pa  *measure.PowerAnalyzer
	sys *System
}

// AttachMeter connects a reference power analyzer to the system.
func (s *System) AttachMeter() *Meter {
	return &Meter{pa: measure.NewPowerAnalyzer(s.m.Eng, measure.DefaultAnalyzerConfig(), s.m), sys: s}
}

// MeasureWatts runs the system for totalMs and returns the analyzer's
// inner-window average (the paper's 10 s / inner 8 s protocol, scaled).
func (mt *Meter) MeasureWatts(totalMs float64) (float64, error) {
	start := mt.sys.m.Eng.Now()
	total := sim.DurationFromSeconds(totalMs / 1000)
	mt.sys.m.Eng.RunFor(total)
	return mt.pa.InnerAverage(start, total, total*8/10)
}

// PhaseSpec is one step of a dynamic load pattern (see StartPattern).
// An empty Kernel means an idle phase.
type PhaseSpec struct {
	Kernel     string
	Weight     float64
	DurationMs float64
}

// StartPattern cycles the given CPUs through a FIRESTARTER-2-style dynamic
// load pattern (load/idle phases) until the returned stop function is
// called. The pattern exercises C-state entry/exit and EDC convergence
// dynamics.
func (s *System) StartPattern(cpus []int, spec []PhaseSpec) (stop func(), err error) {
	var ph []phases.Phase
	for _, p := range spec {
		d := sim.DurationFromSeconds(p.DurationMs / 1000)
		if p.Kernel == "" {
			ph = append(ph, phases.Idle(d))
			continue
		}
		k, err := workload.ByName(p.Kernel)
		if err != nil {
			return nil, err
		}
		ph = append(ph, phases.Phase{Kernel: k, Weight: p.Weight, Duration: d})
	}
	var threads []soc.ThreadID
	for _, c := range cpus {
		threads = append(threads, soc.ThreadID(c))
	}
	r := &phases.Runner{M: s.m, Threads: threads, Phases: ph}
	return r.Start()
}

// --- Experiment registry pass-through ---

// Options re-exports the experiment effort options. Options.Validate
// rejects the values Options.Normalize would silently coerce (non-positive
// or non-finite scales); API boundaries should validate, internal consumers
// normalize.
type Options = core.Options

// Result re-exports the experiment result type.
type Result = core.Result

// Experiment re-exports the registered experiment descriptor. Every
// experiment is a Plan: its independent units of work — fig7's sweep
// series, fig8's wake-latency matrix cells, the tab1/fig4 frequency grids —
// are shards the scheduler fans across its worker pool. Experiments that
// run as one indivisible simulation are one-shard plans.
type Experiment = core.Experiment

// Shard re-exports one independent unit of work within a sharded
// experiment. Shard seeds are derived from the experiment seed and the
// shard index (sim.DeriveSeed), so results are invariant to worker count
// and shard interleaving.
type Shard = core.Shard

// Reduce re-exports the deterministic combiner of a sharded experiment: it
// sees shard outputs in plan order regardless of completion order.
type Reduce = core.Reduce

// RunConfig re-exports the scheduler execution config: a worker count plus
// an optional external slot gate (Acquire), which services embedding the
// scheduler use to share one executor pool across concurrent runs.
type RunConfig = core.RunConfig

// DefaultOptions returns Scale 1, Seed 1.
func DefaultOptions() Options { return core.DefaultOptions() }

// Experiments lists every registered paper artifact in paper order.
func Experiments() []Experiment { return core.Registry() }

// RunExperiment executes one paper artifact by ID (e.g. "fig3", "tab1") on
// one worker, with the same derived per-experiment seed a full run uses, so
// a lone rerun reproduces that experiment's section of the full suite. For
// many experiments or many configurations, run a Sweep.
func RunExperiment(id string, o Options) (*Result, error) {
	return core.RunOne(id, o)
}

// Progress re-exports the scheduler's event type. Two kinds of event share
// it: shard events (Shard in 1..Shards) as a sharded experiment's units of
// work complete, and experiment-completion events (Shard == 0, i.e.
// ExperimentDone() true) — the events pre-shard consumers were built on.
// Done/Total always count experiments, never shards.
type Progress = core.Progress

// --- Sweeps: the batched (Scale, Seed) configuration grid ---

// Config re-exports one point of a sweep grid — a (Scale, Seed) pair. It
// is the same value type as Options under a name that reads as a grid
// point.
type Config = core.Config

// Sweep re-exports the batched run request: one experiment set (empty IDs
// = the full registry) evaluated at every listed configuration.
type Sweep = core.Sweep

// ConfigResult re-exports one configuration's section of a sweep outcome.
type ConfigResult = core.ConfigResult

// SweepResult re-exports the reduction of a sweep: per-configuration
// result sets in request order, each identical to the standalone
// single-configuration run of that configuration.
type SweepResult = core.SweepResult

// Grid expands the Scales × Seeds cross-product into sweep configurations
// (scales outermost); an empty axis defaults to the single default value.
func Grid(scales []float64, seeds []uint64) []Config { return core.Grid(scales, seeds) }

// RunSweep executes a batched sweep: every (configuration, experiment,
// shard) triple is an independent unit fanned across one worker pool, so
// a multi-configuration sensitivity study saturates the same pool a
// single heavy run does instead of serializing configuration by
// configuration. Batching never changes results — each per-configuration
// section is byte-identical (through the canonical JSON document) to the
// standalone single-configuration run. Failures are partial, like the
// other schedulers: surviving sections come back alongside one joined
// error. This is the entry point the zen2eed daemon serves POST
// /v1/sweeps through.
func RunSweep(sw Sweep, cfg RunConfig, progress func(Progress)) (*SweepResult, error) {
	return core.RunSweep(sw, cfg, progress)
}

// ReduceConfig re-exports the streaming sweep's per-configuration
// callback: i is the configuration's index in the request, cr its results
// in paper order, err the joined failure of its experiments.
type ReduceConfig = core.ReduceConfig

// RunSweepStream executes a sweep exactly as RunSweep does but hands each
// configuration's section to onConfig the moment its last shard finishes
// and releases the scheduler's buffers for it, so memory is proportional
// to the configurations in flight, not the sweep size. onConfig is
// invoked exactly once per configuration, in completion order, serialized,
// on a scheduler worker goroutine — keep it cheap or hand off. RunSweep is
// a collector over this entry point.
func RunSweepStream(sw Sweep, cfg RunConfig, onConfig ReduceConfig, progress func(Progress)) error {
	return core.RunSweepStream(sw, cfg, onConfig, progress)
}

// CanonicalExperimentIDs resolves a requested experiment-ID set to the
// canonical form run documents carry: paper-order IDs for a proper subset
// of the registry, nil when the request covers the full registry.
func CanonicalExperimentIDs(ids []string) ([]string, error) {
	return core.CanonicalIDs(ids)
}
