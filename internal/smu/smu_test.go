package smu

import (
	"math"
	"testing"

	"zen2ee/internal/dvfs"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// fakeSource implements ActivitySource from a kernel + thread count per
// core, using the same current model the machine layer uses:
// I = EDCWeight(threads) × f[GHz] × V(f). It measures every core on each
// Monitor call, and wakes the manager at each change it makes.
type fakeSource struct {
	ctl     *dvfs.Controller
	top     *soc.Topology
	mgr     *Manager
	kernel  workload.Kernel
	threads []int // per core; 0 = idle
	watts   float64
	// read holds each package's last monitor and power answers: the
	// readings of the source's last refresh, as it refreshes on each read.
	read [2]struct {
		mon   Monitor
		watts float64
	}
}

func (s *fakeSource) setKernel(k workload.Kernel) {
	s.kernel = k
	s.mgr.Wake()
}

// setThreads sets a core's active thread count in the source and the
// controller.
func (s *fakeSource) setThreads(core soc.CoreID, n int) {
	s.threads[core] = n
	s.ctl.SetActiveThreads(core, n)
}

func (s *fakeSource) Monitor(pkg soc.PackageID) Monitor {
	var mon Monitor
	for c := range s.top.Cores {
		core := soc.CoreID(c)
		active, amps, eff := s.CoreActivity(core)
		if !active || s.top.PackageOfCore(core) != pkg {
			continue
		}
		mon.ActiveCores++
		mon.Amps += amps
		mon.MaxEffMHz = math.Max(mon.MaxEffMHz, eff)
		mon.MaxUncappedMHz = math.Max(mon.MaxUncappedMHz, s.ctl.UncappedMHz(core))
	}
	s.read[pkg].mon = mon
	return mon
}

// CachedReading returns the package's last monitor and power answers.
func (s *fakeSource) CachedReading(pkg soc.PackageID) (Monitor, float64) {
	return s.read[pkg].mon, s.read[pkg].watts
}

func (s *fakeSource) CoreActivity(core soc.CoreID) (bool, float64, float64) {
	n := s.threads[core]
	if n == 0 {
		return false, 0, 0
	}
	f := s.ctl.EffectiveMHz(core) / 1000
	v := s.ctl.VoltageAt(s.ctl.EffectiveMHz(core))
	return true, s.kernel.EDCWeight(n) * f * v, s.ctl.EffectiveMHz(core)
}

func (s *fakeSource) PackageWatts(pkg soc.PackageID) float64 {
	s.read[pkg].watts = s.watts
	return s.watts
}

func setup(kernel workload.Kernel, threadsPerCore int) (*sim.Engine, *soc.Topology, *dvfs.Controller, *Manager, *fakeSource) {
	eng := sim.NewEngine(42)
	top := soc.New(soc.EPYC7502x2())
	ctl := dvfs.New(eng, top, dvfs.DefaultConfig())
	src := &fakeSource{ctl: ctl, top: top, kernel: kernel, threads: make([]int, top.NumCores())}
	for i := range src.threads {
		src.setThreads(soc.CoreID(i), threadsPerCore)
		ctl.Request(top.Cores[i].Threads[0], 0) // everyone wants 2.5 GHz
	}
	mgr := New(eng, top, DefaultConfig(), ctl, src)
	src.mgr = mgr
	ctl.AfterChange = mgr.Wake
	return eng, top, ctl, mgr, src
}

// meanEffective samples the effective frequency of core 0 every millisecond
// over a window and returns mean and standard deviation in MHz.
func meanEffective(eng *sim.Engine, ctl *dvfs.Controller, window sim.Duration) (float64, float64) {
	var samples []float64
	steps := int(window / sim.Millisecond)
	for i := 0; i < steps; i++ {
		eng.RunFor(sim.Millisecond)
		samples = append(samples, ctl.EffectiveMHz(0))
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	var sq float64
	for _, s := range samples {
		sq += (s - mean) * (s - mean)
	}
	return mean, math.Sqrt(sq / float64(len(samples)))
}

func TestEDCThrottlesFirestarterSMT(t *testing.T) {
	eng, _, ctl, mgr, _ := setup(workload.Firestarter, 2)
	eng.RunFor(sim.Duration(100 * sim.Millisecond)) // converge
	mean, _ := meanEffective(eng, ctl, sim.Duration(500*sim.Millisecond))
	// Paper Fig. 6: ~2.03 GHz with SMT.
	if mean < 2000 || mean > 2060 {
		t.Fatalf("SMT steady state %v MHz, want ~2030", mean)
	}
	if !mgr.Throttling(0) || !mgr.Throttling(1) {
		t.Fatal("EDC manager not throttling under FIRESTARTER")
	}
}

func TestEDCThrottlesFirestarterNoSMT(t *testing.T) {
	eng, _, ctl, _, _ := setup(workload.Firestarter, 1)
	eng.RunFor(sim.Duration(100 * sim.Millisecond))
	mean, sd := meanEffective(eng, ctl, sim.Duration(500*sim.Millisecond))
	// Paper: ~2.10 GHz without SMT, and noticeably more stable than SMT.
	if mean < 2075 || mean > 2135 {
		t.Fatalf("no-SMT steady state %v MHz, want ~2100", mean)
	}
	if sd > 20 {
		t.Fatalf("no-SMT jitter %v MHz too large", sd)
	}
}

func TestSMTRunsSlowerThanNoSMT(t *testing.T) {
	engS, _, ctlS, _, _ := setup(workload.Firestarter, 2)
	engN, _, ctlN, _, _ := setup(workload.Firestarter, 1)
	engS.RunFor(sim.Duration(100 * sim.Millisecond))
	engN.RunFor(sim.Duration(100 * sim.Millisecond))
	mS, _ := meanEffective(engS, ctlS, sim.Duration(300*sim.Millisecond))
	mN, _ := meanEffective(engN, ctlN, sim.Duration(300*sim.Millisecond))
	if mS >= mN {
		t.Fatalf("SMT (%v) should throttle below no-SMT (%v)", mS, mN)
	}
}

func TestLightWorkloadNotThrottled(t *testing.T) {
	eng, _, ctl, mgr, _ := setup(workload.Busywait, 2)
	eng.RunFor(sim.Duration(200 * sim.Millisecond))
	if mgr.Throttling(0) {
		t.Fatal("busywait triggered EDC throttling")
	}
	if f := ctl.EffectiveMHz(0); f != 2500 {
		t.Fatalf("busywait runs at %v, want full 2500", f)
	}
	if mgr.ThrottledTicks(0) != 0 {
		t.Fatal("throttled ticks counted for light workload")
	}
}

func TestCapReleasesWhenLoadStops(t *testing.T) {
	eng, _, _, mgr, src := setup(workload.Firestarter, 2)
	eng.RunFor(sim.Duration(200 * sim.Millisecond))
	if !mgr.Throttling(0) {
		t.Fatal("precondition: not throttling")
	}
	// Stop the workload everywhere.
	for i := range src.threads {
		src.setThreads(soc.CoreID(i), 0)
	}
	eng.RunFor(sim.Duration(5 * sim.Millisecond))
	if mgr.Throttling(0) {
		t.Fatal("cap not released after load stopped")
	}
	if !math.IsInf(mgr.CapMHz(0), 1) {
		t.Fatalf("cap = %v, want +Inf", mgr.CapMHz(0))
	}
}

func TestCapRecoversGraduallyAfterLighterLoad(t *testing.T) {
	eng, _, ctl, mgr, src := setup(workload.Firestarter, 2)
	eng.RunFor(sim.Duration(200 * sim.Millisecond))
	capBefore := mgr.CapMHz(0)
	// Switch to a light kernel: the cap must step back up and release.
	src.setKernel(workload.Busywait)
	eng.RunFor(sim.Duration(30 * sim.Millisecond))
	if mgr.Throttling(0) {
		t.Fatalf("still throttling %v MHz after light load (was %v)", mgr.CapMHz(0), capBefore)
	}
	if f := ctl.EffectiveMHz(0); f != 2500 {
		t.Fatalf("frequency %v after recovery, want 2500", f)
	}
}

func TestPPTEngages(t *testing.T) {
	eng, _, _, mgr, src := setup(workload.Busywait, 2)
	src.watts = 400 // way over the 180 W TDP
	eng.RunFor(sim.Duration(50 * sim.Millisecond))
	if !mgr.Throttling(0) {
		t.Fatal("PPT loop did not engage over TDP")
	}
}

func TestPPTIdleUnderTDP(t *testing.T) {
	// The paper's FIRESTARTER run reports 170 W RAPL against a 180 W TDP:
	// the PPT loop must not engage at 170 W.
	eng, _, _, mgr, src := setup(workload.Busywait, 2)
	src.watts = 170
	eng.RunFor(sim.Duration(50 * sim.Millisecond))
	if mgr.Throttling(0) {
		t.Fatal("PPT engaged below TDP")
	}
}

func TestPackagesControlledIndependently(t *testing.T) {
	eng, top, _, mgr, src := setup(workload.Firestarter, 2)
	// Stop the load on package 1 only.
	for i := range src.threads {
		if top.PackageOfCore(soc.CoreID(i)) == 1 {
			src.setThreads(soc.CoreID(i), 0)
		}
	}
	eng.RunFor(sim.Duration(200 * sim.Millisecond))
	if !mgr.Throttling(0) {
		t.Fatal("package 0 should throttle")
	}
	if mgr.Throttling(1) {
		t.Fatal("package 1 should be idle and unthrottled")
	}
}

func TestStopHaltsLoop(t *testing.T) {
	eng, _, ctl, mgr, _ := setup(workload.Firestarter, 2)
	eng.RunFor(sim.Duration(20 * sim.Millisecond))
	mgr.Stop()
	capAt := mgr.CapMHz(0)
	eng.RunFor(sim.Duration(50 * sim.Millisecond))
	if mgr.CapMHz(0) != capAt {
		t.Fatal("cap moved after Stop")
	}
	_ = ctl
}

func TestThrottleConvergenceSpeed(t *testing.T) {
	// The proportional response drops multiple 25 MHz steps per period
	// while far above the limit: from 2.5 GHz (≈40 % over EDC) the manager
	// must reach the ~2.03 GHz region within ~10 control periods.
	eng, _, ctl, _, _ := setup(workload.Firestarter, 2)
	eng.RunFor(sim.Duration(12 * sim.Millisecond))
	if f := ctl.EffectiveMHz(0); f > 2100 {
		t.Fatalf("not converged after 12 ms: %v MHz", f)
	}
}

func TestProportionalStepBounded(t *testing.T) {
	// Even a grotesque overload must not drop more than 8 steps (200 MHz)
	// per control period.
	eng, _, ctl, _, src := setup(workload.Firestarter, 2)
	src.watts = 10 * DefaultConfig().TDPWatts
	before := ctl.EffectiveMHz(0)
	eng.RunFor(sim.Duration(1 * sim.Millisecond))
	after := ctl.EffectiveMHz(0)
	if before-after > 8*25+1 {
		t.Fatalf("dropped %v MHz in one period, bound is 200", before-after)
	}
}
