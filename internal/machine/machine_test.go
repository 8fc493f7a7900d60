package machine

import (
	"math"
	"testing"

	"zen2ee/internal/cstate"
	"zen2ee/internal/iodie"
	"zen2ee/internal/msr"
	"zen2ee/internal/power"
	"zen2ee/internal/sim"
	"zen2ee/internal/smu"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

func newMachine() *Machine { return New(DefaultConfig()) }

func settle(m *Machine, d sim.Duration) { m.Eng.RunFor(d) }

func TestIdleSystemAtFloor(t *testing.T) {
	m := newMachine()
	settle(m, 100*sim.Millisecond)
	if got := m.SystemWatts(); math.Abs(got-99.1) > 0.01 {
		t.Fatalf("idle system %v W, want 99.1", got)
	}
	if !m.CStates.SystemDeepSleep() {
		t.Fatal("idle system not in deep sleep")
	}
}

func TestOneC1ThreadWakesIODie(t *testing.T) {
	m := newMachine()
	settle(m, 10*sim.Millisecond)
	if err := m.SetCStateEnabled(0, cstate.C2, false); err != nil {
		t.Fatal(err)
	}
	got := m.SystemWatts()
	if math.Abs(got-180.39) > 0.3 {
		t.Fatalf("one C1 thread: %v W, want ~180.3 (Fig. 7)", got)
	}
	// Disabling C2 demotes the already-idle thread; re-enabling it
	// returns the thread to C2 and the system to deep sleep.
	if st := m.CStates.EffectiveState(0); st != cstate.C1 {
		t.Fatalf("thread 0 in %v after disabling C2, want C1", st)
	}
	if err := m.SetCStateEnabled(0, cstate.C2, true); err != nil {
		t.Fatal(err)
	}
	if st := m.CStates.EffectiveState(0); st != cstate.C2 || !m.CStates.SystemDeepSleep() {
		t.Fatalf("thread 0 in %v after re-enabling C2 (deep sleep %v), want C2", st, m.CStates.SystemDeepSleep())
	}
}

func TestFig7Slope(t *testing.T) {
	m := newMachine()
	// Disable C2 on the first-thread of cores 0..9 (package 0).
	for i := 0; i < 10; i++ {
		if err := m.SetCStateEnabled(soc.ThreadID(i), cstate.C2, false); err != nil {
			t.Fatal(err)
		}
	}
	p10 := m.SystemWatts()
	if err := m.SetCStateEnabled(10, cstate.C2, false); err != nil {
		t.Fatal(err)
	}
	if d := m.SystemWatts() - p10; math.Abs(d-0.09) > 0.001 {
		t.Fatalf("per-C1-core slope %v, want 0.09", d)
	}
	// Second hardware threads add nothing in C1 (core already C1).
	before := m.SystemWatts()
	if err := m.SetCStateEnabled(64, cstate.C2, false); err != nil { // sibling of cpu0
		t.Fatal(err)
	}
	if d := m.SystemWatts() - before; math.Abs(d) > 1e-9 {
		t.Fatalf("sibling C1 added %v W, want 0", d)
	}
}

func TestActivePauseThread(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	settle(m, 10*sim.Millisecond)
	if _, err := m.StartKernel(0, workload.Pause, 0); err != nil {
		t.Fatal(err)
	}
	settle(m, 10*sim.Millisecond)
	got := m.SystemWatts()
	if math.Abs(got-180.6) > 0.5 {
		t.Fatalf("one pause thread at 2.5 GHz: %v W, want ~180.4", got)
	}
}

func TestOfflineAnomalyPowerLevel(t *testing.T) {
	// §VI-B: offline threads elevate power to the C1 level despite C2
	// being enabled and used everywhere else.
	m := newMachine()
	settle(m, 10*sim.Millisecond)
	floor := m.SystemWatts()
	if err := m.SetOnline(64, false); err != nil {
		t.Fatal(err)
	}
	settle(m, 10*sim.Millisecond)
	elevated := m.SystemWatts()
	if elevated-floor < 80 {
		t.Fatalf("offline thread raised power by only %v W, want ~81.3", elevated-floor)
	}
	// Re-onlining fixes it.
	if err := m.SetOnline(64, true); err != nil {
		t.Fatal(err)
	}
	settle(m, 10*sim.Millisecond)
	if got := m.SystemWatts(); math.Abs(got-floor) > 0.01 {
		t.Fatalf("power %v after re-online, want %v", got, floor)
	}
}

func TestIdleSiblingElevatesFrequency(t *testing.T) {
	// §V-A: thread 0 works at 1.5 GHz; its idle sibling requests 2.5 GHz
	// and the core follows the sibling.
	m := newMachine()
	if err := m.SetThreadFrequencyMHz(0, 1500); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	settle(m, 20*sim.Millisecond)
	if f := m.EffectiveMHz(0); f != 1500 {
		t.Fatalf("baseline frequency %v, want 1500", f)
	}
	// Sibling (idle!) requests nominal.
	if err := m.SetThreadFrequencyMHz(64, 2500); err != nil {
		t.Fatal(err)
	}
	settle(m, 20*sim.Millisecond)
	if f := m.EffectiveMHz(0); f != 2500 {
		t.Fatalf("idle sibling did not elevate: %v MHz", f)
	}
	// Offlining the sibling leaves the request in force (the paper: "the
	// frequency of the core is defined by the offline thread").
	if err := m.SetOnline(64, false); err != nil {
		t.Fatal(err)
	}
	settle(m, 20*sim.Millisecond)
	if f := m.EffectiveMHz(0); f != 2500 {
		t.Fatalf("offline sibling released the core to %v MHz", f)
	}
	// Setting the offline thread's frequency down frees the core.
	if err := m.SetThreadFrequencyMHz(64, 1500); err != nil {
		t.Fatal(err)
	}
	settle(m, 20*sim.Millisecond)
	if f := m.EffectiveMHz(0); f != 1500 {
		t.Fatalf("core still at %v MHz", f)
	}
}

func TestFirestarterEndToEnd(t *testing.T) {
	// Fig. 6, full stack: EDC throttling to ~2.03 GHz (SMT), ~509 W AC,
	// ~170 W RAPL per package.
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0); err != nil {
			t.Fatal(err)
		}
	}
	settle(m, 200*sim.Millisecond) // converge
	m.Preheat()

	// Sample frequency and power over 1 s.
	var freqs, watts []float64
	for i := 0; i < 100; i++ {
		settle(m, 10*sim.Millisecond)
		freqs = append(freqs, m.EffectiveMHz(0))
		watts = append(watts, m.SystemWatts())
	}
	meanF, meanW := mean(freqs), mean(watts)
	if meanF < 2000 || meanF > 2060 {
		t.Fatalf("FIRESTARTER frequency %v MHz, want ~2030", meanF)
	}
	if math.Abs(meanW-509) > 10 {
		t.Fatalf("FIRESTARTER power %v W, want ~509", meanW)
	}

	// RAPL package reading ~170 W (known to under-report vs 180 W TDP).
	e0 := m.RAPL.PackageEnergyJoules(0)
	t0 := m.Eng.Now()
	settle(m, 1*sim.Second)
	raplW := (m.RAPL.PackageEnergyJoules(0) - e0) / m.Eng.Now().Sub(t0).Seconds()
	if math.Abs(raplW-170) > 8 {
		t.Fatalf("RAPL package %v W, want ~170", raplW)
	}
	if raplW >= 180 {
		t.Fatal("RAPL package reading must stay below the 180 W TDP")
	}
}

func TestFirestarterIPC(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0); err != nil {
			t.Fatal(err)
		}
	}
	settle(m, 200*sim.Millisecond)
	c0 := m.ReadCounters(0)
	c64 := m.ReadCounters(64)
	settle(m, 1*sim.Second)
	c1 := m.ReadCounters(0)
	c65 := m.ReadCounters(64)
	coreInstr := (c1.Instructions - c0.Instructions) + (c65.Instructions - c64.Instructions)
	coreCycles := c1.Cycles - c0.Cycles
	ipc := coreInstr / coreCycles
	if math.Abs(ipc-3.56) > 0.05 {
		t.Fatalf("SMT core IPC %v, want 3.56", ipc)
	}
}

func TestCountersHaltInIdle(t *testing.T) {
	m := newMachine()
	settle(m, 100*sim.Millisecond)
	a := m.ReadCounters(3)
	settle(m, 100*sim.Millisecond)
	b := m.ReadCounters(3)
	if b.Cycles != a.Cycles || b.Aperf != a.Aperf || b.Mperf != a.Mperf {
		t.Fatal("cycles/aperf/mperf advanced in C2")
	}
	if b.TSC <= a.TSC {
		t.Fatal("TSC must always advance")
	}
}

func TestCountersRunWhenActive(t *testing.T) {
	m := newMachine()
	if err := m.SetThreadFrequencyMHz(0, 2200); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	settle(m, 20*sim.Millisecond)
	a := m.ReadCounters(0)
	settle(m, 1*sim.Second)
	b := m.ReadCounters(0)
	ghz := (b.Cycles - a.Cycles) / 1e9
	if math.Abs(ghz-2.2) > 0.01 {
		t.Fatalf("cycle rate %v GHz, want 2.2", ghz)
	}
	mperfGHz := (b.Mperf - a.Mperf) / 1e9
	if math.Abs(mperfGHz-2.5) > 0.01 {
		t.Fatalf("mperf rate %v GHz, want nominal 2.5", mperfGHz)
	}
}

func TestWakeLatencies(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	settle(m, 20*sim.Millisecond)
	// Thread 1 is idle in C2.
	lat := m.WakeLatency(1, false)
	if lat.Micros() < 20 || lat.Micros() > 25 {
		t.Fatalf("C2 wake %v µs, want 20–25", lat.Micros())
	}
	remote := m.WakeLatency(1, true)
	if remote-lat != 1*sim.Microsecond {
		t.Fatalf("remote extra %v", remote-lat)
	}
	// StartKernel returns the same latency and activates the thread.
	got, err := m.StartKernel(1, workload.Busywait, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Micros() < 20 || got.Micros() > 25 {
		t.Fatalf("StartKernel latency %v µs", got.Micros())
	}
	if !m.Running(1) {
		t.Fatal("thread not running after StartKernel")
	}
}

func TestMemoryTrafficCapped(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	// One core streaming: traffic = Fig. 5a single-core value (auto, 1.6).
	if _, err := m.StartKernel(0, workload.StreamTriad, 0); err != nil {
		t.Fatal(err)
	}
	settle(m, 20*sim.Millisecond)
	if got := m.TrafficGBs(); math.Abs(got-26.5) > 0.1 {
		t.Fatalf("1-core stream traffic %v GB/s, want 26.5", got)
	}
	// Four cores on one CCX: 38.8 GB/s.
	for c := 1; c < 4; c++ {
		if _, err := m.StartKernel(soc.ThreadID(c), workload.StreamTriad, 0); err != nil {
			t.Fatal(err)
		}
	}
	settle(m, 20*sim.Millisecond)
	if got := m.TrafficGBs(); math.Abs(got-38.8) > 0.1 {
		t.Fatalf("4-core stream traffic %v GB/s, want 38.8", got)
	}
}

func TestIODSettingAffectsLatencyAndPower(t *testing.T) {
	m := newMachine()
	if err := m.SetCStateEnabled(0, cstate.C2, false); err != nil { // keep I/O awake
		t.Fatal(err)
	}
	m.SetDRAMClock(iodie.DRAM1467)
	m.SetIODSetting(iodie.P0)
	latP0, pwrP0 := m.DRAMLatencyNs(), m.SystemWatts()
	m.SetIODSetting(iodie.Auto)
	latAuto := m.DRAMLatencyNs()
	if latAuto >= latP0 {
		t.Fatalf("auto latency %v not below P0 %v", latAuto, latP0)
	}
	m.SetIODSetting(iodie.P3)
	if got := m.SystemWatts(); got >= pwrP0 {
		t.Fatalf("P3 power %v not below P0 %v", got, pwrP0)
	}
}

func TestL3LatencyFig4(t *testing.T) {
	m := newMachine()
	// Reader at 1.5 GHz, others at 2.5: L3 clock rises, reader's own
	// effective frequency drops to ~1.428 GHz.
	if err := m.SetThreadFrequencyMHz(0, 1500); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartKernel(0, workload.PointerChase, 0); err != nil {
		t.Fatal(err)
	}
	for c := 1; c < 4; c++ {
		th := soc.ThreadID(c)
		if err := m.SetThreadFrequencyMHz(th, 2500); err != nil {
			t.Fatal(err)
		}
		if _, err := m.StartKernel(th, workload.Busywait, 0); err != nil {
			t.Fatal(err)
		}
	}
	settle(m, 50*sim.Millisecond)
	got := m.L3LatencyNs(0)
	if math.Abs(got-21.2) > 0.5 {
		t.Fatalf("L3 latency %v ns, want ~21.2 (Fig. 4)", got)
	}
}

func TestOfflineThreadCannotRun(t *testing.T) {
	m := newMachine()
	if err := m.SetOnline(64, false); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartKernel(64, workload.Busywait, 0); err == nil {
		t.Fatal("offline thread accepted a kernel")
	}
}

func TestEnergyMonotone(t *testing.T) {
	m := newMachine()
	var last float64
	for i := 0; i < 20; i++ {
		settle(m, 50*sim.Millisecond)
		e := m.EnergyJoules(m.Eng.Now())
		if e < last {
			t.Fatal("AC energy decreased")
		}
		last = e
	}
	if last < 99.0 {
		t.Fatalf("1 s idle energy %v J, want ≥ 99", last)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		m := newMachine()
		m.SetAllFrequenciesMHz(2500)
		for th := 0; th < 16; th++ {
			m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0)
		}
		settle(m, 300*sim.Millisecond)
		return m.EnergyJoules(m.Eng.Now())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed, different energies: %v vs %v", a, b)
	}
}

func TestMSRRoundTripThroughMachine(t *testing.T) {
	m := newMachine()
	// Command P-state 0 via MSR on cpu 3, observe PStateStat.
	if err := m.Regs.Write(3, msr.PStateCtl, 0); err != nil {
		t.Fatal(err)
	}
	settle(m, 10*sim.Millisecond)
	st, err := m.Regs.Read(3, msr.PStateStat)
	if err != nil {
		t.Fatal(err)
	}
	if st != 0 {
		t.Fatalf("PStateStat %d", st)
	}
	// RAPL MSR is readable and in units of 2^-16 J.
	if _, err := m.Regs.Read(0, msr.PkgEnergyStat); err != nil {
		t.Fatal(err)
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// TestEffectiveMHzSeesPendingMutation reads a core's effective clock right
// after a CCX sibling starts work, before the refresh that mutation queued
// has run: the answer must already carry the Table I coupling penalty, not
// the value the last refresh cached.
func TestEffectiveMHzSeesPendingMutation(t *testing.T) {
	m := newMachine()
	sibling := m.Top.CCXs[m.Top.Cores[0].CCX].Cores[1]
	other := m.Top.Cores[sibling].Threads[0]
	if err := m.SetThreadFrequencyMHz(other, 2500); err != nil {
		t.Fatal(err)
	}
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	settle(m, 10*sim.Millisecond)
	if got := m.EffectiveMHz(0); got != 1500 {
		t.Fatalf("alone in its CCX: %v MHz, want 1500", got)
	}
	if _, err := m.StartKernel(other, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	want := m.DVFS.EffectiveMHz(0)
	if want >= 1500 {
		t.Fatalf("a 2.5 GHz sibling leaves core 0 at %v MHz, want a coupling penalty", want)
	}
	if got := m.EffectiveMHz(0); got != want {
		t.Fatalf("before the refresh: %v MHz, want %v", got, want)
	}
	m.flush()
	if got := m.EffectiveMHz(0); got != want {
		t.Fatalf("after the refresh: %v MHz, want %v", got, want)
	}
}

// keyOf returns core c's class key, as a refresh would key it now.
func keyOf(m *Machine, c int) coreKey {
	var key coreKey
	m.coreKey(&key, soc.CoreID(c), m.DVFS.CCXUncappedPeakMHz(m.Top.Cores[c].CCX))
	return key
}

// distinctKeys counts the distinct pairs of class key and SMU cap among
// all cores.
func distinctKeys(m *Machine) int {
	type capKey struct {
		key    coreKey
		capMHz float64
	}
	seen := map[capKey]bool{}
	for c := range m.Top.Cores {
		seen[capKey{keyOf(m, c), m.DVFS.CapMHz(m.Top.PackageOfCore(soc.CoreID(c)))}] = true
	}
	return len(seen)
}

// TestRefreshStatsDeriveOncePerClass loads every thread with FIRESTARTER
// under EDC throttling, where the SMU moves a package-wide cap on almost
// every tick and dirties every core of the package: each refresh derives
// at most one core per distinct class key and shares the rest.
func TestRefreshStatsDeriveOncePerClass(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(300 * sim.Millisecond)
	if !m.SMU.Throttling(0) {
		t.Fatal("FIRESTARTER load is not EDC-throttled")
	}
	var derived, shared uint64
	for i := 0; i < 50; i++ {
		before := m.RefreshStats()
		m.Eng.RunFor(sim.Millisecond)
		d := m.RefreshStats()
		refreshes := d.Refreshes - before.Refreshes
		if n, limit := d.Derived-before.Derived, refreshes*uint64(distinctKeys(m)); n > limit {
			t.Fatalf("ms %d: %d refreshes derived %d cores, want at most %d (one per distinct key)", i, refreshes, n, limit)
		}
		derived += d.Derived - before.Derived
		shared += d.Shared - before.Shared
	}
	if shared < 10*derived {
		t.Fatalf("derived %d cores and shared %d: want most dirty cores shared", derived, shared)
	}
}

// TestRefreshStatsMixedCCXSharesNothing runs four different kernels on the
// four cores of one CCX. Each change to the CCX dirties all four, and no
// two of them can share a derivation.
func TestRefreshStatsMixedCCXSharesNothing(t *testing.T) {
	m := newMachine()
	kernels := []workload.Kernel{workload.Busywait, workload.Compute, workload.VXorps, workload.MemoryRead}
	ccx := m.Top.CCXs[0].Cores
	for i, c := range ccx {
		if _, err := m.StartKernel(m.Top.Cores[c].Threads[0], kernels[i], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(10 * sim.Millisecond)
	before := m.RefreshStats()
	const changes = 20
	for i := 0; i < changes; i++ {
		m.SetHammingWeight(m.Top.Cores[ccx[0]].Threads[0], float64(i%2))
		m.SystemWatts()
	}
	d := m.RefreshStats()
	if d.Shared != before.Shared || d.Derived-before.Derived != changes*uint64(len(ccx)) || d.Refreshes-before.Refreshes != changes {
		t.Fatalf("refresh stats went from %+v to %+v: want %d refreshes deriving %d cores each, none shared",
			before, d, changes, len(ccx))
	}
}

// TestIODConfigChecked: the I/O-die configuration is validated wherever it
// enters the machine. At a zero DRAM clock Auto FCLK would follow the clock
// down to 0, and power and latency would read wrong without an error.
func TestIODConfigChecked(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IOD.MemClkMHz = 0
	func() {
		defer func() {
			if recover() == nil {
				t.Error("New accepted a zero DRAM clock")
			}
		}()
		New(cfg)
	}()

	m := newMachine()
	if _, err := m.StartKernel(0, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
	lat, watts := m.DRAMLatencyNs(), m.SystemWatts()
	for _, mhz := range []int{0, -1600} {
		if err := m.SetDRAMClock(mhz); err == nil {
			t.Errorf("SetDRAMClock(%d) accepted", mhz)
		}
	}
	if err := m.SetIODSetting(iodie.P3 + 1); err == nil {
		t.Error("SetIODSetting accepted a setting past P3")
	}
	if got := m.DRAMLatencyNs(); got != lat {
		t.Errorf("rejected changes moved DRAM latency %v → %v ns", lat, got)
	}
	if got := m.SystemWatts(); got != watts {
		t.Errorf("rejected changes moved system power %v → %v W", watts, got)
	}
	if err := m.SetDRAMClock(iodie.DRAM1467); err != nil {
		t.Fatal(err)
	}
}

// TestClassRefreshSplitsOnlyOnRead holds a FIRESTARTER-loaded machine at
// the EDC limit, where every SMU cap step refreshes a whole package as one
// class. The class owner's counters and core domain serve its members, so
// 100 ms without reads copy nothing; then reading one member's counters,
// and one member's core domain, copies exactly that core's.
func TestClassRefreshSplitsOnlyOnRead(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(300 * sim.Millisecond)
	if !m.SMU.Throttling(0) {
		t.Fatal("FIRESTARTER load is not EDC-throttled")
	}
	before := m.RefreshStats()
	m.Eng.RunFor(100 * sim.Millisecond)
	d := m.RefreshStats()
	if d.Splits != before.Splits || d.Shared == before.Shared {
		t.Fatalf("refresh stats went from %+v to %+v: want cores shared and none split", before, d)
	}
	// Core 0 owns package 0's class, so core 1 follows it.
	if !m.classes.Follows(1) || m.classes.Owner(1) != 0 {
		t.Fatalf("core 1 follows core %d, want core 0", m.classes.Owner(1))
	}
	m.ReadCounters(m.Top.Cores[1].Threads[1])
	if n := m.RefreshStats().Splits - d.Splits; n != 1 || m.classes.Follows(1) {
		t.Fatalf("reading a member's counters split %d cores, want core 1 alone", n)
	}
	d = m.RefreshStats()
	m.RAPL.CoreEnergyJoules(2)
	if n := m.RefreshStats().Splits - d.Splits; n != 1 {
		t.Fatalf("reading a member's core domain split %d cores, want 1", n)
	}
}

// TestStartKernelValidates: a kernel that fails workload.Kernel.Validate
// (here SMT lowering the combined IPC) is rejected, and the thread stays
// idle in its C-state.
func TestStartKernelValidates(t *testing.T) {
	m := newMachine()
	m.Eng.RunFor(sim.Millisecond)
	k := workload.Busywait
	k.Name = "bad"
	k.IPC2 = k.IPC1 / 2
	state, watts := m.CStates.EffectiveState(3), m.SystemWatts()
	if _, err := m.StartKernel(3, k, 0); err == nil {
		t.Fatal("StartKernel accepted a kernel with IPC2 < IPC1")
	}
	if m.Running(3) || m.CStates.EffectiveState(3) != state || m.SystemWatts() != watts {
		t.Fatalf("rejected kernel changed thread 3: running %v, state %v (was %v), %v W (was %v)",
			m.Running(3), m.CStates.EffectiveState(3), state, m.SystemWatts(), watts)
	}
	if _, err := m.StartKernel(3, workload.Busywait, 0); err != nil {
		t.Fatal(err)
	}
}

// TestCapStepDerivesOncePerClass mixes P-states, kernels and idle cores
// in package 0, so that under a 2 GHz cap the cores at 2.5 and 2.2 GHz
// would share an applied-clock key but hold different uncapped ones. Once
// a cap step has keyed the whole package, a second cap step alone keeps
// its classes: it derives once per class of active cores, shares the
// rest, keys nothing, and every core matches a from-scratch derivation.
func TestCapStepDerivesOncePerClass(t *testing.T) {
	m := newMachine()
	m.SMU.Stop()
	kernels := []workload.Kernel{workload.Firestarter, workload.VXorps, workload.Busywait}
	cpp := m.coresPerPackage
	for c := 0; c < cpp; c++ {
		th := m.Top.Cores[c].Threads[0]
		mhz := 2500
		if c/3%2 == 1 {
			mhz = 2200
		}
		if err := m.SetThreadFrequencyMHz(th, mhz); err != nil {
			t.Fatal(err)
		}
		if c%7 == 6 {
			continue // idle
		}
		if _, err := m.StartKernel(th, kernels[c/8%len(kernels)], 0.5); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(20 * sim.Millisecond)
	m.DVFS.SetCapMHz(0, 2000)
	m.flush()
	if !m.pkgs[0].whole {
		t.Fatal("a cap step after other changes left package 0's classes unkeyed")
	}

	// Count package 0's classes of active cores: runs of equal keys, as
	// the keyed refresh formed them, and the same under the applied-clock
	// key (applied clock and CCX peak) that a cap would not split.
	classes, applied := 0, 0
	var prev, prevApplied coreKey
	for c := 0; c < cpp; c++ {
		k := keyOf(m, c)
		appliedKey := k
		if k.uncMHz != 0 {
			appliedKey.uncMHz = m.DVFS.AppliedMHz(soc.CoreID(c))
			appliedKey.peakMHz = m.DVFS.CCXPeakMHz(m.Top.Cores[c].CCX)
		}
		if k.uncMHz != 0 && (c == 0 || !k.eq(&prev)) {
			classes++
		}
		if k.uncMHz != 0 && (c == 0 || !appliedKey.eq(&prevApplied)) {
			applied++
		}
		prev, prevApplied = k, appliedKey
	}
	if classes == applied {
		t.Fatalf("package 0 holds %d classes under either key; the mix must tell them apart", classes)
	}

	before := m.RefreshStats()
	m.DVFS.SetCapMHz(0, 1900)
	m.flush()
	d := m.RefreshStats()
	active := 0
	for c := 0; c < cpp; c++ {
		if m.inputsBuf[c].ActiveThreads > 0 {
			active++
		}
	}
	if d.Refreshes-before.Refreshes != 1 || d.Derived-before.Derived != uint64(classes) ||
		d.Shared-before.Shared != uint64(active-classes) || d.Splits != before.Splits {
		t.Fatalf("a cap step went from %+v to %+v: want 1 refresh deriving %d classes and sharing %d cores",
			before, d, classes, active-classes)
	}
	if err := checkDerived(m); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cpp; c++ {
		if f := m.EffectiveMHz(soc.CoreID(c)); m.inputsBuf[c].ActiveThreads > 0 && f > 1900 {
			t.Fatalf("core %d runs at %v MHz under a 1900 MHz cap", c, f)
		}
	}
}

// freshMonitor recomputes package p's SMU monitor from scratch, deriving
// each core anew in core order.
func freshMonitor(m *Machine, p soc.PackageID) smu.Monitor {
	var mon smu.Monitor
	for c := range m.Top.Cores {
		core := soc.CoreID(c)
		if m.Top.PackageOfCore(core) != p {
			continue
		}
		var ci power.CoreInput
		_, eff, _, amps := m.deriveCore(core, m.DVFS.EffectiveMHz(core), m.RAPL.Config(), &ci)
		if ci.ActiveThreads == 0 {
			continue
		}
		mon.ActiveCores++
		mon.Amps += amps
		mon.MaxEffMHz = math.Max(mon.MaxEffMHz, eff)
		mon.MaxUncappedMHz = math.Max(mon.MaxUncappedMHz, m.DVFS.UncappedMHz(core))
	}
	return mon
}

// TestRefreshMonitorMatchesFresh runs FIRESTARTER with SMT into the EDC
// limit and then drops the load: package 0 loses SMT and package 1 idles
// half its cores. At every millisecond, the monitor each refresh keeps
// must equal a per-core recomputation from scratch, bit for bit, while
// the EDC manager steps both packages' caps.
func TestRefreshMonitorMatchesFresh(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0); err != nil {
			t.Fatal(err)
		}
	}
	src := (*activitySource)(m)
	sample := func(ms int) {
		t.Helper()
		for i := 0; i < ms; i++ {
			m.Eng.RunFor(sim.Millisecond)
			for p := range m.Top.Packages {
				pkg := soc.PackageID(p)
				got, want := src.Monitor(pkg), freshMonitor(m, pkg)
				if got.ActiveCores != want.ActiveCores || math.Float64bits(got.Amps) != math.Float64bits(want.Amps) ||
					math.Float64bits(got.MaxEffMHz) != math.Float64bits(want.MaxEffMHz) ||
					math.Float64bits(got.MaxUncappedMHz) != math.Float64bits(want.MaxUncappedMHz) {
					t.Fatalf("package %d at %v: monitor %+v, fresh %+v", p, m.Eng.Now(), got, want)
				}
			}
		}
	}
	sample(300)
	if !m.SMU.Throttling(0) || !m.SMU.Throttling(1) {
		t.Fatal("FIRESTARTER load is not EDC-throttled")
	}
	caps := [2]float64{m.SMU.CapMHz(0), m.SMU.CapMHz(1)}
	for c := range m.Top.Cores {
		core := soc.CoreID(c)
		switch {
		case m.Top.PackageOfCore(core) == 0:
			m.StopKernel(m.Top.Cores[c].Threads[1])
		case c%2 == 0:
			m.StopKernel(m.Top.Cores[c].Threads[0])
			m.StopKernel(m.Top.Cores[c].Threads[1])
		}
	}
	sample(100)
	if m.SMU.CapMHz(0) == caps[0] || m.SMU.CapMHz(1) == caps[1] {
		t.Fatalf("caps %v before and %v, %v after the load drop: want both moved", caps, m.SMU.CapMHz(0), m.SMU.CapMHz(1))
	}
}

// TestSteadyLoadSkipsMonitor: under steady unthrottled load nothing the
// monitor reads changes, so after warm-up no refresh runs and no monitor
// is recomputed, however often the SMU reads it.
func TestSteadyLoadSkipsMonitor(t *testing.T) {
	m := newMachine()
	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Busywait, 0); err != nil {
			t.Fatal(err)
		}
	}
	m.Eng.RunFor(20 * sim.Millisecond) // P-state transitions settle
	before := m.RefreshStats()
	m.Eng.RunFor(200 * sim.Millisecond)
	if m.SMU.Throttling(0) || m.SMU.Throttling(1) {
		t.Fatal("precondition: busywait must not throttle")
	}
	if d := m.RefreshStats(); d.Monitors != before.Monitors || d.Refreshes != before.Refreshes {
		t.Fatalf("refresh stats went from %+v to %+v over 200 ms of steady load: want no refresh and no monitor", before, d)
	}
}

// TestQuietTicksDrawNoTransform checks that the SMU computes a noise
// variate only where the noise can move a cap: an idle machine and an
// uncapped busy-wait load compute none, and a throttled FIRESTARTER load
// computes one per package control step.
func TestQuietTicksDrawNoTransform(t *testing.T) {
	load := func(mhz int, k workload.Kernel) *Machine {
		m := newMachine()
		if err := m.SetAllFrequenciesMHz(mhz); err != nil {
			t.Fatal(err)
		}
		for th := 0; th < m.Top.NumThreads(); th++ {
			if _, err := m.StartKernel(soc.ThreadID(th), k, 0); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	// transforms runs m for 100 ms and returns the SMU's control steps and
	// transforms in that time.
	transforms := func(m *Machine) (ticks, transforms uint64) {
		before := m.SMU.Stats()
		m.Eng.RunFor(100 * sim.Millisecond)
		after := m.SMU.Stats()
		return after.Ticks - before.Ticks, after.Transforms - before.Transforms
	}
	idle := newMachine()
	packages := uint64(len(idle.Top.Packages))
	if ticks, n := transforms(idle); ticks != 100*packages || n != 0 {
		t.Fatalf("idle machine: %d transforms in %d control steps, want 0 in %d", n, ticks, 100*packages)
	}

	busy := load(1500, workload.Busywait)
	busy.Eng.RunFor(20 * sim.Millisecond) // P-state transitions settle
	if ticks, n := transforms(busy); n != 0 || ticks != 100*packages {
		t.Fatalf("uncapped busy-wait: %d transforms in %d control steps, want 0 in %d", n, ticks, 100*packages)
	}
	if busy.SMU.Throttling(0) || busy.SMU.Throttling(1) {
		t.Fatal("precondition: busy-wait at 1500 MHz must not throttle")
	}

	fs := load(2500, workload.Firestarter)
	fs.Eng.RunFor(300 * sim.Millisecond)
	if ticks, n := transforms(fs); n != ticks || ticks != 100*packages {
		t.Fatalf("throttled FIRESTARTER: %d transforms in %d control steps, want one per step", n, ticks)
	}
	if !fs.SMU.Throttling(0) || !fs.SMU.Throttling(1) {
		t.Fatal("precondition: FIRESTARTER must hold both packages throttled")
	}
}

// TestIdleMachineParksSMU checks that an idle machine runs almost no SMU
// tick events: with the RAPL noise step (its only other event) stopped, a
// simulated second executes at most 2 engine events, while the SMU still
// counts a control step per package and millisecond, each one emulated.
// A load started on the parked machine wakes the SMU, which throttles it.
func TestIdleMachineParksSMU(t *testing.T) {
	m := newMachine()
	m.RAPL.Stop()
	m.Eng.RunFor(10 * sim.Millisecond)
	packages := uint64(len(m.Top.Packages))
	before, ran := m.SMU.Stats(), m.Eng.Executed()
	m.Eng.RunFor(sim.Second)
	after, events := m.SMU.Stats(), m.Eng.Executed()-ran
	if events > 2 {
		t.Fatalf("idle machine ran %d engine events in a simulated second, want at most 2", events)
	}
	if ticks, parked := after.Ticks-before.Ticks, after.Parked-before.Parked; ticks != 1000*packages || parked != (1000-events)*packages {
		t.Fatalf("idle second: %d control steps, %d of them parked, after %d real ticks; want %d and %d",
			ticks, parked, events, 1000*packages, (1000-events)*packages)
	}

	if err := m.SetAllFrequenciesMHz(2500); err != nil {
		t.Fatal(err)
	}
	for th := 0; th < m.Top.NumThreads(); th++ {
		if _, err := m.StartKernel(soc.ThreadID(th), workload.Firestarter, 0); err != nil {
			t.Fatal(err)
		}
	}
	before = m.SMU.Stats()
	m.Eng.RunFor(300 * sim.Millisecond)
	if !m.SMU.Throttling(0) || !m.SMU.Throttling(1) {
		t.Fatal("FIRESTARTER started on a parked SMU must throttle both packages")
	}
	if after := m.SMU.Stats(); after.Ticks-before.Ticks != 300*packages || after.Transforms == before.Transforms {
		t.Fatalf("stats went from %+v to %+v over 300 ms of FIRESTARTER: want %d steps and some transforms",
			before, after, 300*packages)
	}
}
