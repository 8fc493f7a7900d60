package cstate

import (
	"math"
	"testing"

	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
)

func newModel() (*sim.Engine, *soc.Topology, *Model) {
	eng := sim.NewEngine(1)
	top := soc.New(soc.EPYC7502x2())
	return eng, top, New(eng, top, DefaultConfig())
}

func TestInitialAllActive(t *testing.T) {
	_, top, m := newModel()
	for i := 0; i < top.NumThreads(); i++ {
		if s := m.EffectiveState(soc.ThreadID(i)); s != C0 {
			t.Fatalf("thread %d starts in %v", i, s)
		}
	}
	if m.SystemDeepSleep() {
		t.Fatal("deep sleep with all threads active")
	}
}

func TestEnterIdleAndWake(t *testing.T) {
	_, _, m := newModel()
	m.EnterIdle(5, C2)
	if s := m.EffectiveState(5); s != C2 {
		t.Fatalf("state %v, want C2", s)
	}
	lat := m.Wake(5, 2500, false)
	if s := m.EffectiveState(5); s != C0 {
		t.Fatalf("state after wake %v", s)
	}
	if lat < 20*sim.Microsecond || lat > 25*sim.Microsecond {
		t.Fatalf("C2 wake latency %v outside paper's 20–25 µs", lat)
	}
}

func TestC1LatencyFrequencyDependence(t *testing.T) {
	_, _, m := newModel()
	// Paper Fig. 8a: ~1 µs at 2.2/2.5 GHz, 1.5 µs at 1.5 GHz.
	cases := []struct {
		mhz  float64
		want float64 // µs
		tol  float64
	}{
		{2500, 0.9, 0.2},
		{2200, 1.02, 0.15},
		{1500, 1.5, 0.1},
	}
	for _, c := range cases {
		got := m.WakeLatency(C1, c.mhz, false).Micros()
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("C1 wake @%v MHz = %v µs, want %v±%v", c.mhz, got, c.want, c.tol)
		}
	}
}

func TestC2LatencyRange(t *testing.T) {
	_, _, m := newModel()
	for _, mhz := range []float64{1500, 2200, 2500} {
		got := m.WakeLatency(C2, mhz, false).Micros()
		if got < 20 || got > 25 {
			t.Errorf("C2 wake @%v MHz = %v µs, outside 20–25", mhz, got)
		}
	}
	// Must be far below the ACPI-reported 400 µs.
	acpi := m.ACPITable()[2].Latency.Micros()
	if acpi != 400 {
		t.Fatalf("ACPI C2 latency = %v µs, want 400", acpi)
	}
}

func TestRemoteWakeExtra(t *testing.T) {
	_, _, m := newModel()
	local := m.WakeLatency(C2, 2500, false)
	remote := m.WakeLatency(C2, 2500, true)
	if remote-local != 1*sim.Microsecond {
		t.Fatalf("remote extra = %v, want 1 µs", remote-local)
	}
	if m.WakeLatency(C0, 2500, true) != 0 {
		t.Fatal("waking an active thread should be free")
	}
}

func TestACPIPowerValuesAreUseless(t *testing.T) {
	_, _, m := newModel()
	tab := m.ACPITable()
	if tab[0].PowerMilliwatts != math.MaxUint32 {
		t.Fatalf("C0 reported power = %d, want UINT_MAX", tab[0].PowerMilliwatts)
	}
	for _, e := range tab[1:] {
		if e.PowerMilliwatts != 0 {
			t.Fatalf("%v reported power = %d, want 0", e.State, e.PowerMilliwatts)
		}
	}
	if tab[1].Entry != "mwait" || tab[2].Entry != "ioport" {
		t.Fatalf("entry mechanisms: %q/%q", tab[1].Entry, tab[2].Entry)
	}
}

func TestSystemDeepSleepCriterion(t *testing.T) {
	_, top, m := newModel()
	for i := 0; i < top.NumThreads(); i++ {
		m.EnterIdle(soc.ThreadID(i), C2)
	}
	if !m.SystemDeepSleep() {
		t.Fatal("all threads in C2 but no deep sleep")
	}
	// A single C1 thread anywhere breaks it (both-package criterion).
	m.EnterIdle(100, C1) // thread on package 1
	if m.SystemDeepSleep() {
		t.Fatal("deep sleep with a C1 thread on package 1")
	}
	m.EnterIdle(100, C2)
	if !m.SystemDeepSleep() {
		t.Fatal("deep sleep not restored")
	}
	// A single active thread breaks it too.
	m.Wake(0, 1500, false)
	if m.SystemDeepSleep() {
		t.Fatal("deep sleep with an active thread")
	}
}

func TestDisableC2FallsBackToC1(t *testing.T) {
	_, _, m := newModel()
	if err := m.SetEnabled(3, C2, false); err != nil {
		t.Fatal(err)
	}
	m.EnterIdle(3, C2)
	if s := m.EffectiveState(3); s != C1 {
		t.Fatalf("disabled C2 still granted: %v", s)
	}
	if d := m.DeepestEnabled(3); d != C1 {
		t.Fatalf("deepest enabled = %v", d)
	}
	if err := m.SetEnabled(3, C2, true); err != nil {
		t.Fatal(err)
	}
	m.EnterIdle(3, C2)
	if s := m.EffectiveState(3); s != C2 {
		t.Fatalf("re-enabled C2 not granted: %v", s)
	}
}

func TestDisableC0Rejected(t *testing.T) {
	_, _, m := newModel()
	if err := m.SetEnabled(0, C0, false); err == nil {
		t.Fatal("disabling C0 should fail")
	}
	if err := m.SetEnabled(0, State(9), false); err == nil {
		t.Fatal("unknown state should fail")
	}
}

func TestOfflineAnomalyBlocksDeepSleep(t *testing.T) {
	_, top, m := newModel()
	for i := 0; i < top.NumThreads(); i++ {
		m.EnterIdle(soc.ThreadID(i), C2)
	}
	if !m.SystemDeepSleep() {
		t.Fatal("precondition failed")
	}
	// Take a sibling offline: §VI-B — power rises to the C1 level because
	// the offline thread is elevated to C1.
	if err := m.SetOnline(64, false); err != nil {
		t.Fatal(err)
	}
	if s := m.EffectiveState(64); s != C1 {
		t.Fatalf("offline thread state %v, want C1 (anomaly)", s)
	}
	if m.SystemDeepSleep() {
		t.Fatal("deep sleep despite offline-elevated thread")
	}
	// Only explicit re-onlining fixes it.
	if err := m.SetOnline(64, true); err != nil {
		t.Fatal(err)
	}
	// The thread resumes its previously-requested C2.
	if s := m.EffectiveState(64); s != C2 {
		t.Fatalf("re-onlined thread state %v, want C2", s)
	}
	if !m.SystemDeepSleep() {
		t.Fatal("deep sleep not restored after re-onlining")
	}
}

func TestOfflineAnomalyDisabled(t *testing.T) {
	eng := sim.NewEngine(1)
	top := soc.New(soc.EPYC7502x2())
	cfg := DefaultConfig()
	cfg.OfflineElevatesToC1 = false
	m := New(eng, top, cfg)
	for i := 0; i < top.NumThreads(); i++ {
		m.EnterIdle(soc.ThreadID(i), C2)
	}
	if err := m.SetOnline(64, false); err != nil {
		t.Fatal(err)
	}
	if !m.SystemDeepSleep() {
		t.Fatal("with the anomaly ablated, offline threads must not block deep sleep")
	}
}

func TestCoreStateIsShallowest(t *testing.T) {
	_, top, m := newModel()
	m.EnterIdle(0, C2)
	// Sibling still active: core stays in C0.
	if s := m.CoreState(0); s != C0 {
		t.Fatalf("core state %v with one active thread", s)
	}
	m.EnterIdle(top.Sibling(0), C1)
	if s := m.CoreState(0); s != C1 {
		t.Fatalf("core state %v, want C1 (shallower of C1/C2)", s)
	}
	m.EnterIdle(top.Sibling(0), C2)
	if s := m.CoreState(0); s != C2 {
		t.Fatalf("core state %v, want C2", s)
	}
}

func TestActiveThreadsPerCore(t *testing.T) {
	_, top, m := newModel()
	if n := m.ActiveThreads(0); n != 2 {
		t.Fatalf("initial active = %d", n)
	}
	m.EnterIdle(top.Cores[0].Threads[1], C2)
	if n := m.ActiveThreads(0); n != 1 {
		t.Fatalf("active after one idle = %d", n)
	}
}

// TestBeforeAfterHooks pins when AfterChange runs: once per state change,
// never for a request that changes nothing.
func TestBeforeAfterHooks(t *testing.T) {
	_, _, m := newModel()
	after := 0
	m.AfterChange = func() { after++ }
	m.EnterIdle(0, C1)
	m.Wake(0, 2000, false)
	if after != 2 {
		t.Fatalf("AfterChange ran %d times, want 2", after)
	}
	// Idempotent requests do not trigger hooks.
	m.Wake(0, 2000, false)
	if after != 2 {
		t.Fatal("no-op wake triggered hooks")
	}
}

func TestWakeLatencyAtFloorFrequency(t *testing.T) {
	_, _, m := newModel()
	// Zero/negative frequency falls back to the 400 MHz floor rather than
	// dividing by zero.
	if d := m.WakeLatency(C1, 0, false); d <= 0 {
		t.Fatalf("latency at floor = %v", d)
	}
}

// TestOnCoreActiveCallback follows one core's kept C0 count (what the
// DVFS controller reads in place; it was once pushed to an OnCoreActive
// hook): 2 → 1 → 0 as its threads idle, back up on a wake.
func TestOnCoreActiveCallback(t *testing.T) {
	_, top, m := newModel()
	m.EnterIdle(0, C2)
	if n := m.ActiveThreads(0); n != 1 {
		t.Fatalf("core 0 has %d threads in C0, want 1", n)
	}
	m.EnterIdle(top.Sibling(0), C2)
	if n := m.ActiveThreads(0); n != 0 {
		t.Fatalf("core 0 has %d threads in C0, want 0", n)
	}
	m.Wake(0, 2500, false)
	if n := m.ActiveThreads(0); n != 1 {
		t.Fatalf("core 0 has %d threads in C0 after wake, want 1", n)
	}
}

// TestOnCoreActiveNotifications pins which kept per-core C0 counts a
// mutation changes: only the mutated thread's core's, and only when its
// thread enters or leaves C0. A C1 to C2 move and disabling C2 on a
// running thread change nothing; an idle with C2 disabled is capped at C1,
// out of C0; an online change is a mutation of its thread.
func TestOnCoreActiveNotifications(t *testing.T) {
	_, top, m := newModel()
	counts := func() []int {
		n := make([]int, len(top.Cores))
		for c := range n {
			n[c] = m.ActiveThreads(soc.CoreID(c))
		}
		return n
	}
	prev := counts()
	// expect checks the counts against the last ones with the given
	// core → count changes applied.
	expect := func(what string, changes map[soc.CoreID]int) {
		t.Helper()
		got := counts()
		for c := range got {
			want, moved := changes[soc.CoreID(c)]
			if !moved {
				want = prev[c]
			}
			if got[c] != want {
				t.Fatalf("%s: core %d has %d threads in C0, want %d", what, c, got[c], want)
			}
		}
		prev = got
	}
	c3 := top.Cores[3].Threads
	m.EnterIdle(c3[0], C1)
	expect("first thread idles", map[soc.CoreID]int{3: 1})
	m.EnterIdle(c3[0], C2)
	expect("C1 to C2", nil)
	if err := m.SetEnabled(c3[1], C2, false); err != nil {
		t.Fatal(err)
	}
	expect("disabling C2 on a C0 thread", nil)
	m.EnterIdle(c3[1], C2)
	if s := m.EffectiveState(c3[1]); s != C1 {
		t.Fatalf("idle with C2 disabled: %v, want C1", s)
	}
	expect("second thread idles (capped at C1)", map[soc.CoreID]int{3: 0})
	m.Wake(c3[1], 2500, false)
	expect("wake", map[soc.CoreID]int{3: 1})

	// Offlining a running thread takes it out of its own core's count,
	// and only that; re-onlining puts it back.
	hi, lo := top.Cores[9].Threads[1], top.Cores[5].Threads[1]
	setOnline := func(th soc.ThreadID, online bool) {
		t.Helper()
		if err := m.SetOnline(th, online); err != nil {
			t.Fatal(err)
		}
	}
	setOnline(hi, false)
	expect("offline core 9's sibling", map[soc.CoreID]int{9: 1})
	setOnline(lo, false)
	expect("offline core 5's sibling", map[soc.CoreID]int{5: 1})
	setOnline(lo, false)
	expect("repeated offline", nil)
	setOnline(hi, true)
	expect("re-online core 9's sibling", map[soc.CoreID]int{9: 2})
}

// TestOnlineOffline pins the sysfs online rules: cpu0 cannot go offline (a
// rejected call changes nothing and fires no hook), any other thread can,
// and re-onlining restores the count.
func TestOnlineOffline(t *testing.T) {
	_, top, m := newModel()
	online := func() int {
		n := 0
		for th := 0; th < top.NumThreads(); th++ {
			if m.Online(soc.ThreadID(th)) {
				n++
			}
		}
		return n
	}
	if n := online(); n != 128 {
		t.Fatalf("online threads = %d, want 128", n)
	}
	hooks := 0
	m.AfterChange = func() { hooks++ }
	if err := m.SetOnline(0, false); err == nil {
		t.Fatal("offlining cpu0 should fail")
	}
	if hooks != 0 || !m.Online(0) {
		t.Fatalf("rejected offline of cpu0: %d hooks, online %v", hooks, m.Online(0))
	}
	if err := m.SetOnline(64, false); err != nil {
		t.Fatalf("offlining cpu64: %v", err)
	}
	if m.Online(64) {
		t.Fatal("cpu64 still online")
	}
	if n := online(); n != 127 {
		t.Fatalf("online threads = %d, want 127", n)
	}
	if err := m.SetOnline(64, true); err != nil {
		t.Fatalf("re-onlining: %v", err)
	}
	if n := online(); n != 128 {
		t.Fatalf("re-onlining left %d threads online, want 128", n)
	}
}
