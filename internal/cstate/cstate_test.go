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
	if err := top.SetOnline(64, false); err != nil {
		t.Fatal(err)
	}
	m.NotifyOnlineChanged()
	if s := m.EffectiveState(64); s != C1 {
		t.Fatalf("offline thread state %v, want C1 (anomaly)", s)
	}
	if m.SystemDeepSleep() {
		t.Fatal("deep sleep despite offline-elevated thread")
	}
	// Only explicit re-onlining fixes it.
	if err := top.SetOnline(64, true); err != nil {
		t.Fatal(err)
	}
	m.NotifyOnlineChanged()
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
	top.SetOnline(64, false)
	m.NotifyOnlineChanged()
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

func TestOnCoreActiveCallback(t *testing.T) {
	_, top, m := newModel()
	var lastCore soc.CoreID = -1
	var lastCount = -1
	m.OnCoreActive = func(c soc.CoreID, n int) { lastCore, lastCount = c, n }
	m.EnterIdle(0, C2)
	if lastCore != 0 || lastCount != 1 {
		t.Fatalf("callback (%d,%d), want (0,1)", lastCore, lastCount)
	}
	m.EnterIdle(top.Sibling(0), C2)
	if lastCount != 0 {
		t.Fatalf("callback count %d, want 0", lastCount)
	}
	m.Wake(0, 2500, false)
	if lastCount != 1 {
		t.Fatalf("callback count after wake %d, want 1", lastCount)
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

func TestBeforeAfterHooks(t *testing.T) {
	_, _, m := newModel()
	var before, after int
	m.BeforeChange = func() { before++ }
	m.AfterChange = func() { after++ }
	m.EnterIdle(0, C1)
	m.Wake(0, 2000, false)
	if before != 2 || after != 2 {
		t.Fatalf("hooks before=%d after=%d, want 2/2", before, after)
	}
	// Idempotent requests do not trigger hooks.
	m.Wake(0, 2000, false)
	if before != 2 {
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

// TestOnCoreActiveNotifications pins when the kept per-core C0 counts are
// reported: once per count change of the mutated thread's core, never for
// a mutation that leaves the count alone, and for an online change on every
// core whose count moved, in core order.
func TestOnCoreActiveNotifications(t *testing.T) {
	_, top, m := newModel()
	type note struct {
		core soc.CoreID
		n    int
	}
	var got []note
	m.OnCoreActive = func(c soc.CoreID, n int) { got = append(got, note{c, n}) }
	expect := func(what string, want ...note) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: notifications %v, want %v", what, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: notifications %v, want %v", what, got, want)
			}
		}
		got = got[:0]
	}
	c3 := top.Cores[3].Threads
	m.EnterIdle(c3[0], C1)
	expect("first thread idles", note{3, 1})
	m.EnterIdle(c3[0], C2)
	expect("C1 to C2")
	if err := m.SetEnabled(c3[1], C2, false); err != nil {
		t.Fatal(err)
	}
	expect("disabling C2 on a C0 thread")
	m.EnterIdle(c3[1], C2)
	expect("second thread idles (capped at C1)", note{3, 0})
	m.Wake(c3[1], 2500, false)
	expect("wake", note{3, 1})

	// Offline two running threads behind the model's back: one online
	// notification recounts every core, in core order.
	hi, lo := top.Cores[9].Threads[1], top.Cores[5].Threads[1]
	for _, th := range []soc.ThreadID{hi, lo} {
		if err := top.SetOnline(th, false); err != nil {
			t.Fatal(err)
		}
	}
	m.NotifyOnlineChanged()
	expect("online change", note{5, 1}, note{9, 1})
	m.NotifyOnlineChanged()
	expect("repeated online change")
}
