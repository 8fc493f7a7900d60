package sim

import "testing"

// TestResetRewindsEngine checks that a reset engine behaves as a new one:
// clock, sequence numbers, executed count and RNG start over, and the
// queue holds nothing from before.
func TestResetRewindsEngine(t *testing.T) {
	e := NewEngine(7)
	fired := 0
	for i := 0; i < 5; i++ {
		e.Schedule(Duration(i+1)*Millisecond, func() { fired++ })
	}
	e.RNG().Uint64()
	e.RunFor(2 * Millisecond)
	e.Reset(7)
	if e.Now() != 0 || e.Executed() != 0 || e.PendingEvents() != 0 || e.seq != 0 {
		t.Fatalf("after reset: now %v, executed %d, pending %d, seq %d", e.Now(), e.Executed(), e.PendingEvents(), e.seq)
	}
	if got, want := e.RNG().Uint64(), NewRNG(7).Uint64(); got != want {
		t.Fatalf("reset RNG draws %x, a new one %x", got, want)
	}
	e.RunFor(10 * Millisecond)
	if fired != 2 {
		t.Fatalf("%d events fired, want the 2 before the reset", fired)
	}
}

// TestPreResetHandlesAreDead checks that nothing issued before a reset
// reaches what is queued after it: a pre-reset EventID cannot cancel a
// post-reset event that reuses its arena slot, and a pre-reset ticker
// (like an AC meter's, which its owner never stops) neither fires nor
// cancels, parks or wakes anything. Generations continue across the
// reset, so the reused slot's EventID differs from the old one.
func TestPreResetHandlesAreDead(t *testing.T) {
	e := NewEngine(1)
	oldTicks := 0
	old := e.NewTicker(Millisecond, 0, func() { oldTicks++ })
	stale := e.Schedule(5*Millisecond, func() { t.Fatal("pre-reset event fired") })
	e.RunFor(3 * Millisecond)
	if oldTicks != 3 {
		t.Fatalf("pre-reset ticker fired %d times, want 3", oldTicks)
	}
	e.Reset(1)

	fired := 0
	var ids []EventID
	for i := 0; i < 4; i++ {
		ids = append(ids, e.Schedule(Duration(i)*Millisecond, func() { fired++ }))
	}
	reused := false
	staleSlot, _ := stale.split()
	for _, id := range ids {
		if id == stale {
			t.Fatalf("post-reset event reissued the pre-reset EventID %x", id)
		}
		slot, _ := id.split()
		reused = reused || slot == staleSlot
	}
	if !reused {
		t.Fatal("no post-reset event reuses the pre-reset event's slot")
	}
	if e.Cancel(stale) {
		t.Fatal("a pre-reset EventID cancelled a post-reset event")
	}
	old.Park()
	if old.Parked() || e.parked != nil {
		t.Fatal("a pre-reset ticker parked")
	}
	if n := old.Wake(); n != 0 {
		t.Fatalf("a pre-reset ticker woke after %d emulated fires", n)
	}
	old.Stop()
	if e.PendingEvents() != len(ids) {
		t.Fatalf("%d events pending, want %d", e.PendingEvents(), len(ids))
	}
	e.RunFor(10 * Millisecond)
	if fired != len(ids) || oldTicks != 3 {
		t.Fatalf("%d post-reset events fired (want %d); the pre-reset ticker fired %d times (want 3)", fired, len(ids), oldTicks)
	}
}

// TestTickerStartRearmsAfterReset checks that Start re-arms a ticker of a
// reset engine at its grid, under the sequence numbers a new ticker would
// take, and that a ticker parked at the reset starts unparked.
func TestTickerStartRearmsAfterReset(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	tk := e.NewTicker(Millisecond, Millisecond/2, func() { at = append(at, e.Now()) })
	e.RunFor(2 * Millisecond)
	tk.Park()
	e.RunFor(5 * Millisecond)
	e.Reset(1)
	at = at[:0]
	tk.Start()
	if tk.Parked() || e.seq != 1 {
		t.Fatalf("re-armed ticker parked %v, engine seq %d (want false, 1)", tk.Parked(), e.seq)
	}
	e.RunFor(3 * Millisecond)
	want := []Time{Time(Millisecond / 2), Time(3 * Millisecond / 2), Time(5 * Millisecond / 2)}
	if len(at) != len(want) {
		t.Fatalf("re-armed ticker fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("re-armed ticker fired at %v, want %v", at, want)
		}
	}
}
