package sim

import (
	"fmt"
	"testing"
)

// parkEntry is one line of a park script's firing log: what ran, when,
// and the engine's sequence counter as it ran.
type parkEntry struct {
	at    Time
	label string
	seq   uint64
}

// parkScript runs one random script of events, wakes, parks and stops
// against a ticker and returns its firing log and the number of ticker
// fires that did nothing. With emulate, the ticker really parks and the
// engine emulates its fires; without, the reference ticker keeps firing
// and its callback does nothing while the script holds it "parked". The
// two logs must be equal: emulated fires take the sequence numbers, and
// leave the same tie order, as fires that do nothing.
func parkScript(seed uint64, emulate bool) (log []parkEntry, nothing uint64, e *Engine) {
	const period, phase = 10, 3
	e = NewEngine(1)
	r := NewRNG(seed)
	var tk *Ticker
	parked := false // the reference's parked state
	stopped := false
	// idle counts the reference's idle fires since it parked, emulated
	// the fires the parking engine emulated before its last wake or stop.
	var idle, emulated uint64
	record := func(label string) {
		log = append(log, parkEntry{e.Now(), label, e.seq})
	}
	// grid returns a grid instant k periods after the first one at or
	// after now.
	grid := func(k int) Time {
		return nextGridPoint(e.Now()-1, period, phase).Add(Duration(k) * period)
	}
	wake := func() {
		if stopped || !parked {
			return
		}
		parked = false
		var n uint64
		if emulate {
			n = tk.Wake()
			emulated += n
		} else {
			n, idle = idle, 0
		}
		record(fmt.Sprintf("wake %d", n))
	}
	park := func() {
		if stopped || parked {
			return
		}
		parked = true
		if emulate {
			tk.Park()
		}
		record("park")
	}
	stop := func() {
		if stopped {
			return
		}
		if emulate {
			emulated += tk.Skipped()
		}
		stopped, parked = true, false
		tk.Stop()
		record("stop")
	}
	next := 0
	var schedule func()
	event := func(id int) func() {
		return func() {
			record(fmt.Sprintf("ev %d", id))
			switch r.Intn(10) {
			case 0, 1, 2:
				wake()
			case 3:
				park()
			case 4:
				if r.Intn(8) == 0 {
					stop()
				}
			}
			for i := r.Intn(3); i > 0; i-- {
				schedule()
			}
		}
	}
	// schedule queues a new event now, on a grid instant, or in between.
	schedule = func() {
		id := next
		next++
		var at Time
		switch r.Intn(3) {
		case 0:
			at = e.Now()
		case 1:
			at = grid(r.Intn(4))
		default:
			at = e.Now().Add(Duration(r.Intn(4 * period)))
		}
		e.ScheduleAt(at, event(id))
	}
	tk = e.NewTicker(period, phase, func() {
		if parked {
			idle++
			nothing++
			return
		}
		record("tick")
		switch r.Intn(6) {
		case 0, 1:
			park()
		case 2:
			// Queued before the reschedule, so it orders before the next
			// tick at the same grid instant.
			e.ScheduleAt(grid(1), event(-1))
		case 3:
			schedule()
		}
	})
	for i := 0; i < 8; i++ {
		schedule()
	}
	for round := 0; round < 60; round++ {
		// RunUntil ends on a grid instant half the time.
		until := grid(r.Intn(6))
		if r.Intn(2) == 0 {
			until = until.Add(Duration(r.Intn(period)))
		}
		e.RunUntil(until)
		record("run")
		switch r.Intn(6) {
		case 0:
			wake()
		case 1:
			park()
		case 2:
			schedule()
		}
	}
	if emulate {
		nothing = emulated + tk.Skipped()
	}
	return log, nothing, e
}

// TestParkedTickerMatchesIdleTicker runs random park scripts against a
// parking ticker and an always-firing one and compares the firing logs,
// clocks, sequence counters and event counts.
func TestParkedTickerMatchesIdleTicker(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		got, emulated, pe := parkScript(seed, true)
		want, idle, re := parkScript(seed, false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d log entries, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: entry %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if pe.Now() != re.Now() || pe.seq != re.seq {
			t.Fatalf("seed %d: clock %v seq %d, reference %v seq %d", seed, pe.Now(), pe.seq, re.Now(), re.seq)
		}
		if pe.Executed()+emulated != re.Executed() || emulated != idle {
			t.Fatalf("seed %d: %d events + %d emulated fires, reference %d events with %d idle fires",
				seed, pe.Executed(), emulated, re.Executed(), idle)
		}
	}
}

// TestParkedTickerReports pins what the engine reports for a parked
// ticker: NextAt, PendingEvents, Executed and Drain ignore its emulated
// fires, Skipped counts them, and Wake queues the pending tick where the
// fires left it.
func TestParkedTickerReports(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	tk := e.NewTicker(100, 5, func() { ticks++ })
	tk.Park()
	if !tk.Parked() || e.PendingEvents() != 0 {
		t.Fatalf("parked = %v with %d pending events, want true with 0", tk.Parked(), e.PendingEvents())
	}
	if at, ok := e.NextAt(); ok {
		t.Fatalf("parked ticker: NextAt = %v, true", at)
	}
	e.Schedule(250, func() {})
	if n := e.Drain(10); n != 1 || e.Now() != 250 {
		t.Fatalf("Drain ran %d events to %v, want 1 to 250", n, e.Now())
	}
	if n := e.Drain(10); n != 0 {
		t.Fatalf("Drain of an empty queue with a parked ticker ran %d events", n)
	}
	e.RunUntil(405) // 5, 105, 205, 305, 405
	if ticks != 0 || e.Executed() != 1 || tk.Skipped() != 5 {
		t.Fatalf("ticks %d, executed %d, skipped %d; want 0, 1, 5", ticks, e.Executed(), tk.Skipped())
	}
	if n := tk.Wake(); n != 5 || tk.Skipped() != 0 {
		t.Fatalf("Wake = %d, Skipped = %d; want 5, 0", n, tk.Skipped())
	}
	if at, ok := e.NextAt(); !ok || at != 505 {
		t.Fatalf("woken ticker: NextAt = %v, %v; want 505, true", at, ok)
	}
	if n := tk.Wake(); n != 0 {
		t.Fatalf("second Wake = %d, want 0", n)
	}
	e.RunUntil(505)
	if ticks != 1 {
		t.Fatalf("ticks = %d after waking, want 1", ticks)
	}
	tk.Park()
	tk.Stop()
	if tk.Parked() || e.PendingEvents() != 0 {
		t.Fatal("a ticker stopped while parked must leave nothing behind")
	}
	other := e.NewTicker(100, 0, func() {})
	other.Park()
	third := e.NewTicker(100, 0, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("parking a second ticker of one engine must panic")
		}
	}()
	third.Park()
}

// TestParkWakeAllocs pins a park/wake cycle at zero allocations: a ticker
// that parks from its own tick, emulated fires, and a wake that queues the
// tick again.
func TestParkWakeAllocs(t *testing.T) {
	e := NewEngine(1)
	var tk *Ticker
	tk = e.NewTicker(Millisecond, 0, func() { tk.Park() })
	wake := func() { tk.Wake() }
	e.RunFor(10 * Millisecond)
	if n := testing.AllocsPerRun(1000, func() {
		e.Schedule(3*Millisecond+Millisecond/2, wake)
		e.RunFor(4 * Millisecond)
	}); n != 0 {
		t.Fatalf("park/wake cycle allocates %v times, want 0", n)
	}
	if !tk.Parked() {
		t.Fatal("the ticker must park again after each wake")
	}
}
