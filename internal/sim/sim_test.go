package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.RunUntil(100)
	want := []int{1, 2, 3}
	if len(got) != 3 {
		t.Fatalf("got %v events, want 3", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event order %v, want %v", got, want)
			break
		}
	}
	if e.Now() != 100 {
		t.Errorf("Now() = %v, want 100", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.RunUntil(5)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	id := e.Schedule(10, func() { fired = true })
	if !e.Cancel(id) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(id) {
		t.Fatal("Cancel returned true for already-cancelled event")
	}
	e.RunUntil(20)
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestEngineScheduleInsideEvent(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() { times = append(times, e.Now()) })
	})
	e.RunUntil(100)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested scheduling produced %v, want [10 15]", times)
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	e.RunUntil(50)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleAt(20, func() {})
}

func TestEngineRunUntilStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	e.Schedule(10, func() { fired = append(fired, e.Now()) })
	e.Schedule(20, func() { fired = append(fired, e.Now()) })
	e.Schedule(21, func() { fired = append(fired, e.Now()) })
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("events at t<=20: got %d, want 2 (inclusive boundary)", len(fired))
	}
	e.RunUntil(21)
	if len(fired) != 3 {
		t.Fatalf("event at 21 not fired after RunUntil(21)")
	}
}

func TestTickerGridAlignment(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := e.NewTicker(Millisecond, 0, func() { ticks = append(ticks, e.Now()) })
	e.RunUntil(Time(5 * Millisecond))
	tk.Stop()
	e.RunUntil(Time(10 * Millisecond))
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5: %v", len(ticks), ticks)
	}
	for i, tk := range ticks {
		if tk != Time((i+1)*int(Millisecond)) {
			t.Errorf("tick %d at %v, want %v", i, tk, Time((i+1)*int(Millisecond)))
		}
	}
}

func TestTickerPhase(t *testing.T) {
	e := NewEngine(1)
	var first Time = -1
	tk := e.NewTicker(Millisecond, 250*Microsecond, func() {
		if first < 0 {
			first = e.Now()
		}
	})
	defer tk.Stop()
	e.RunUntil(Time(3 * Millisecond))
	if first != Time(250*Microsecond) {
		t.Fatalf("first phased tick at %v, want 250µs", first)
	}
}

// TestTickerFiresOnGridPoints: a ticker reschedules each tick one period
// after the last, and every fire time must still be the grid point
// nextGridPoint gives after the previous one, for phases inside, below
// and beyond one period.
func TestTickerFiresOnGridPoints(t *testing.T) {
	const period = 997
	for _, phase := range []Duration{1, 313, period - 1, -41, 3*period + 7} {
		e := NewEngine(1)
		e.RunUntil(123456)
		var ticks []Time
		tk := e.NewTicker(period, phase, func() { ticks = append(ticks, e.Now()) })
		e.RunFor(5000 * period)
		tk.Stop()
		if len(ticks) != 5000 {
			t.Fatalf("phase %d: %d ticks over 5000 periods, want 5000", phase, len(ticks))
		}
		want := Time(123456)
		for i, at := range ticks {
			want = nextGridPoint(want, period, phase)
			if at != want {
				t.Fatalf("phase %d: tick %d at %d, want %d", phase, i, at, want)
			}
		}
	}
}

func TestNextGridPoint(t *testing.T) {
	cases := []struct {
		now    Time
		period Duration
		phase  Duration
		want   Time
	}{
		{0, 1000, 0, 1000},
		{999, 1000, 0, 1000},
		{1000, 1000, 0, 2000},
		{1500, 1000, 250, 2250},
		{2250, 1000, 250, 3250},
		{0, 1000, 250, 250},
	}
	for _, c := range cases {
		if got := nextGridPoint(c.now, c.period, c.phase); got != c.want {
			t.Errorf("nextGridPoint(%d,%d,%d) = %d, want %d", c.now, c.period, c.phase, got, c.want)
		}
	}
}

func TestNextGridPointProperty(t *testing.T) {
	f := func(nowRaw uint32, periodRaw uint16, phaseRaw uint16) bool {
		now := Time(nowRaw)
		period := Duration(periodRaw%5000) + 1
		phase := Duration(phaseRaw)
		g := nextGridPoint(now, period, phase)
		if g <= now {
			return false
		}
		// congruence check
		p := int64(period)
		ph := ((int64(phase) % p) + p) % p
		return (int64(g)-ph)%p == 0 && int64(g)-int64(now) <= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(99)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGGaussianMoments(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Gaussian(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("gaussian mean %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Fatalf("gaussian stddev %v, want ~2", math.Sqrt(variance))
	}
}

func TestRNGDurationRange(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		d := r.DurationRange(100, 200)
		if d < 100 || d >= 200 {
			t.Fatalf("DurationRange out of bounds: %d", d)
		}
	}
	if d := r.DurationRange(50, 50); d != 50 {
		t.Fatalf("degenerate range: got %d, want 50", d)
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestEnergyIntegratorBasic(t *testing.T) {
	ei := NewEnergyIntegrator(0, 100) // 100 W
	got := ei.Energy(Time(Second))
	if math.Abs(got-100) > 1e-9 {
		t.Fatalf("1s at 100W = %v J, want 100", got)
	}
	ei.SetPower(Time(Second), 50)
	got = ei.Energy(Time(3 * Second))
	if math.Abs(got-200) > 1e-9 {
		t.Fatalf("after 2s at 50W total = %v J, want 200", got)
	}
}

func TestEnergyIntegratorReset(t *testing.T) {
	ei := NewEnergyIntegrator(0, 10)
	ei.Reset(Time(Second))
	if e := ei.Energy(Time(Second)); e != 0 {
		t.Fatalf("energy after reset = %v, want 0", e)
	}
	if e := ei.Energy(Time(2 * Second)); math.Abs(e-10) > 1e-9 {
		t.Fatalf("energy 1s after reset = %v, want 10", e)
	}
}

func TestEnergyIntegratorMonotoneProperty(t *testing.T) {
	// Energy must be non-decreasing for non-negative power, regardless of
	// the pattern of SetPower calls.
	f := func(powers []uint8, steps []uint16) bool {
		ei := NewEnergyIntegrator(0, 0)
		now := Time(0)
		last := 0.0
		for i := 0; i < len(powers) && i < len(steps); i++ {
			now = now.Add(Duration(steps[i]) + 1)
			ei.SetPower(now, float64(powers[i]))
			e := ei.Energy(now)
			if e < last-1e-12 {
				return false
			}
			last = e
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEnergyIntegratorBackwardsPanics(t *testing.T) {
	ei := NewEnergyIntegrator(100, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards advance did not panic")
		}
	}()
	ei.Advance(50)
}

func TestEngineDeterminismEndToEnd(t *testing.T) {
	run := func() []uint64 {
		e := NewEngine(1234)
		var out []uint64
		tk := e.NewTicker(100*Microsecond, 0, func() {
			out = append(out, e.RNG().Uint64())
		})
		defer tk.Stop()
		e.RunUntil(Time(10 * Millisecond))
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds produced different simulations")
		}
	}
}

func TestDrainLimit(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 10; i++ {
		e.Schedule(Duration(i+1), func() {})
	}
	if n := e.Drain(4); n != 4 {
		t.Fatalf("Drain(4) executed %d", n)
	}
	if n := e.Drain(100); n != 6 {
		t.Fatalf("second Drain executed %d, want 6", n)
	}
}

func TestPendingEvents(t *testing.T) {
	e := NewEngine(1)
	ids := make([]EventID, 5)
	for i := range ids {
		ids[i] = e.Schedule(Duration(i+1)*Millisecond, func() {})
	}
	if got := e.PendingEvents(); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	e.Cancel(ids[0])
	if got := e.PendingEvents(); got != 4 {
		t.Fatalf("pending after cancel = %d, want 4", got)
	}
	e.RunUntil(Time(10 * Millisecond))
	if got := e.PendingEvents(); got != 0 {
		t.Fatalf("pending after run = %d, want 0", got)
	}
}

func TestRNGForkIndependence(t *testing.T) {
	r := NewRNG(10)
	f1 := r.Fork()
	f2 := r.Fork()
	eq := 0
	for i := 0; i < 64; i++ {
		if f1.Uint64() == f2.Uint64() {
			eq++
		}
	}
	if eq > 2 {
		t.Fatalf("forked RNGs look correlated: %d/64 equal draws", eq)
	}
}

func TestDurationHelpers(t *testing.T) {
	if d := DurationFromSeconds(1.5); d != Duration(1500*Millisecond) {
		t.Fatalf("DurationFromSeconds(1.5) = %d", d)
	}
	if s := (2 * Second).Seconds(); s != 2 {
		t.Fatalf("Seconds() = %v", s)
	}
	if m := (1500 * Nanosecond).Micros(); m != 1.5 {
		t.Fatalf("Micros() = %v", m)
	}
	if ms := (2500 * Microsecond).Millis(); ms != 2.5 {
		t.Fatalf("Millis() = %v", ms)
	}
}

// TestCancelRemovesFromQueue pins the no-leak property: a cancel-heavy model
// must not grow the queue with dead entries — Cancel removes the event from
// the heap in place, and the freed slot is recycled through the freelist.
func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 100000; i++ {
		id := e.Schedule(Millisecond, func() { t.Fatal("cancelled event fired") })
		if !e.Cancel(id) {
			t.Fatal("Cancel returned false for pending event")
		}
		if got := e.PendingEvents(); got != 0 {
			t.Fatalf("pending after cancel = %d, want 0", got)
		}
	}
	if n := len(e.heap); n != 0 {
		t.Fatalf("queue length after cancel-heavy loop = %d, want 0", n)
	}
	if n := len(e.slots); n != 1 {
		t.Fatalf("arena grew to %d slots under schedule/cancel churn, want 1", n)
	}
	// Interleaved live and cancelled events: queue length must track the
	// live count exactly, with no dead residue until popped.
	var fired int
	ids := make([]EventID, 0, 100)
	for i := 0; i < 100; i++ {
		ids = append(ids, e.Schedule(Duration(i+1), func() { fired++ }))
	}
	for i := 0; i < 100; i += 2 {
		e.Cancel(ids[i])
	}
	if got := e.PendingEvents(); got != 50 {
		t.Fatalf("pending = %d, want 50", got)
	}
	if n := len(e.heap); n != 50 {
		t.Fatalf("queue length = %d, want 50 (dead entries lingering)", n)
	}
	e.RunUntil(Time(200))
	if fired != 50 {
		t.Fatalf("fired %d events, want 50", fired)
	}
}

// TestCancelStaleHandleAfterReuse exercises the generation check: an EventID
// whose arena slot has been reused by a newer event must not cancel it.
func TestCancelStaleHandleAfterReuse(t *testing.T) {
	e := NewEngine(1)
	id1 := e.Schedule(10, func() { t.Fatal("cancelled event fired") })
	if !e.Cancel(id1) {
		t.Fatal("first Cancel failed")
	}
	// The next schedule reuses id1's slot with a bumped generation.
	fired := false
	id2 := e.Schedule(10, func() { fired = true })
	s1, _ := id1.split()
	s2, _ := id2.split()
	if s1 != s2 {
		t.Fatalf("test setup: slot not reused (id1=%x id2=%x)", id1, id2)
	}
	if e.Cancel(id1) {
		t.Fatal("stale handle cancelled a newer event in the reused slot")
	}
	e.RunUntil(20)
	if !fired {
		t.Fatal("event in reused slot did not fire")
	}
	// Cancel-after-fire with the slot reused again: still false, and the
	// current occupant is untouched.
	if e.Cancel(id2) {
		t.Fatal("Cancel returned true for already-fired event")
	}
	id3 := e.Schedule(10, func() {})
	if e.Cancel(id2) {
		t.Fatal("fired handle cancelled the slot's next occupant")
	}
	if !e.Cancel(id3) {
		t.Fatal("live handle rejected")
	}
}

// TestTickerStopRacingPendingTick stops a ticker from an event at the exact
// time of its next pending tick (scheduled earlier in FIFO order): the tick
// must be cancelled, not fire as a dead event.
func TestTickerStopRacingPendingTick(t *testing.T) {
	e := NewEngine(1)
	var tk *Ticker
	ticks := 0
	// The stopper is scheduled first, so at t=1ms it runs before the tick.
	e.ScheduleAt(Time(Millisecond), func() { tk.Stop() })
	tk = e.NewTicker(Millisecond, 0, func() { ticks++ })
	e.RunUntil(Time(5 * Millisecond))
	if ticks != 0 {
		t.Fatalf("ticks = %d, want 0 (stop raced the pending tick)", ticks)
	}
	if got := e.PendingEvents(); got != 0 {
		t.Fatalf("pending = %d, want 0 after stop", got)
	}
	tk.Stop() // idempotent
}

// TestTickerStopFromOwnTick stops a ticker from inside its own callback: the
// next tick must not be scheduled and no event may linger in the queue.
func TestTickerStopFromOwnTick(t *testing.T) {
	e := NewEngine(1)
	var tk *Ticker
	ticks := 0
	tk = e.NewTicker(Millisecond, 0, func() {
		ticks++
		if ticks == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(Time(10 * Millisecond))
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}
	if got := e.PendingEvents(); got != 0 {
		t.Fatalf("pending = %d, want 0 after self-stop", got)
	}
}

// TestRunUntilAfterCancellingHead cancels the earliest events and verifies
// RunUntil neither fires them nor stalls on the emptied queue positions.
func TestRunUntilAfterCancellingHead(t *testing.T) {
	e := NewEngine(1)
	id1 := e.Schedule(10, func() { t.Fatal("cancelled head fired") })
	id2 := e.Schedule(12, func() { t.Fatal("cancelled head fired") })
	fired := false
	e.Schedule(20, func() { fired = true })
	e.Cancel(id1)
	e.Cancel(id2)
	e.RunUntil(15)
	if fired || e.Now() != 15 {
		t.Fatalf("clock = %v, fired = %v; want 15, false", e.Now(), fired)
	}
	e.RunUntil(25)
	if !fired {
		t.Fatal("live event behind cancelled heads did not fire")
	}
	// All-dead queue: RunUntil must terminate and advance the clock.
	id := e.Schedule(10, func() { t.Fatal("cancelled event fired") })
	e.Cancel(id)
	e.RunUntil(100)
	if e.Now() != 100 {
		t.Fatalf("clock = %v, want 100", e.Now())
	}
}

// TestZeroDurationSchedule pins the ordering of zero-delay events: they fire
// at the current time, after the running event and after previously-queued
// same-time events (FIFO by sequence), before any later-time event.
func TestZeroDurationSchedule(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(10, func() {
		got = append(got, 1)
		e.Schedule(0, func() { got = append(got, 3) })
		e.Schedule(-5, func() { got = append(got, 4) }) // clamps to 0
	})
	e.ScheduleAt(10, func() { got = append(got, 2) })
	e.Schedule(11, func() { got = append(got, 5) })
	e.RunUntil(20)
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestEventHeapIsSorted(t *testing.T) {
	// Random inserts must drain in sorted order.
	e := NewEngine(1)
	r := NewRNG(77)
	var scheduled []Time
	for i := 0; i < 500; i++ {
		at := Time(r.Intn(100000))
		scheduled = append(scheduled, at)
		e.ScheduleAt(at, func() {})
	}
	sort.Slice(scheduled, func(i, j int) bool { return scheduled[i] < scheduled[j] })
	var fired []Time
	e2 := NewEngine(1)
	for _, at := range scheduled {
		at := at
		e2.ScheduleAt(at, func() { fired = append(fired, at) })
	}
	e2.RunUntil(Time(200000))
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatal("events fired out of order")
		}
	}
}

// TestNextAt pins the peek at the queue head: nothing on an empty queue,
// the next live event once the head is cancelled, and a ticker's next grid
// point after each tick reschedules it.
func TestNextAt(t *testing.T) {
	e := NewEngine(1)
	if at, ok := e.NextAt(); ok {
		t.Fatalf("empty queue: NextAt = %v, true", at)
	}
	head := e.Schedule(10, func() {})
	e.Schedule(30, func() {})
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Fatalf("NextAt = %v, %v; want 10, true", at, ok)
	}
	e.Cancel(head)
	if at, ok := e.NextAt(); !ok || at != 30 {
		t.Fatalf("after cancelling the head: NextAt = %v, %v; want 30, true", at, ok)
	}
	e.RunUntil(30)
	if at, ok := e.NextAt(); ok {
		t.Fatalf("drained queue: NextAt = %v, true", at)
	}

	tk := e.NewTicker(100, 5, func() {})
	for _, want := range []Time{105, 205, 305} {
		if at, ok := e.NextAt(); !ok || at != want {
			t.Fatalf("ticker: NextAt = %v, %v; want %v, true", at, ok, want)
		}
		e.RunUntil(want)
	}
	tk.Stop()
	if at, ok := e.NextAt(); ok {
		t.Fatalf("stopped ticker: NextAt = %v, true", at)
	}
}

// TestScheduleFireAllocs enforces what BenchmarkEngineScheduleFire reports:
// with the arena warmed up, scheduling and firing an event allocates
// nothing.
func TestScheduleFireAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Duration(i+1), fn)
	}
	e.RunFor(100)
	if n := testing.AllocsPerRun(1000, func() {
		e.Schedule(1, fn)
		e.step()
	}); n != 0 {
		t.Fatalf("schedule+fire allocates %v times, want 0", n)
	}
}
