// Package sim provides the deterministic discrete-event simulation engine
// that underpins the Zen 2 power-management model.
//
// The engine keeps a virtual clock with nanosecond resolution and an event
// queue. Components (DVFS state machines, SMU control loops, the OS timer
// tick, power meters, ...) schedule callbacks on the engine; the engine
// executes them in strict (time, insertion-order) order, so a simulation with
// a fixed seed is bit-for-bit reproducible.
//
// The queue is engineered for the steady state of a long simulation, where
// millions of events are scheduled and fired but almost none are ever
// cancelled: a value-typed, index-based 4-ary heap over a slot arena with a
// freelist, so scheduling and firing perform zero allocations once the arena
// has warmed up. Cancellation is validated through generation-tagged
// EventIDs and removes the event from the queue in place, so cancel-heavy
// models cannot grow the queue with dead entries.
//
// Reset rewinds an engine to what NewEngine returns while keeping the
// arena, heap and freelist capacity. Generations are not restarted, so an
// EventID issued before a Reset never matches an event queued after it,
// and a Ticker armed before it stays stopped until Start re-arms it.
package sim

import (
	"fmt"
	"math"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants but for virtual time.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros returns the duration as floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

// Millis returns the duration as floating-point milliseconds.
func (d Duration) Millis() float64 { return float64(d) / 1e6 }

func (t Time) String() string     { return fmt.Sprintf("%.6fs", t.Seconds()) }
func (d Duration) String() string { return fmt.Sprintf("%.3fµs", d.Micros()) }

// DurationFromSeconds converts floating-point seconds to a Duration,
// rounding to the nearest nanosecond.
func DurationFromSeconds(s float64) Duration {
	return Duration(math.Round(s * 1e9))
}

// eventSlot is one arena entry. Slots are reused through the freelist; the
// generation counter distinguishes successive occupancies so a stale EventID
// from an earlier occupant can never cancel the current one.
type eventSlot struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
	gen uint32
	pos int32 // index in Engine.heap, or -1 when the slot is free/fired
}

// EventID identifies a scheduled event so it can be cancelled. It packs the
// event's arena slot and the slot's generation; the zero EventID is never
// issued (generations start at 1).
type EventID uint64

func makeEventID(slot, gen uint32) EventID {
	return EventID(uint64(slot)<<32 | uint64(gen))
}

func (id EventID) split() (slot, gen uint32) {
	return uint32(id >> 32), uint32(id)
}

// Engine is the discrete-event simulator. The zero value is not usable;
// construct with NewEngine.
type Engine struct {
	now Time
	seq uint64
	rng *RNG

	// slots is the event arena; heap holds slot indices ordered as a 4-ary
	// min-heap on (at, seq); free lists vacant slots for reuse.
	slots []eventSlot
	heap  []uint32
	free  []uint32

	// executed counts processed events, mostly for tests and diagnostics.
	executed uint64

	// parked is the ticker whose fires the engine emulates instead of
	// queuing (Ticker.Park), nil when none is parked.
	parked *Ticker

	// epoch counts resets; a ticker armed in an earlier epoch is stale.
	epoch uint64
}

// NewEngine returns an engine with its clock at zero and the given RNG seed.
func NewEngine(seed uint64) *Engine {
	e := &Engine{rng: new(RNG)}
	e.Reset(seed)
	return e
}

// Reset rewinds the engine to what NewEngine(seed) returns: the clock, the
// sequence and executed counts at zero, the queue empty, no ticker parked
// and the RNG reseeded in place. It keeps the event arena's capacity and
// every slot's generation, so a pre-reset EventID cancels nothing after
// it, and every ticker armed before it is stopped (Ticker.Start re-arms
// one). Reset must not run from inside an event.
func (e *Engine) Reset(seed uint64) {
	for _, idx := range e.heap {
		e.slots[idx].pos = -1
		e.release(idx)
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.executed, e.parked = 0, 0, 0, nil
	e.epoch++
	e.rng.Seed(seed)
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// RNG returns the engine's deterministic random source.
func (e *Engine) RNG() *RNG { return e.rng }

// Executed reports how many events have run so far. A parked ticker's
// emulated fires are not events and are not counted.
func (e *Engine) Executed() uint64 { return e.executed }

// less orders heap entries by (time, sequence).
func (e *Engine) less(a, b uint32) bool {
	sa, sb := &e.slots[a], &e.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// The heap is 4-ary: shallower than a binary heap (fewer cache lines per
// sift) at the cost of three extra comparisons per level, a well-known win
// for queues dominated by Push/Pop of near-front elements.
const heapArity = 4

// siftUp moves heap[i] toward the root until its parent is not larger.
func (e *Engine) siftUp(i int) {
	h := e.heap
	moved := h[i]
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.less(moved, h[p]) {
			break
		}
		h[i] = h[p]
		e.slots[h[i]].pos = int32(i)
		i = p
	}
	h[i] = moved
	e.slots[moved].pos = int32(i)
}

// siftDown moves heap[i] toward the leaves; it returns the final index.
func (e *Engine) siftDown(i int) int {
	h := e.heap
	n := len(h)
	moved := h[i]
	for {
		c := heapArity*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + heapArity
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if e.less(h[j], h[best]) {
				best = j
			}
		}
		if !e.less(h[best], moved) {
			break
		}
		h[i] = h[best]
		e.slots[h[i]].pos = int32(i)
		i = best
	}
	h[i] = moved
	e.slots[moved].pos = int32(i)
	return i
}

// removeAt detaches the heap entry at position i and restores heap order.
// The detached slot's pos is set to -1; the slot itself is not released.
func (e *Engine) removeAt(i int) uint32 {
	h := e.heap
	idx := h[i]
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		e.slots[h[i]].pos = int32(i)
	}
	e.heap = h[:last]
	if i < last {
		if e.siftDown(i) == i {
			e.siftUp(i)
		}
	}
	e.slots[idx].pos = -1
	return idx
}

// release returns a fired or cancelled slot to the freelist. The callback
// reference is dropped so the arena does not retain dead closures.
func (e *Engine) release(idx uint32) {
	e.slots[idx].fn = nil
	e.free = append(e.free, idx)
}

// ScheduleAt registers fn to run at the absolute virtual time at. Scheduling
// in the past panics: it always indicates a model bug.
func (e *Engine) ScheduleAt(at Time, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	return e.push(at, e.seq, fn)
}

// push queues fn at (at, seq).
func (e *Engine) push(at Time, seq uint64, fn func()) EventID {
	var idx uint32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, eventSlot{})
		idx = uint32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at, s.seq, s.fn = at, seq, fn
	s.gen++ // generations start at 1, so the zero EventID is never issued
	s.pos = int32(len(e.heap))
	e.heap = append(e.heap, idx)
	e.siftUp(int(s.pos))
	return makeEventID(idx, s.gen)
}

// Schedule registers fn to run after delay d.
func (e *Engine) Schedule(d Duration, fn func()) EventID {
	if d < 0 {
		d = 0
	}
	return e.ScheduleAt(e.now.Add(d), fn)
}

// Cancel removes a pending event from the queue in place. Cancelling an
// already-fired, already-cancelled or unknown event is a no-op and returns
// false — including when the event's arena slot has since been reused, which
// the generation tag detects.
func (e *Engine) Cancel(id EventID) bool {
	idx, gen := id.split()
	if int(idx) >= len(e.slots) {
		return false
	}
	s := &e.slots[idx]
	if s.gen != gen || s.pos < 0 {
		return false
	}
	e.removeAt(int(s.pos))
	e.release(idx)
	return true
}

// step executes the earliest pending event, after emulating the parked
// ticker's fires that order before it. Returns false if none remain.
func (e *Engine) step() bool {
	if len(e.heap) == 0 {
		return false
	}
	if e.parked != nil {
		s := &e.slots[e.heap[0]]
		e.parked.skipBefore(s.at, s.seq)
	}
	idx := e.removeAt(0)
	s := &e.slots[idx]
	at, fn := s.at, s.fn
	// Release before running: fn may schedule new events into this slot,
	// and the generation bump keeps stale handles invalid.
	e.release(idx)
	e.now = at
	e.executed++
	fn()
	return true
}

// RunUntil advances the simulation until the clock reaches t (inclusive of
// events and of a parked ticker's fires at exactly t), then sets the clock
// to t.
func (e *Engine) RunUntil(t Time) {
	for len(e.heap) > 0 && e.slots[e.heap[0]].at <= t {
		e.step()
	}
	if e.parked != nil {
		e.parked.skipThrough(t)
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

// Drain runs until no events remain or limit events have fired.
// It returns the number of events executed. A parked ticker's fires are
// not events: Drain neither counts them nor waits for them, so it returns
// once the queue is empty even while a ticker is parked.
func (e *Engine) Drain(limit uint64) uint64 {
	var n uint64
	for n < limit && e.step() {
		n++
	}
	return n
}

// NextAt returns the time of the earliest queued event; ok is false when
// the queue is empty. A parked ticker has no queued event, so its
// emulated fires are not reported.
func (e *Engine) NextAt() (at Time, ok bool) {
	if len(e.heap) == 0 {
		return 0, false
	}
	return e.slots[e.heap[0]].at, true
}

// PendingEvents returns the number of scheduled events. Cancelled events are
// removed from the queue immediately, so this is also the queue length. A
// parked ticker's pending tick is not queued and not counted.
func (e *Engine) PendingEvents() int { return len(e.heap) }

// Ticker is a persistent periodic event: one pre-allocated fire closure
// reschedules itself in place, so a steady-state tick allocates nothing.
// Only arming finds the grid point (nextGridPoint); a tick reschedules one
// period after its own. Construct with Engine.NewTicker, or with
// Engine.NewStoppedTicker and arm with Start. A reset of the engine stops
// every ticker armed before it: its Stop, Park and Wake touch nothing.
//
// A ticker whose callback has nothing to do until some later event can
// Park: the engine then emulates its fires instead of queuing them. Each
// emulated fire takes the sequence number a real reschedule would, at the
// point in the event order where the tick would have run, so Wake puts the
// pending tick back with the time and sequence number it would have had
// and no same-instant event changes order. An engine has at most one
// parked ticker.
type Ticker struct {
	e      *Engine
	period Duration
	phase  Duration
	fn     func()
	fire   func()
	id     EventID
	// firing marks the callback running; parked marks emulated fires.
	stopped, firing, parked bool
	// next and seq are a parked ticker's pending tick: its grid point and
	// the sequence number it would be queued under.
	next Time
	seq  uint64
	// skipped counts the fires emulated since Park.
	skipped uint64
	// epoch is the engine's epoch when Start last armed the ticker.
	epoch uint64
}

// NewTicker invokes fn every period, starting at the next multiple of period
// plus phase (so independent tickers with the same period stay aligned to a
// grid, which is exactly how the Zen 2 frequency-transition slots behave).
func (e *Engine) NewTicker(period Duration, phase Duration, fn func()) *Ticker {
	t := e.NewStoppedTicker(period, phase, fn)
	t.Start()
	return t
}

// NewStoppedTicker is NewTicker without arming: the ticker fires only
// once Start arms it.
func (e *Engine) NewStoppedTicker(period Duration, phase Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{e: e, period: period, phase: phase, fn: fn, stopped: true}
	t.fire = func() {
		if t.stopped {
			return
		}
		// A tick fires on its grid point, so the next one is a period on.
		at := e.now
		t.firing = true
		t.fn()
		t.firing = false
		switch {
		case t.stopped:
		case t.parked:
			e.seq++
			t.next, t.seq = at.Add(t.period), e.seq
		default:
			t.id = e.ScheduleAt(at.Add(t.period), t.fire)
		}
	}
	return t
}

// Start arms the ticker as NewTicker does: its first tick at the next grid
// point after now. An armed ticker is stopped first, so Start also re-arms
// a ticker in place, one of a reset engine included. Starting a ticker
// from inside its own callback panics.
func (t *Ticker) Start() {
	if t.firing && !t.stale() {
		panic("sim: ticker started from its own callback")
	}
	t.Stop()
	e := t.e
	t.stopped, t.firing, t.skipped, t.epoch = false, false, 0, e.epoch
	t.id = e.ScheduleAt(nextGridPoint(e.now, t.period, t.phase), t.fire)
}

// stale reports whether the engine was reset since Start armed the ticker:
// its pending tick left the queue with the reset.
func (t *Ticker) stale() bool { return t.epoch != t.e.epoch }

// Stop disarms the ticker and cancels its pending tick. Stopping an
// already-stopped ticker is a no-op; stopping from inside the ticker's own
// callback suppresses the rescheduling of the next tick. A parked ticker
// stops without waking, and a stale one (see Engine.Reset) without
// touching the engine.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.stale() {
		t.parked = false
		return
	}
	if t.parked {
		t.parked = false
		t.e.parked = nil
		return
	}
	t.e.Cancel(t.id)
}

// Park stops queuing the ticker's fires until Wake: the engine emulates
// each one, the callback does not run, and no event is executed for it.
// Called from the callback, it parks the tick after this one. Parking a
// parked or stopped ticker is a no-op; parking a second ticker of the
// engine panics.
func (t *Ticker) Park() {
	if t.parked || t.stopped || t.stale() {
		return
	}
	e := t.e
	if e.parked != nil {
		panic("sim: another ticker of the engine is parked")
	}
	t.parked, t.skipped = true, 0
	e.parked = t
	if !t.firing {
		idx, _ := t.id.split()
		s := &e.slots[idx]
		t.next, t.seq = s.at, s.seq
		e.Cancel(t.id)
	}
}

// Wake queues a parked ticker's pending tick again, at the time and
// sequence number the fires emulated since Park left it, and returns how
// many fires were emulated. Waking a ticker that is not parked returns 0.
func (t *Ticker) Wake() uint64 {
	if !t.Parked() {
		return 0
	}
	t.parked = false
	t.e.parked = nil
	if !t.firing {
		t.id = t.e.push(t.next, t.seq, t.fire)
	}
	return t.skipped
}

// Parked reports whether the ticker is parked. A stale ticker is not.
func (t *Ticker) Parked() bool { return t.parked && !t.stale() }

// Skipped returns how many fires have been emulated since Park, 0 when
// the ticker is not parked.
func (t *Ticker) Skipped() uint64 {
	if !t.Parked() {
		return 0
	}
	return t.skipped
}

// skipBefore emulates the parked ticker's fires that order before the
// queued event (at, seq): the pending tick if it does, and every later
// grid point before at, whose fresh sequence numbers order after any
// queued event at the same instant.
func (t *Ticker) skipBefore(at Time, seq uint64) {
	if t.next > at || t.next == at && t.seq > seq {
		return
	}
	n := uint64(1)
	if at > t.next {
		n += uint64(at.Sub(t.next)-1) / uint64(t.period)
	}
	t.skip(n)
}

// skipThrough emulates the parked ticker's fires at or before at, for a
// queue with no event left there.
func (t *Ticker) skipThrough(at Time) {
	if t.next <= at {
		t.skip(1 + uint64(at.Sub(t.next))/uint64(t.period))
	}
}

// skip emulates n fires: each one takes a sequence number, as its
// reschedule would, and moves the pending tick a period on.
func (t *Ticker) skip(n uint64) {
	t.e.seq += n
	t.seq = t.e.seq
	t.next = t.next.Add(Duration(n) * t.period)
	t.skipped += n
}

// nextGridPoint returns the smallest time strictly greater than now that is
// congruent to phase modulo period, in O(1) arithmetic.
func nextGridPoint(now Time, period Duration, phase Duration) Time {
	p := int64(period)
	ph := ((int64(phase) % p) + p) % p
	d := int64(now) - ph
	q := d / p
	if d%p != 0 && d < 0 { // floor division: Go truncates toward zero
		q--
	}
	return Time((q+1)*p + ph)
}
