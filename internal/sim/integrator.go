package sim

import "fmt"

// EnergyIntegrator accumulates energy (Joules) from a piecewise-constant
// power signal (Watts). Components update their power on state changes; the
// integrator folds in power × elapsed-time on every change and on demand.
//
// This is the accounting primitive behind both the external AC power meter
// model and the RAPL counters. The zero value starts at time 0 with power
// 0, as NewEnergyIntegrator(0, 0) does.
type EnergyIntegrator struct {
	lastUpdate Time
	power      float64 // current power, W
	energy     float64 // accumulated energy, J
}

// NewEnergyIntegrator starts integration at time t with power p.
func NewEnergyIntegrator(t Time, p float64) *EnergyIntegrator {
	return &EnergyIntegrator{lastUpdate: t, power: p}
}

// SetPower advances the accumulated energy to time now and switches to the
// new power level. now must not precede the previous update.
func (ei *EnergyIntegrator) SetPower(now Time, watts float64) {
	ei.Advance(now)
	ei.power = watts
}

// Advance folds in energy up to time now without changing power.
func (ei *EnergyIntegrator) Advance(now Time) {
	if now < ei.lastUpdate {
		panic(fmt.Sprintf("sim: energy integrator moved backwards: %v < %v", now, ei.lastUpdate))
	}
	ei.energy += ei.power * now.Sub(ei.lastUpdate).Seconds()
	ei.lastUpdate = now
}

// Power returns the current power level in Watts.
func (ei *EnergyIntegrator) Power() float64 { return ei.power }

// Energy returns the total energy in Joules accumulated up to time now.
func (ei *EnergyIntegrator) Energy(now Time) float64 {
	ei.Advance(now)
	return ei.energy
}

// FoldLog records the instants at which a group of lazy integrators would
// have folded had they been folded eagerly: one entry per distinct instant,
// in time order. An integrator remembers how far into the log it has
// folded and replays the rest only when its rate changes or it is read.
//
// The log is bounded. When it is full, Record calls the owner's catch-up
// function, which must fold every integrator of the group through the
// whole log, and then empties it. Catching up early performs exactly the
// folds a later replay would, so the bound changes no result bit.
type FoldLog struct {
	times []Time
	// secs[i] is times[i].Sub(times[i-1]).Seconds(), the elapsed time of
	// one replay step, computed once per instant instead of once per
	// integrator. secs[0] is unused.
	secs    []float64
	base    uint64 // absolute position of times[0]
	last    Time   // the latest recorded instant, or the start time
	catchUp func()
}

// NewFoldLog starts an empty log at time start. capacity bounds the number
// of retained instants (at least 2); catchUp is called when the log is full.
func NewFoldLog(start Time, capacity int, catchUp func()) *FoldLog {
	if capacity < 2 {
		capacity = 2
	}
	l := &FoldLog{
		times:   make([]Time, 0, capacity),
		secs:    make([]float64, 0, capacity),
		catchUp: catchUp,
	}
	l.Reset(start)
	return l
}

// Reset empties the log and starts it over at time start, as NewFoldLog
// does, keeping its capacity and catch-up function. It folds nothing: the
// integrators over the log must start over with it.
func (l *FoldLog) Reset(start Time) {
	l.times, l.secs = l.times[:0], l.secs[:0]
	l.base, l.last = 0, start
}

// Record logs instant t. An instant equal to the latest one (or to the
// start time) is dropped: a second fold at the same instant adds zero
// elapsed time.
func (l *FoldLog) Record(t Time) {
	if t == l.last {
		return
	}
	if t < l.last {
		panic(fmt.Sprintf("sim: fold log moved backwards: %v < %v", t, l.last))
	}
	if len(l.times) == cap(l.times) {
		l.catchUp()
		l.base += uint64(len(l.times))
		l.times, l.secs = l.times[:0], l.secs[:0]
	}
	l.secs = append(l.secs, t.Sub(l.last).Seconds())
	l.times = append(l.times, t)
	l.last = t
}

// End is the absolute position just past the latest logged instant: an
// integrator that has folded through the log remembers End as its position.
func (l *FoldLog) End() uint64 { return l.base + uint64(len(l.times)) }

// Since returns the instants logged at or after absolute position pos, which
// must not precede the last catch-up.
func (l *FoldLog) Since(pos uint64) []Time { return l.times[pos-l.base:] }

// pending is Since plus each instant's replay step (see FoldLog.secs).
func (l *FoldLog) pending(pos uint64) ([]Time, []float64) {
	i := pos - l.base
	return l.times[i:], l.secs[i:]
}

// LazyIntegrator is EnergyIntegrator folded on demand: it accumulates the
// integral of a piecewise-constant rate, folding at every instant of its
// FoldLog, but it performs those folds only when its rate changes or it is
// read. The replay runs the same e += p·Δt operations in the same order as
// eager folding, so every result is bit-identical to an EnergyIntegrator
// whose SetPower is called at each logged instant. It is a value type, so
// a group of them can live in one slice.
type LazyIntegrator struct {
	pos    uint64 // log position folded through
	last   Time
	rate   float64
	energy float64
}

// NewLazyIntegrator starts an integrator at rate zero at time t, which must
// not precede the log's latest instant.
func NewLazyIntegrator(l *FoldLog, t Time) LazyIntegrator {
	return LazyIntegrator{pos: l.End(), last: t}
}

// CatchUp folds every instant logged since the integrator last folded. A
// zero rate skips the replay: each of its folds would add +0.
func (li *LazyIntegrator) CatchUp(l *FoldLog) {
	ts, secs := l.pending(li.pos)
	if len(ts) == 0 {
		return
	}
	li.pos = l.End()
	if li.rate != 0 {
		e := li.energy
		e += li.rate * ts[0].Sub(li.last).Seconds()
		for _, s := range secs[1:] {
			e += li.rate * s
		}
		li.energy = e
	}
	li.last = ts[len(ts)-1]
}

// SetRate switches to a new rate from the log's latest instant on, which
// the caller must have recorded. An unchanged rate costs one compare.
func (li *LazyIntegrator) SetRate(l *FoldLog, rate float64) {
	if rate != li.rate {
		li.switchRate(l, rate)
	}
}

// switchRate is SetRate's slow path, kept out of line so SetRate inlines.
func (li *LazyIntegrator) switchRate(l *FoldLog, rate float64) {
	li.CatchUp(l)
	li.rate = rate
}

// Rate returns the current rate.
func (li *LazyIntegrator) Rate() float64 { return li.rate }

// Energy returns the integral accumulated up to time now, folding there
// like EnergyIntegrator.Energy.
func (li *LazyIntegrator) Energy(l *FoldLog, now Time) float64 {
	li.CatchUp(l)
	if now < li.last {
		panic(fmt.Sprintf("sim: lazy integrator moved backwards: %v < %v", now, li.last))
	}
	li.energy += li.rate * now.Sub(li.last).Seconds()
	li.last = now
	return li.energy
}
