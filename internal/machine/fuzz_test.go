package machine

import (
	"fmt"
	"math"
	"testing"

	"zen2ee/internal/cstate"
	"zen2ee/internal/power"
	"zen2ee/internal/sim"
	"zen2ee/internal/soc"
	"zen2ee/internal/workload"
)

// TestRandomOperationInvariants drives the machine with random operation
// sequences and checks global invariants after every step:
//
//   - system power stays within physical bounds,
//   - AC energy and per-thread counters are monotone,
//   - effective frequencies stay within the architectural range,
//   - the simulation never panics or deadlocks.
func TestRandomOperationInvariants(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(string(rune('a'+int(seed))), func(t *testing.T) {
			fuzzOnce(t, seed)
		})
	}
}

func fuzzOnce(t *testing.T, seed uint64) {
	cfg := DefaultConfig()
	cfg.Seed = seed
	m := New(cfg)
	rng := sim.NewRNG(seed * 977)
	kernels := workload.All()
	freqs := []int{1500, 2200, 2500}

	lastEnergy := 0.0
	lastCycles := make([]float64, m.Top.NumThreads())

	for op := 0; op < 300; op++ {
		th := soc.ThreadID(rng.Intn(m.Top.NumThreads()))
		switch rng.Intn(8) {
		case 0, 1: // start a random kernel
			k := kernels[rng.Intn(len(kernels))]
			if m.CStates.Online(th) {
				if _, err := m.StartKernel(th, k, rng.Float64()); err != nil {
					t.Fatalf("op %d: StartKernel: %v", op, err)
				}
			}
		case 2: // stop
			m.StopKernel(th)
		case 3: // frequency request
			if err := m.SetThreadFrequencyMHz(th, freqs[rng.Intn(3)]); err != nil {
				t.Fatalf("op %d: SetThreadFrequencyMHz: %v", op, err)
			}
		case 4: // offline/online (never cpu0)
			if th != 0 {
				online := m.CStates.Online(th)
				if err := m.SetOnline(th, !online); err != nil {
					t.Fatalf("op %d: SetOnline: %v", op, err)
				}
			}
		case 5: // C-state disable/enable
			s := cstate.State(1 + rng.Intn(2))
			if err := m.SetCStateEnabled(th, s, rng.Intn(2) == 0); err != nil {
				t.Fatalf("op %d: SetCStateEnabled: %v", op, err)
			}
		case 6: // weight change
			m.SetHammingWeight(th, rng.Float64())
		case 7: // I/O die knob
			m.SetDRAMClock([]int{1467, 1600}[rng.Intn(2)])
		}
		m.Eng.RunFor(rng.DurationRange(10*sim.Microsecond, 3*sim.Millisecond))

		// Invariants.
		p := m.SystemWatts()
		if p < 99.0 || p > 1500 {
			t.Fatalf("op %d: power %v W out of bounds", op, p)
		}
		e := m.EnergyJoules(m.Eng.Now())
		if e < lastEnergy {
			t.Fatalf("op %d: energy decreased %v -> %v", op, lastEnergy, e)
		}
		lastEnergy = e
		for c := 0; c < m.Top.NumCores(); c++ {
			f := m.EffectiveMHz(soc.CoreID(c))
			if f < 300 || f > 3500 {
				t.Fatalf("op %d: core %d frequency %v MHz out of range", op, c, f)
			}
		}
		// Spot-check counter monotonicity on a few threads.
		for i := 0; i < 4; i++ {
			tid := soc.ThreadID(rng.Intn(m.Top.NumThreads()))
			cyc := m.ReadCounters(tid).Cycles
			if cyc < lastCycles[tid] {
				t.Fatalf("op %d: thread %d cycles decreased", op, tid)
			}
			lastCycles[tid] = cyc
		}
	}
}

// TestFuzzDeterminism re-runs a fuzz sequence and requires identical
// observable state.
func TestFuzzDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		cfg := DefaultConfig()
		cfg.Seed = 99
		m := New(cfg)
		rng := sim.NewRNG(4242)
		for op := 0; op < 100; op++ {
			th := soc.ThreadID(rng.Intn(m.Top.NumThreads()))
			switch rng.Intn(3) {
			case 0:
				m.StartKernel(th, workload.Firestarter, 0)
			case 1:
				m.StopKernel(th)
			case 2:
				m.SetThreadFrequencyMHz(th, 2200)
			}
			m.Eng.RunFor(rng.DurationRange(sim.Microsecond, sim.Millisecond))
		}
		return m.EnergyJoules(m.Eng.Now()), m.SystemWatts()
	}
	e1, p1 := run()
	e2, p2 := run()
	if e1 != e2 || p1 != p2 {
		t.Fatalf("non-deterministic: (%v, %v) vs (%v, %v)", e1, p1, e2, p2)
	}
}

// Script opcodes of FuzzMachineScript. Each reads its arguments from the
// bytes after it (zero past the end of the script).
const (
	opStart  = iota // thread, kernel, weight: start a kernel
	opSpec          // thread, kernel1, n1, kernel2, n2: avx-turbo's test1/n1,test2/n2
	opStop          // thread: stop its kernel
	opWeight        // thread, weight: set the operand weight
	opOnline        // thread: toggle online (thread 0 stays online)
	opCState        // thread, state and enable bits: enable or disable C1 or C2
	opFreq          // thread, P-state, n: request a frequency on n threads
	opRead          // read every observable at this instant
	opRun           // d: run the engine for (d+1) × 100 µs
	opLater         // d, op: run op from an engine event (d+1) × 1 ms from now
	numOps
)

// Single reads and the SMU's writes take the top byte values instead of a
// place in the cycle above, so the seed corpus spelled in it decodes as it
// always has. A single read folds one core's counters or RAPL domain
// alone, which copies it out of its class, or hands a class owner's state
// to a follower. A cap write steps one package's cap as the SMU does, so a
// package whose cores have not changed keeps its classes; a boost write
// grants the active cores of one package a boost.
const (
	opReadThread = 255 - iota // thread: read one thread's counters
	opReadCore                // core: read one core's RAPL domain
	opCap                     // package, c: cap the package at 1000 + 10c MHz, uncap at c = 255
	opBoost                   // package, b: grant the package's active cores 2500 + 5b MHz
)

// maxScript bounds a script, so one run simulates at most ~2 s.
const maxScript = 256

// runScript runs a FuzzMachineScript script on a fresh machine and returns
// every reading it took, in order. flushed runs the refresh the moment each
// mutation is made instead of deferring it to the end of the instant.
func runScript(script []byte, flushed bool) ([]float64, error) {
	m := newMachine()
	kernels := workload.All()
	pstates := m.cfg.DVFS.PStates
	n := m.Top.NumThreads()
	pos := 0
	next := func() int {
		if pos >= len(script) {
			return 0
		}
		pos++
		return int(script[pos-1])
	}
	thread := func() soc.ThreadID { return soc.ThreadID(next() % n) }
	flush := func() {
		if flushed {
			m.flush()
		}
	}
	var out []float64
	read := func() error {
		out = append(out, m.SystemWatts(), m.EnergyJoules(m.Eng.Now()))
		if err := checkDerived(m); err != nil {
			return err
		}
		for p := range m.Top.Packages {
			out = append(out, m.RAPL.PackageEnergyJoules(soc.PackageID(p)))
		}
		for c := range m.Top.Cores {
			out = append(out, m.RAPL.CoreEnergyJoules(soc.CoreID(c)))
		}
		for t := 0; t < n; t++ {
			cs := m.ReadCounters(soc.ThreadID(t))
			out = append(out, cs.Cycles, cs.Instructions)
		}
		return nil
	}
	var eventErr error // the first error of an op run from an event
	// decode reads one op and returns it as a function to run; run marks
	// opRun, which an event may not call.
	var decode func() (op func() error, run bool)
	decode = func() (func() error, bool) {
		b := next()
		switch b {
		case opReadThread:
			th := thread()
			return func() error {
				cs := m.ReadCounters(th)
				out = append(out, cs.Cycles, cs.Instructions)
				return nil
			}, false
		case opReadCore:
			c := soc.CoreID(next() % m.Top.NumCores())
			return func() error {
				out = append(out, m.RAPL.CoreEnergyJoules(c))
				return nil
			}, false
		case opCap:
			pkg, c := soc.PackageID(next()%len(m.Top.Packages)), next()
			mhz := 1000 + 10*float64(c)
			if c == 255 {
				mhz = math.Inf(1)
			}
			return func() error { m.DVFS.SetCapMHz(pkg, mhz); flush(); return nil }, false
		case opBoost:
			pkg, b := soc.PackageID(next()%len(m.Top.Packages)), next()
			var cores []soc.CoreID
			for c := range m.Top.Cores {
				if m.Top.PackageOfCore(soc.CoreID(c)) == pkg {
					cores = append(cores, soc.CoreID(c))
				}
			}
			return func() error { m.DVFS.SetBoostsMHz(cores, 2500+5*float64(b)); flush(); return nil }, false
		}
		switch b % numOps {
		case opStart:
			th, k, w := thread(), kernels[next()%len(kernels)], float64(next())/255
			return func() error {
				// Starting a kernel on an offline thread fails in both runs alike.
				_, _ = m.StartKernel(th, k, w)
				flush()
				return nil
			}, false
		case opSpec:
			th := thread()
			k1, n1 := kernels[next()%len(kernels)], next()%(n+1)
			k2, n2 := kernels[next()%len(kernels)], next()%(n+1)
			return func() error {
				for i := 0; i < n1+n2; i++ {
					k := k1
					if i >= n1 {
						k = k2
					}
					if m.CStates.Online(th) {
						if _, err := m.StartKernel(th, k, 0); err != nil {
							return err
						}
						flush()
					}
					th = (th + 1) % soc.ThreadID(n)
				}
				return nil
			}, false
		case opStop:
			th := thread()
			return func() error { m.StopKernel(th); flush(); return nil }, false
		case opWeight:
			th, w := thread(), float64(next())/255
			return func() error { m.SetHammingWeight(th, w); flush(); return nil }, false
		case opOnline:
			th := thread()
			return func() error {
				if th == 0 {
					return nil
				}
				err := m.SetOnline(th, !m.CStates.Online(th))
				flush()
				return err
			}, false
		case opCState:
			th, a := thread(), next()
			return func() error {
				err := m.SetCStateEnabled(th, cstate.State(1+a%2), a&2 != 0)
				flush()
				return err
			}, false
		case opFreq:
			th, mhz, cnt := thread(), pstates[next()%len(pstates)].MHz, next()%(n+1)
			return func() error {
				for i := 0; i < cnt; i++ {
					if err := m.SetThreadFrequencyMHz((th+soc.ThreadID(i))%soc.ThreadID(n), mhz); err != nil {
						return err
					}
					flush()
				}
				return nil
			}, false
		case opRead:
			return read, false
		case opRun:
			d := sim.Duration(next()+1) * 100 * sim.Microsecond
			return func() error { m.Eng.RunFor(d); return nil }, true
		default: // opLater
			d := sim.Duration(next()+1) * sim.Millisecond
			op, run := decode()
			return func() error {
				if !run {
					m.Eng.Schedule(d, func() {
						if err := op(); err != nil && eventErr == nil {
							eventErr = err
						}
					})
				}
				return nil
			}, false
		}
	}
	for pos < len(script) {
		op, _ := decode()
		if err := op(); err != nil {
			return nil, fmt.Errorf("script byte %d: %v", pos, err)
		}
		if eventErr != nil {
			return nil, fmt.Errorf("event before script byte %d: %v", pos, eventErr)
		}
	}
	m.Eng.RunFor(sim.Millisecond)
	if eventErr != nil {
		return nil, fmt.Errorf("event: %v", eventErr)
	}
	return out, read()
}

// checkDerived re-derives every core and thread of a flushed machine from
// scratch and reports one whose cached input, RAPL estimate, effective
// clock or counter rates differ: a class key that missed an input, in any
// build.
func checkDerived(m *Machine) error {
	for c := range m.Top.Cores {
		core := soc.CoreID(c)
		var ci power.CoreInput
		w, eff, watts, amps := m.deriveCore(core, m.DVFS.EffectiveMHz(core), m.RAPL.Config(), &ci)
		if ci != m.inputsBuf[c] || math.Float64bits(w) != math.Float64bits(m.raplWBuf[c]) ||
			math.Float64bits(eff) != math.Float64bits(m.effBuf[c]) ||
			math.Float64bits(watts) != math.Float64bits(m.wattsBuf[c]) ||
			math.Float64bits(amps) != math.Float64bits(m.ampsBuf[c]) {
			return fmt.Errorf("core %d at %v: cached (%+v, %v W, %v MHz, %v W, %v A), derived (%+v, %v W, %v MHz, %v W, %v A)",
				c, m.Eng.Now(), m.inputsBuf[c], m.raplWBuf[c], m.effBuf[c], m.wattsBuf[c], m.ampsBuf[c], ci, w, eff, watts, amps)
		}
		for _, t := range m.Top.Cores[c].Threads {
			cyc, ins := m.deriveThread(t, &ci, eff)
			tc := m.countersOf(t)
			if cyc != tc[cycles].Rate() || ins != tc[instrs].Rate() {
				return fmt.Errorf("thread %d at %v: cached rates (%v, %v), derived (%v, %v)",
					t, m.Eng.Now(), tc[cycles].Rate(), tc[instrs].Rate(), cyc, ins)
			}
		}
	}
	return nil
}

// FuzzMachineScript decodes bytes into a timed script of mutations (start
// and stop kernels, different kernels on different threads, online changes,
// C-state enables, frequency requests, operand weights, package caps and
// boost grants), same-instant reads
// of everything or of one thread's counters or one core's RAPL domain, and
// engine runs, and runs it twice: once with each instant's refresh
// deferred to its end, once flushing after every mutation. The two runs
// refresh with different dirty sets, so cores fall into different classes,
// yet every reading (system power, AC and RAPL energies, cycles and
// instructions) must agree bit for bit. Under -tags simcheck every refresh
// and lazy read is also checked against a full recompute. The seed corpus
// is in testdata/fuzz/FuzzMachineScript.
func FuzzMachineScript(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > maxScript {
			script = script[:maxScript]
		}
		deferred, err := runScript(script, false)
		if err != nil {
			t.Fatalf("deferred: %v", err)
		}
		flushed, err := runScript(script, true)
		if err != nil {
			t.Fatalf("flushed: %v", err)
		}
		if len(deferred) != len(flushed) {
			t.Fatalf("%d readings deferred, %d flushed", len(deferred), len(flushed))
		}
		for i := range deferred {
			if math.Float64bits(deferred[i]) != math.Float64bits(flushed[i]) {
				t.Fatalf("reading %d: deferred %v, flushed %v", i, deferred[i], flushed[i])
			}
		}
	})
}
