package zen2ee_test

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"strings"

	"zen2ee"
)

// Build the simulated dual-EPYC-7502 system, load it, and read the three
// observability layers the paper uses: effective frequency (perf), RAPL
// (MSRs) and the external AC reference meter.
func Example_quickstart() {
	sys := zen2ee.NewSystem()
	meter := sys.AttachMeter()

	// An idle, well-configured Rome system sleeps deeply.
	idle, err := meter.MeasureWatts(1000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("idle (all threads in C2, package deep sleep): %6.1f W\n", idle)

	// Load every hardware thread with the FIRESTARTER FMA kernel.
	if err := sys.SetAllFrequenciesMHz(2500); err != nil {
		log.Fatal(err)
	}
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		if err := sys.Run(cpu, "firestarter"); err != nil {
			log.Fatal(err)
		}
	}
	sys.AdvanceMillis(300) // let the EDC manager converge
	sys.Preheat()

	loaded, err := meter.MeasureWatts(1000)
	if err != nil {
		log.Fatal(err)
	}
	st := sys.Stat(0, 500)
	rapl := sys.RAPLPackageWatts(0, 500)

	fmt.Printf("FIRESTARTER on %d threads:\n", sys.NumCPUs())
	fmt.Printf("  effective frequency: %6.3f GHz (set 2.5 — EDC throttling)\n", st.GHz)
	// Stat is per hardware thread; with both SMT siblings running the
	// same kernel the core IPC is twice the per-thread value.
	fmt.Printf("  core IPC:            %6.2f (%.2f per thread)\n", 2*st.IPC, st.IPC)
	fmt.Printf("  AC reference:        %6.1f W\n", loaded)
	fmt.Printf("  RAPL package 0:      %6.1f W (TDP 180 W — note the gap to AC)\n", rapl)
	fmt.Printf("  package temperature: %6.1f °C\n", sys.TempC())
	// Output:
	// idle (all threads in C2, package deep sleep):   99.1 W
	// FIRESTARTER on 128 threads:
	//   effective frequency:  2.020 GHz (set 2.5 — EDC throttling)
	//   core IPC:              3.56 (1.78 per thread)
	//   AC reference:         505.9 W
	//   RAPL package 0:       169.0 W (TDP 180 W — note the gap to AC)
	//   package temperature:   65.4 °C
}

// Measure frequency-transition delays the way §V-B of the paper does:
// request a switch, poll until the new performance level is reached,
// repeat with random waits. This reveals the 1 ms transition-slot grid and
// the fast-return anomaly between the two highest P-states.
func Example_dvfsLatency() {
	sys := zen2ee.NewSystem()
	const cpu = 0
	if err := sys.SetFrequencyMHz(cpu, 2200); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(cpu, "busywait"); err != nil {
		log.Fatal(err)
	}
	sys.AdvanceMillis(20)

	// 2.2 -> 1.5 GHz with random 0-10 ms waits: uniform 390-1390 µs.
	rng := rand.New(rand.NewSource(1))
	var delays []float64
	for i := 0; i < 200; i++ {
		sys.AdvanceMillis(rng.Float64() * 10)
		delays = append(delays, measureSwitch(sys, cpu, 1500))
		sys.AdvanceMillis(6) // settle
		measureSwitch(sys, cpu, 2200)
		sys.AdvanceMillis(6)
	}
	lo, hi, sum := delays[0], delays[0], 0.0
	for _, d := range delays {
		lo, hi, sum = min(lo, d), max(hi, d), sum+d
	}
	fmt.Printf("2.2 -> 1.5 GHz over %d samples:\n", len(delays))
	fmt.Printf("  min %.0f µs, max %.0f µs, mean %.0f µs\n", lo, hi, sum/float64(len(delays)))
	fmt.Printf("  spread ≈ %.0f µs  ⇒ transition-initiation slots on a 1 ms grid\n\n", hi-lo)

	// Histogram (100 µs bins).
	counts := make([]int, 16)
	for _, d := range delays {
		b := int(d / 100)
		if b >= 0 && b < len(counts) {
			counts[b]++
		}
	}
	for b, c := range counts {
		if c > 0 {
			fmt.Printf("  %4d-%4d µs  %s\n", b*100, b*100+99, strings.Repeat("#", c))
		}
	}

	// Fast-return anomaly: 2.5 -> 2.2 and immediately back.
	fmt.Println("\nfast-return anomaly (2.5 ↔ 2.2 GHz, return within 5 ms):")
	measureSwitch(sys, cpu, 2500)
	sys.AdvanceMillis(20)
	down := measureSwitch(sys, cpu, 2200)
	sys.AdvanceMillis(0.5)
	up := measureSwitch(sys, cpu, 2500)
	fmt.Printf("  2.5→2.2: %.0f µs, immediate return 2.2→2.5: %.0f µs (quasi-instantaneous)\n", down, up)
	fmt.Println("  the previous transition had set the frequency but not settled the voltage")
	// Output:
	// 2.2 -> 1.5 GHz over 200 samples:
	//   min 405 µs, max 1390 µs, mean 890 µs
	//   spread ≈ 985 µs  ⇒ transition-initiation slots on a 1 ms grid
	//
	//    400- 499 µs  ##################
	//    500- 599 µs  ###################
	//    600- 699 µs  ################
	//    700- 799 µs  ##############################
	//    800- 899 µs  ##################
	//    900- 999 µs  ################
	//   1000-1099 µs  #############################
	//   1100-1199 µs  ####################
	//   1200-1299 µs  #####################
	//   1300-1399 µs  #############
	//
	// fast-return anomaly (2.5 ↔ 2.2 GHz, return within 5 ms):
	//   2.5→2.2: 1030 µs, immediate return 2.2→2.5: 5 µs (quasi-instantaneous)
	//   the previous transition had set the frequency but not settled the voltage
}

// measureSwitch requests targetMHz on cpu and returns the microseconds
// until its core runs at that frequency, polling every 5 µs for at most
// 20 ms.
func measureSwitch(sys *zen2ee.System, cpu, targetMHz int) float64 {
	if err := sys.SetFrequencyMHz(cpu, targetMHz); err != nil {
		log.Fatal(err)
	}
	target := float64(targetMHz) / 1000
	us := 0.0
	for sys.CoreGHz(sys.CoreOf(cpu)) != target && us < 20000 {
		sys.AdvanceMicros(5)
		us += 5
	}
	return us
}

// Walk through the idle-power ladder of §VI: the deep-sleep floor, the
// disproportionate cost of the first awake thread, the tiny per-core costs
// after that, and the offline-thread trap that pins an otherwise idle
// system at C1-level power.
func Example_idlePowerAudit() {
	sys := zen2ee.NewSystem()
	sys.AdvanceMillis(20)

	fmt.Println("idle power audit — simulated 2x EPYC 7502")
	fmt.Println()
	floor := sys.PowerWatts()
	fmt.Printf("%-48s %7.1f W\n", "all 128 threads in C2 (package deep sleep):", floor)

	// Put one thread in C1 by disabling its C2 state.
	if err := sys.SetCStateEnabled(0, 2, false); err != nil {
		log.Fatal(err)
	}
	sys.AdvanceMillis(5)
	one := sys.PowerWatts()
	fmt.Printf("%-48s %7.1f W  (+%.1f)\n", "one thread in C1 — I/O die leaves deep sleep:", one, one-floor)

	// The rest of package 0's first threads.
	for cpu := 1; cpu < 32; cpu++ {
		if err := sys.SetCStateEnabled(cpu, 2, false); err != nil {
			log.Fatal(err)
		}
	}
	sys.AdvanceMillis(5)
	many := sys.PowerWatts()
	fmt.Printf("%-48s %7.1f W  (+%.2f per core)\n", "32 cores in C1:", many, (many-one)/31)

	// Restore, then demonstrate the offline trap.
	for cpu := 0; cpu < 32; cpu++ {
		if err := sys.SetCStateEnabled(cpu, 2, true); err != nil {
			log.Fatal(err)
		}
	}
	sys.AdvanceMillis(5)
	fmt.Printf("%-48s %7.1f W\n", "C2 re-enabled everywhere:", sys.PowerWatts())
	fmt.Println()

	fmt.Println("the offline-thread trap (§VI-B):")
	for core := 0; core < 32; core++ {
		if err := sys.SetOnline(sys.SiblingOf(core), false); err != nil {
			log.Fatal(err)
		}
	}
	sys.AdvanceMillis(5)
	trapped := sys.PowerWatts()
	fmt.Printf("%-48s %7.1f W  (+%.1f!)\n", "32 sibling threads offlined via sysfs:", trapped, trapped-floor)
	for core := 0; core < 32; core++ {
		if err := sys.SetOnline(sys.SiblingOf(core), true); err != nil {
			log.Fatal(err)
		}
	}
	sys.AdvanceMillis(5)
	fmt.Printf("%-48s %7.1f W\n", "threads explicitly re-onlined:", sys.PowerWatts())
	fmt.Println()
	fmt.Println("=> do not disable hardware threads on Rome; manage C-states instead.")
	// Output:
	// idle power audit — simulated 2x EPYC 7502
	//
	// all 128 threads in C2 (package deep sleep):         99.1 W
	// one thread in C1 — I/O die leaves deep sleep:      180.4 W  (+81.3)
	// 32 cores in C1:                                    183.2 W  (+0.09 per core)
	// C2 re-enabled everywhere:                           99.1 W
	//
	// the offline-thread trap (§VI-B):
	// 32 sibling threads offlined via sysfs:             183.2 W  (+84.1!)
	// threads explicitly re-onlined:                      99.1 W
	//
	// => do not disable hardware threads on Rome; manage C-states instead.
}

// Drive a FIRESTARTER-2-style dynamic load pattern (a square wave between
// dense FMA load and idle) and watch the power-management machinery
// respond: EDC throttling re-converges on every load phase and the package
// drops back into deep sleep on every idle phase.
func Example_loadPattern() {
	sys := zen2ee.NewSystem()
	if err := sys.SetAllFrequenciesMHz(2500); err != nil {
		log.Fatal(err)
	}

	cpus := make([]int, sys.NumCPUs())
	for i := range cpus {
		cpus[i] = i
	}
	stop, err := sys.StartPattern(cpus, []zen2ee.PhaseSpec{
		{Kernel: "firestarter", DurationMs: 100},
		{DurationMs: 100}, // idle
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stop()

	fmt.Println("100 ms FIRESTARTER / 100 ms idle square wave on all 128 threads")
	fmt.Printf("%10s  %10s  %12s\n", "t [ms]", "AC [W]", "core0 [GHz]")
	for i := 0; i < 30; i++ {
		sys.AdvanceMillis(20)
		fmt.Printf("%10.0f  %10.1f  %12.3f\n",
			sys.NowSeconds()*1000, sys.PowerWatts(), sys.CoreGHz(0))
	}
	fmt.Println()
	fmt.Println("during load phases the EDC manager steps the clock down from 2.5 GHz;")
	fmt.Println("during idle phases all threads park in C2 and power falls toward the")
	fmt.Println("99 W deep-sleep floor — the dynamics behind the paper's Figs. 6 and 7.")
	// Output:
	// 100 ms FIRESTARTER / 100 ms idle square wave on all 128 threads
	//     t [ms]      AC [W]   core0 [GHz]
	//         20       504.5         2.000
	//         40       504.5         2.025
	//         60       510.9         2.050
	//         80       504.5         2.000
	//        100        99.1         2.050
	//        120        99.1         2.500
	//        140        99.1         2.500
	//        160        99.1         2.500
	//        180        99.1         2.500
	//        200       694.7         2.500
	//        220       504.5         2.000
	//        240       507.7         2.025
	//        260       507.7         2.025
	//        280       507.7         2.025
	//        300        99.1         2.025
	//        320        99.1         2.500
	//        340        99.1         2.500
	//        360        99.1         2.500
	//        380        99.1         2.500
	//        400       694.7         2.500
	//        420       501.3         2.000
	//        440       507.7         2.025
	//        460       504.5         2.000
	//        480       507.7         2.000
	//        500        99.1         2.025
	//        520        99.1         2.500
	//        540        99.1         2.500
	//        560        99.1         2.500
	//        580        99.1         2.500
	//        600       694.7         2.500
	//
	// during load phases the EDC manager steps the clock down from 2.5 GHz;
	// during idle phases all threads park in C2 and power falls toward the
	// 99 W deep-sleep floor — the dynamics behind the paper's Figs. 6 and 7.
}

// Sweep the BIOS knobs of §V-D (I/O-die P-state and DRAM frequency)
// against STREAM bandwidth, memory latency and idle power, and reproduce
// the paper's recommendation: the "auto" I/O-die setting performs well in
// all scenarios.
func Example_memoryTuning() {
	fmt.Println("memory tuning sweep — 4 STREAM cores on one CCD")
	fmt.Printf("%-8s %-10s %12s %12s %10s\n", "IOD", "DRAM[MHz]", "BW [GB/s]", "lat [ns]", "idle [W]")

	type key struct {
		iod  string
		dram int
	}
	best := map[string]key{}
	bestVal := map[string]float64{"bw": 0, "lat": 1e18, "power": 1e18}

	for _, iod := range zen2ee.IODieSettings() {
		for _, dram := range []int{1467, 1600} {
			sys := zen2ee.NewSystem()
			if err := sys.SetIODieSetting(iod); err != nil {
				log.Fatal(err)
			}
			if err := sys.SetDRAMClockMHz(dram); err != nil {
				log.Fatal(err)
			}
			if err := sys.SetAllFrequenciesMHz(2500); err != nil {
				log.Fatal(err)
			}
			// Idle power with the I/O die awake (one thread in C1).
			if err := sys.SetCStateEnabled(0, 2, false); err != nil {
				log.Fatal(err)
			}
			sys.AdvanceMillis(10)
			idle := sys.PowerWatts()
			if err := sys.SetCStateEnabled(0, 2, true); err != nil {
				log.Fatal(err)
			}

			// STREAM on four cores of CCD 0.
			for c := 0; c < 4; c++ {
				if err := sys.Run(c, "stream_triad"); err != nil {
					log.Fatal(err)
				}
			}
			sys.AdvanceMillis(50)
			bw := sys.MemoryTrafficGBs()
			lat := sys.DRAMLatencyNs()
			fmt.Printf("%-8s %-10d %12.1f %12.1f %10.1f\n", iod, dram, bw, lat, idle)

			if bw > bestVal["bw"] {
				bestVal["bw"], best["bw"] = bw, key{iod, dram}
			}
			if lat < bestVal["lat"] {
				bestVal["lat"], best["lat"] = lat, key{iod, dram}
			}
			if idle < bestVal["power"] {
				bestVal["power"], best["power"] = idle, key{iod, dram}
			}
		}
	}

	fmt.Println()
	fmt.Printf("best bandwidth: %s @ %d MHz (%.1f GB/s)\n", best["bw"].iod, best["bw"].dram, bestVal["bw"])
	fmt.Printf("best latency:   %s @ %d MHz (%.1f ns)\n", best["lat"].iod, best["lat"].dram, bestVal["lat"])
	fmt.Printf("lowest power:   %s @ %d MHz (%.1f W)\n", best["power"].iod, best["power"].dram, bestVal["power"])
	fmt.Println()
	fmt.Println("note the non-monotonic latency (P2 beats P0 at 1.6 GHz DRAM): when the")
	fmt.Println("fabric and memory clock domains mismatch, crossings cost extra — the")
	fmt.Println("\"auto\" setting couples FCLK to MEMCLK and performs well everywhere.")
	// Output:
	// memory tuning sweep — 4 STREAM cores on one CCD
	// IOD      DRAM[MHz]     BW [GB/s]     lat [ns]   idle [W]
	// P3       1467               31.7        142.0      164.9
	// P3       1600               30.6        137.0      164.9
	// P2       1467               39.6        101.0      175.2
	// P2       1600               40.1        104.0      175.2
	// P1       1467               38.8        113.0      177.8
	// P1       1600               39.5        110.0      177.8
	// P0       1467               38.1         96.0      180.4
	// P0       1600               38.6        109.0      180.4
	// auto     1467               38.2         92.0      180.4
	// auto     1600               38.8        104.0      180.4
	//
	// best bandwidth: P2 @ 1600 MHz (40.1 GB/s)
	// best latency:   auto @ 1467 MHz (92.0 ns)
	// lowest power:   P3 @ 1467 MHz (164.9 W)
	//
	// note the non-monotonic latency (P2 beats P0 at 1.6 GHz DRAM): when the
	// fabric and memory clock domains mismatch, crossings cost extra — the
	// "auto" setting couples FCLK to MEMCLK and performs well everywhere.
}

// Rerun the §VII-B operand-Hamming-weight study: can an attacker
// (PLATYPUS-style) distinguish processed data through the RAPL interface?
// On Zen 2, the external meter separates vxorps operand weights by ~21 W
// with no distribution overlap, while the modeled RAPL readings barely
// move: the model's blindness doubles as side-channel hardening.
func Example_raplSidechannel() {
	sys := zen2ee.NewSystem()
	meter := sys.AttachMeter()
	if err := sys.SetAllFrequenciesMHz(2500); err != nil {
		log.Fatal(err)
	}
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		if err := sys.RunWeighted(cpu, "vxorps", 0); err != nil {
			log.Fatal(err)
		}
	}
	sys.AdvanceMillis(200)
	sys.Preheat()

	weights := []float64{0, 0.5, 1}
	ac := map[float64][]float64{}
	rapl := map[float64][]float64{}
	rng := rand.New(rand.NewSource(7))

	const blocks = 45
	for b := 0; b < blocks; b++ {
		w := weights[rng.Intn(len(weights))]
		for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
			if err := sys.RunWeighted(cpu, "vxorps", w); err != nil {
				log.Fatal(err)
			}
		}
		sys.AdvanceMillis(60) // let boundary-straddling meter samples pass
		watts, err := meter.MeasureWatts(300)
		if err != nil {
			log.Fatal(err)
		}
		ac[w] = append(ac[w], watts)
		rapl[w] = append(rapl[w], sys.RAPLCoreWatts(0, 300))
	}

	fmt.Println("vxorps operand Hamming weight study (all 128 threads):")
	fmt.Printf("%8s  %14s  %18s\n", "weight", "AC mean [W]", "RAPL core0 [W]")
	for _, w := range weights {
		fmt.Printf("%8.1f  %14.1f  %18.4f\n", w, mean(ac[w]), mean(rapl[w]))
	}

	sep := mean(ac[1]) - mean(ac[0])
	raplRel := (mean(rapl[1]) - mean(rapl[0])) / mean(rapl[0]) * 100
	fmt.Printf("\nexternal meter separates weights by %.1f W (%.1f%%) — ", sep, sep/mean(ac[0])*100)
	if overlap(ac[0], ac[1]) {
		fmt.Println("distributions overlap")
	} else {
		fmt.Println("no overlap: data is recoverable from a physical measurement")
	}
	fmt.Printf("RAPL core means differ by %+.3f%% — ", raplRel)
	if overlap(rapl[0], rapl[1]) {
		fmt.Println("distributions strongly overlap: the modeled RAPL leaks (almost) nothing")
	} else {
		fmt.Println("separable")
	}
	// Output:
	// vxorps operand Hamming weight study (all 128 threads):
	//   weight     AC mean [W]      RAPL core0 [W]
	//      0.0           269.4              1.9923
	//      0.5           279.8              1.9939
	//      1.0           290.4              1.9915
	//
	// external meter separates weights by 21.0 W (7.8%) — no overlap: data is recoverable from a physical measurement
	// RAPL core means differ by -0.041% — distributions strongly overlap: the modeled RAPL leaks (almost) nothing
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// overlap reports whether the two samples' ranges intersect.
func overlap(a, b []float64) bool {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	return as[len(as)-1] >= bs[0] && bs[len(bs)-1] >= as[0]
}
