package zen2ee

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper, each regenerating the artifact through the same experiment
// runner the CLI uses, and reporting the headline quantities as custom
// benchmark metrics. Ablation benchmarks isolate the design choices called
// out in DESIGN.md (slot grid, EDC manager, CCX coupling, modeled-vs-
// measured RAPL, Intel idle baseline).
//
// Run with: go test -bench=. -benchmem

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"zen2ee/internal/core"
	"zen2ee/internal/report"
	"zen2ee/internal/service"
)

// benchOptions keeps each iteration fast while staying statistically
// meaningful; the CLI exposes the paper's full sample counts.
func benchOptions(i int) core.Options {
	return core.Options{Scale: 0.2, Seed: uint64(i + 1)}
}

// runArtifact executes one registered experiment per iteration and reports
// selected metrics from the final run.
func runArtifact(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	var last *core.Result
	for i := 0; i < b.N; i++ {
		var err error
		if last, err = core.RunOne(id, benchOptions(i)); err != nil {
			b.Fatal(err)
		}
	}
	for key, unit := range metrics {
		if v, ok := last.Metric(key); ok {
			b.ReportMetric(v, unit)
		} else {
			b.Fatalf("experiment %s has no metric %q", id, key)
		}
	}
}

func BenchmarkFig1Green500(b *testing.B) {
	runArtifact(b, "fig1", map[string]string{"rome_median": "GFlops/W"})
}

func BenchmarkSec5AIdleSibling(b *testing.B) {
	runArtifact(b, "sec5a", map[string]string{"idle_sibling_ghz": "GHz"})
}

func BenchmarkFig3TransitionHistogram(b *testing.B) {
	runArtifact(b, "fig3", map[string]string{
		"min_us": "µs/min", "max_us": "µs/max", "mean_us": "µs/mean",
	})
}

func BenchmarkSec5BFastReturn(b *testing.B) {
	runArtifact(b, "sec5b", map[string]string{
		"min_up_us": "µs/up", "min_down_us": "µs/down",
	})
}

func BenchmarkTable1MixedFrequencies(b *testing.B) {
	runArtifact(b, "tab1", map[string]string{
		"set2200_others2500": "GHz/2.2|2.5", "set1500_others2500": "GHz/1.5|2.5",
	})
}

func BenchmarkFig4L3Latency(b *testing.B) {
	runArtifact(b, "fig4", map[string]string{
		"reader1500_others1500_ns": "ns/slow", "reader1500_others2500_ns": "ns/boosted",
	})
}

func BenchmarkFig5aStreamBandwidth(b *testing.B) {
	runArtifact(b, "fig5a", map[string]string{
		"bw_P2_1600_4": "GB/s/best", "bw_P3_1467_1": "GB/s/worst1c",
	})
}

func BenchmarkFig5bMemoryLatency(b *testing.B) {
	runArtifact(b, "fig5b", map[string]string{
		"lat_auto_1467": "ns/auto", "lat_P0_1467": "ns/P0",
	})
}

func BenchmarkFig6Firestarter(b *testing.B) {
	runArtifact(b, "fig6", map[string]string{
		"smt_freq_ghz": "GHz/smt", "nosmt_freq_ghz": "GHz/nosmt",
		"smt_ac_watts": "W/smt", "smt_rapl_pkg_watts": "W/rapl",
	})
}

func BenchmarkFig7IdlePowerSweep(b *testing.B) {
	runArtifact(b, "fig7", map[string]string{
		"floor_watts": "W/floor", "first_c1_watts": "W/firstC1",
		"active_core_slope_watts": "W/activecore",
	})
}

func BenchmarkSec6ACPITable(b *testing.B) {
	runArtifact(b, "sec6acpi", map[string]string{"c2_latency_us": "µs/acpiC2"})
}

func BenchmarkSec6BOfflineAnomaly(b *testing.B) {
	runArtifact(b, "sec6b", map[string]string{"offline_watts": "W/offline"})
}

func BenchmarkFig8WakeupLatency(b *testing.B) {
	runArtifact(b, "fig8", map[string]string{
		"C1_2500_local_median_us": "µs/C1", "C2_2500_local_median_us": "µs/C2",
	})
}

func BenchmarkSec7RAPLUpdateRate(b *testing.B) {
	runArtifact(b, "sec7u", map[string]string{"update_interval_ms": "ms/update"})
}

func BenchmarkFig9RAPLQuality(b *testing.B) {
	runArtifact(b, "fig9", map[string]string{
		"fit_slope": "slope", "mem_pkg_over_ac": "ratio/mem",
		"compute_pkg_over_ac": "ratio/compute",
	})
}

func BenchmarkFig10HammingWeight(b *testing.B) {
	runArtifact(b, "fig10", map[string]string{
		"ac_swing_watts": "W/swing", "rapl_core_overlap": "overlap",
	})
}

func BenchmarkSec7BShr(b *testing.B) {
	runArtifact(b, "sec7b", map[string]string{"ac_rel_diff": "rel/ac"})
}

func BenchmarkExtBoost(b *testing.B) {
	runArtifact(b, "extboost", map[string]string{
		"light_boost_ghz": "GHz/light", "dense_boost_ghz": "GHz/dense",
	})
}

func BenchmarkExt7742Throttling(b *testing.B) {
	runArtifact(b, "ext7742", map[string]string{
		"rel_7502": "frac/7502", "rel_7742": "frac/7742",
	})
}

// --- Scheduler ---

// BenchmarkRunAllSerial and BenchmarkRunAllParallel measure the full-suite
// wall time through the scheduler on one worker and on every CPU. The
// experiments are independent simulations, so the parallel run should scale
// to ≥2× on 4+ cores (compare ns/op between the two).
func BenchmarkRunAllSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunIDsConfig(nil, core.Options{Scale: 0.1, Seed: 1}, core.RunConfig{Workers: 1}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunAllParallel(b *testing.B) {
	workers := runtime.NumCPU()
	b.ReportMetric(float64(workers), "workers")
	for i := 0; i < b.N; i++ {
		if _, err := core.RunIDsConfig(nil, core.Options{Scale: 0.1, Seed: 1}, core.RunConfig{Workers: workers}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Monolithic and BenchmarkFig7Sharded measure intra-experiment
// sharding on its headline case: fig7's C-state enumeration sweep run by
// core.RunOne on one worker versus fanned shard-by-shard across a pool of
// every CPU. Both compute byte-identical results; compare ns/op for the
// intra-experiment speedup (visible on multi-core runners only).
func BenchmarkFig7Monolithic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := core.RunOne("fig7", core.Options{Scale: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Sharded(b *testing.B) {
	workers := runtime.NumCPU()
	b.ReportMetric(float64(workers), "workers")
	for i := 0; i < b.N; i++ {
		if _, err := core.RunIDsConfig([]string{"fig7"}, core.Options{Scale: 1, Seed: 1}, core.RunConfig{Workers: workers}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepBatchedVsSequential measures the sweep-first API's
// headline: one batched 4-configuration sweep (one merged shard set over
// every (config, experiment, shard) triple, one worker pool) against the
// same four configurations submitted as sequential single runs. Both
// compute byte-identical per-config documents; the batched form keeps the
// pool saturated across configuration boundaries, so the gap widens with
// core count (this dev container has a single CPU; see CI's BENCH_4
// artifact for multi-core numbers).
func BenchmarkSweepBatchedVsSequential(b *testing.B) {
	ids := []string{"fig7"}
	configs := core.Grid([]float64{0.5}, []uint64{1, 2, 3, 4})
	workers := runtime.NumCPU()

	b.Run("batched", func(b *testing.B) {
		b.ReportMetric(float64(workers), "workers")
		for i := 0; i < b.N; i++ {
			if _, err := core.RunSweep(core.Sweep{IDs: ids, Configs: configs},
				core.RunConfig{Workers: workers}, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sequential", func(b *testing.B) {
		b.ReportMetric(float64(workers), "workers")
		for i := 0; i < b.N; i++ {
			for _, c := range configs {
				if _, err := core.RunIDsConfig(ids, c, core.RunConfig{Workers: workers}, nil); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkSweepMemory pins the streaming sweep pipeline's memory bound:
// peak live heap across the full stream path (scheduler → MarshalResults →
// SweepWriter) must track the configurations in flight, not the sweep
// size. Every delivered configuration forces a GC and samples the live
// heap over the pre-run baseline; compare live-B/config across the
// sub-benchmarks — quadrupling the config count should leave it roughly
// flat (sublinear growth of the peak), where the old collect-everything
// pipeline grew it linearly.
func BenchmarkSweepMemory(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("configs=%d", n), func(b *testing.B) {
			seeds := make([]uint64, n)
			for i := range seeds {
				seeds[i] = uint64(i + 1)
			}
			sw := core.Sweep{IDs: []string{"fig1", "sec5a"}, Configs: core.Grid([]float64{0.2}, seeds)}
			ids, err := core.CanonicalIDs(sw.IDs)
			if err != nil {
				b.Fatal(err)
			}
			var peak uint64
			for i := 0; i < b.N; i++ {
				runtime.GC()
				var base runtime.MemStats
				runtime.ReadMemStats(&base)
				w, err := report.NewSweepWriter(io.Discard, ids, sw.Configs)
				if err != nil {
					b.Fatal(err)
				}
				// onConfig runs on a scheduler worker goroutine, so failures
				// are carried out rather than b.Fatal'ed in place.
				var cbErr error
				err = core.RunSweepStream(sw, core.RunConfig{Workers: 2}, func(_ int, cr core.ConfigResult, cerr error) {
					if cbErr != nil || cerr != nil {
						return
					}
					doc, merr := report.MarshalResults(cr.Results, cr.Config)
					if merr != nil {
						cbErr = merr
						return
					}
					if werr := w.WriteSection(doc); werr != nil {
						cbErr = werr
						return
					}
					runtime.GC()
					var ms runtime.MemStats
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > base.HeapAlloc && ms.HeapAlloc-base.HeapAlloc > peak {
						peak = ms.HeapAlloc - base.HeapAlloc
					}
				}, nil)
				if err == nil {
					err = cbErr
				}
				if err == nil {
					err = w.Close()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(peak), "live-B/peak")
			b.ReportMetric(float64(peak)/float64(n), "live-B/config")
		})
	}
}

// --- Service ---

// submitServiceJob posts a job spec to a zen2eed instance and returns the
// job's content-addressed ID.
func submitServiceJob(b *testing.B, base, spec string) string {
	b.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		b.Fatal(err)
	}
	if st.ID == "" {
		b.Fatalf("submission rejected with status %d", resp.StatusCode)
	}
	return st.ID
}

// waitServiceJob blocks on the job's SSE stream, which closes when the job
// reaches a terminal state.
func waitServiceJob(b *testing.B, base, id string) {
	b.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServiceColdRun measures the daemon's uncached job path end to
// end over HTTP: submit, stream progress, run the simulation, encode. Each
// iteration uses a fresh seed so the content-addressed cache never hits.
func BenchmarkServiceColdRun(b *testing.B) {
	srv := service.New(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := fmt.Sprintf(`{"ids":["sec5a"],"scale":0.2,"seed":%d}`, i+1)
		waitServiceJob(b, ts.URL, submitServiceJob(b, ts.URL, spec))
	}
}

// BenchmarkServiceCachedRun measures the hit path — the "millions of users"
// traffic shape where identical requests are served from the
// content-addressed cache without touching the simulator. Compare ns/op
// against BenchmarkServiceColdRun for the cache's leverage.
func BenchmarkServiceCachedRun(b *testing.B) {
	srv := service.New(service.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	const spec = `{"ids":["sec5a"],"scale":0.2,"seed":1}`
	waitServiceJob(b, ts.URL, submitServiceJob(b, ts.URL, spec))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitServiceJob(b, ts.URL, spec)
	}
}

// --- Ablations ---

// BenchmarkAblationSlotGrid contrasts the Zen 2 transition timing (1 ms
// grid, ~390 µs ramp) with the Intel Haswell baseline (500 µs, 21–24 µs).
func BenchmarkAblationSlotGrid(b *testing.B) {
	measure := func(sys *System) float64 {
		sys.SetFrequencyMHz(0, 2200)
		sys.Run(0, "busywait")
		sys.AdvanceMillis(20)
		total := 0.0
		const n = 20
		for i := 0; i < n; i++ {
			target := 1500
			if i%2 == 1 {
				target = 2200
			}
			sys.SetFrequencyMHz(0, target)
			us := 0.0
			for sys.CoreGHz(0) != float64(target)/1000 && us < 20000 {
				sys.AdvanceMicros(10)
				us += 10
			}
			total += us
			sys.AdvanceMillis(7)
		}
		return total / n
	}
	var zen, intel float64
	for i := 0; i < b.N; i++ {
		zen = measure(NewSystem(WithSeed(uint64(i + 1))))
		intel = measure(NewSystem(WithSeed(uint64(i+1)), WithIntelSlotGrid()))
	}
	b.ReportMetric(zen, "µs/zen2")
	b.ReportMetric(intel, "µs/intel")
	if intel >= zen {
		b.Fatalf("Intel grid (%v µs) should beat Zen 2 (%v µs)", intel, zen)
	}
}

// BenchmarkAblationNoEDC reruns the Fig. 6 load without the SMU throttle
// loops: frequency stays at nominal and power rises far beyond the Fig. 6
// measurement.
func BenchmarkAblationNoEDC(b *testing.B) {
	run := func(opts ...Option) (float64, float64) {
		sys := NewSystem(opts...)
		sys.SetAllFrequenciesMHz(2500)
		for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
			sys.Run(cpu, "firestarter")
		}
		sys.AdvanceMillis(300)
		return sys.CoreGHz(0), sys.PowerWatts()
	}
	var fOn, pOn, fOff, pOff float64
	for i := 0; i < b.N; i++ {
		fOn, pOn = run(WithSeed(uint64(i + 1)))
		fOff, pOff = run(WithSeed(uint64(i+1)), WithoutEDCManager())
	}
	b.ReportMetric(fOn, "GHz/edc")
	b.ReportMetric(fOff, "GHz/noedc")
	b.ReportMetric(pOn, "W/edc")
	b.ReportMetric(pOff, "W/noedc")
	if fOff <= fOn {
		b.Fatal("ablated EDC did not raise frequency")
	}
}

// BenchmarkAblationCCXCoupling reruns the Table I headline cell with the
// coupling model disabled.
func BenchmarkAblationCCXCoupling(b *testing.B) {
	run := func(opts ...Option) float64 {
		sys := NewSystem(opts...)
		sys.SetFrequencyMHz(0, 2200)
		sys.Run(0, "busywait")
		for c := 1; c < 4; c++ {
			sys.SetFrequencyMHz(c, 2500)
			sys.Run(c, "busywait")
		}
		sys.AdvanceMillis(50)
		return sys.CoreGHz(0)
	}
	var with, without float64
	for i := 0; i < b.N; i++ {
		with = run(WithSeed(uint64(i + 1)))
		without = run(WithSeed(uint64(i+1)), WithoutCCXCoupling())
	}
	b.ReportMetric(with, "GHz/coupled")
	b.ReportMetric(without, "GHz/ablated")
	if without <= with {
		b.Fatal("coupling ablation had no effect")
	}
}

// haswellRAPLErrorRel is the relative error of Haswell's measured RAPL
// against AC power: the residual once one function maps RAPL domains
// (package plus DRAM) to system power.
const haswellRAPLErrorRel = 0.01

// BenchmarkAblationRAPLMeasured contrasts AMD's modeled RAPL with a
// Haswell-style measured RAPL: on the measured baseline a single function
// maps domain power to AC power; on Zen 2 the memory workloads break any
// such function (the Fig. 9 finding).
func BenchmarkAblationRAPLMeasured(b *testing.B) {
	var spreadAMD, spreadIntel float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunOne("fig9", benchOptions(i))
		if err != nil {
			b.Fatal(err)
		}
		acs := r.Series["ac_watts"]
		pkgs := r.Series["rapl_pkg_watts"]
		// AMD: spread of AC-to-RAPL ratios across workloads.
		minR, maxR := 10.0, 0.0
		for j := range acs {
			ratio := pkgs[j] / acs[j]
			if ratio < minR {
				minR = ratio
			}
			if ratio > maxR {
				maxR = ratio
			}
		}
		spreadAMD = maxR - minR
		// Intel baseline: a measured RAPL covering DRAM reproduces AC
		// through one function; residual spread is the instrument error.
		spreadIntel = 2 * haswellRAPLErrorRel
	}
	b.ReportMetric(spreadAMD, "ratio-spread/amd")
	b.ReportMetric(spreadIntel, "ratio-spread/intel")
	if spreadAMD <= spreadIntel {
		b.Fatal("modeled RAPL should show a much wider AC-ratio spread than measured RAPL")
	}
}

// skylakeWattsPerActiveCore is the system power each additional active
// (pause-looping) core adds on a Skylake-SP node, about 10× Rome's ~0.33 W.
const skylakeWattsPerActiveCore = 3.5

// BenchmarkAblationIntelBaseline contrasts the per-active-core idle cost:
// ~0.33 W on Rome vs ~3.5 W on Skylake-SP (about 10×).
func BenchmarkAblationIntelBaseline(b *testing.B) {
	var amdSlope float64
	for i := 0; i < b.N; i++ {
		sys := NewSystem(WithSeed(uint64(i + 1)))
		sys.SetAllFrequenciesMHz(2500)
		sys.AdvanceMillis(20)
		sys.Run(0, "pause")
		sys.AdvanceMillis(5)
		p1 := sys.PowerWatts()
		for cpu := 1; cpu <= 16; cpu++ {
			sys.Run(cpu, "pause")
		}
		sys.AdvanceMillis(5)
		amdSlope = (sys.PowerWatts() - p1) / 16
	}
	intelSlope := skylakeWattsPerActiveCore
	b.ReportMetric(amdSlope, "W/amdcore")
	b.ReportMetric(intelSlope, "W/intelcore")
	if intelSlope < 8*amdSlope {
		b.Fatalf("Skylake per-core cost (%v) should be ~10x Rome (%v)", intelSlope, amdSlope)
	}
}

// BenchmarkMachineRefresh measures advancing a steady, unthrottled,
// all-busy system by 100 µs. Nothing changes, so no refresh runs: an op is
// the engine plus, every tenth op, one SMU control tick on an unchanged
// machine (BenchmarkMachineRefreshDirty times a refresh).
func BenchmarkMachineRefresh(b *testing.B) {
	sys := NewSystem()
	sys.SetAllFrequenciesMHz(2500)
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		sys.Run(cpu, "busywait")
	}
	sys.AdvanceMillis(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AdvanceMicros(100)
	}
}

// BenchmarkMachineRefreshDirty measures one incremental refresh: each op
// changes the operand weight of one running thread, which marks its CCX
// dirty, and reads the system power, which flushes that change through one
// refresh.
func BenchmarkMachineRefreshDirty(b *testing.B) {
	sys := NewSystem()
	sys.SetAllFrequenciesMHz(2500)
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		sys.RunWeighted(cpu, "vxorps", 0.5)
	}
	sys.AdvanceMillis(50)
	m := sys.Machine()
	weights := [2]float64{0.25, 0.75}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SetHammingWeight(0, weights[i&1])
		m.SystemWatts()
	}
}

// BenchmarkMachineNew measures building the paper's test system: wiring
// every subsystem and parking all 128 threads in C2, which the machine
// folds into one refresh.
func BenchmarkMachineNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewSystem()
	}
}

// BenchmarkSMUControlTick measures one millisecond of a FIRESTARTER-loaded
// system held at the EDC limit: one control tick of the SMU per package
// (which reads the refresh cache) plus the cap change and refresh it
// triggers.
func BenchmarkSMUControlTick(b *testing.B) {
	sys := NewSystem()
	if err := sys.SetAllFrequenciesMHz(2500); err != nil {
		b.Fatal(err)
	}
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		if err := sys.Run(cpu, "firestarter"); err != nil {
			b.Fatal(err)
		}
	}
	sys.AdvanceMillis(300)
	if !sys.Machine().SMU.Throttling(0) {
		b.Fatal("FIRESTARTER load is not EDC-throttled")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AdvanceMillis(1)
	}
}

// BenchmarkSMUQuietTick measures one millisecond of an uncapped
// busy-wait system. Its readings stay within both limits under any noise
// and nothing changes, so the SMU ticker is parked: an op is the engine
// emulating one tick, no tick event runs and no variate is computed
// (BenchmarkSMUControlTick times throttled ticks,
// BenchmarkSMUWakeEveryTick a ticker woken every millisecond).
func BenchmarkSMUQuietTick(b *testing.B) {
	sys := NewSystem()
	if err := sys.SetAllFrequenciesMHz(2500); err != nil {
		b.Fatal(err)
	}
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		if err := sys.Run(cpu, "busywait"); err != nil {
			b.Fatal(err)
		}
	}
	sys.AdvanceMillis(50)
	smu := sys.Machine().SMU
	if smu.Throttling(0) || smu.Throttling(1) {
		b.Fatal("busy-wait load is throttled")
	}
	before := smu.Stats().Transforms
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AdvanceMillis(1)
	}
	b.StopTimer()
	if n := smu.Stats().Transforms - before; n != 0 {
		b.Fatalf("%d quiet ticks computed a noise variate", n)
	}
}

// BenchmarkSMUWakeEveryTick measures one millisecond of an idle system
// in which one thread changes C-state every millisecond: each op starts or
// stops a busy-wait on it, which wakes the parked SMU ticker and refreshes
// the machine, and the next tick runs, finds both packages quiet and parks
// the ticker again. It is the wake-and-replay worst case that the
// transition and wake-up experiments resemble.
func BenchmarkSMUWakeEveryTick(b *testing.B) {
	sys := NewSystem()
	sys.AdvanceMillis(50)
	smu := sys.Machine().SMU
	packages := uint64(len(sys.Machine().Top.Packages))
	before := smu.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			if err := sys.Run(0, "busywait"); err != nil {
				b.Fatal(err)
			}
		} else {
			sys.Stop(0)
		}
		sys.AdvanceMillis(1)
	}
	b.StopTimer()
	after := smu.Stats()
	if real := (after.Ticks - after.Parked) - (before.Ticks - before.Parked); real != packages*uint64(b.N) {
		b.Fatalf("%d real package ticks in %d woken milliseconds, want one per package and millisecond", real, b.N)
	}
}

// BenchmarkMachineRefreshMixed is BenchmarkSMUControlTick with no two cores
// alike: each core's threads run FIRESTARTER at an operand weight of the
// core's own, so the refresh derives every dirty core and shares none. It
// bypasses the derivation sharing BenchmarkSMUControlTick exercises.
func BenchmarkMachineRefreshMixed(b *testing.B) {
	sys := NewSystem()
	if err := sys.SetAllFrequenciesMHz(2500); err != nil {
		b.Fatal(err)
	}
	m := sys.Machine()
	for cpu := 0; cpu < sys.NumCPUs(); cpu++ {
		w := float64(m.Top.Threads[cpu].Core+1) / float64(sys.NumCores())
		if err := sys.RunWeighted(cpu, "firestarter", w); err != nil {
			b.Fatal(err)
		}
	}
	sys.AdvanceMillis(300)
	if !m.SMU.Throttling(0) {
		b.Fatal("FIRESTARTER load is not EDC-throttled")
	}
	shared := m.RefreshStats().Shared
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.AdvanceMillis(1)
	}
	b.StopTimer()
	if n := m.RefreshStats().Shared - shared; n != 0 {
		b.Fatalf("%d cores shared a derivation", n)
	}
}
