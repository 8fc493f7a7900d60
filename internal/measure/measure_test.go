package measure

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"zen2ee/internal/sim"
)

type constSource struct {
	ei *sim.EnergyIntegrator
}

func (s *constSource) EnergyJoules(now sim.Time) float64 { return s.ei.Energy(now) }

func TestAnalyzerSamplesAveragePower(t *testing.T) {
	eng := sim.NewEngine(1)
	src := &constSource{ei: sim.NewEnergyIntegrator(0, 200)}
	pa := NewPowerAnalyzer(eng, DefaultAnalyzerConfig(), src)
	eng.RunUntil(sim.Time(2 * sim.Second))
	samples := pa.Samples()
	if len(samples) != 40 {
		t.Fatalf("got %d samples in 2 s at 20 Sa/s, want 40", len(samples))
	}
	avg, err := pa.AverageBetween(0, sim.Time(2*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Accuracy spec at 200 W: ±(0.03 + 0.0625) ≈ ±0.09 W.
	if math.Abs(avg-200) > 0.1 {
		t.Fatalf("average %v, want ~200", avg)
	}
}

func TestAnalyzerTracksStepChange(t *testing.T) {
	eng := sim.NewEngine(1)
	ei := sim.NewEnergyIntegrator(0, 100)
	src := &constSource{ei: ei}
	pa := NewPowerAnalyzer(eng, DefaultAnalyzerConfig(), src)
	eng.RunUntil(sim.Time(1 * sim.Second))
	ei.SetPower(eng.Now(), 300)
	eng.RunUntil(sim.Time(2 * sim.Second))
	first, err := pa.AverageBetween(0, sim.Time(1*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	second, err := pa.AverageBetween(sim.Time(1*sim.Second), sim.Time(2*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first-100) > 0.5 || math.Abs(second-300) > 0.5 {
		t.Fatalf("step change: %v / %v, want 100 / 300", first, second)
	}
}

func TestInnerAverageProtocol(t *testing.T) {
	// A transient at the window edges must not pollute the inner-8s mean.
	eng := sim.NewEngine(1)
	ei := sim.NewEnergyIntegrator(0, 1000) // misaligned spike at start
	src := &constSource{ei: ei}
	pa := NewPowerAnalyzer(eng, DefaultAnalyzerConfig(), src)
	eng.RunUntil(sim.Time(900 * sim.Millisecond))
	ei.SetPower(eng.Now(), 250)
	eng.RunUntil(sim.Time(9200 * sim.Millisecond))
	ei.SetPower(eng.Now(), 1000) // spike at the end
	eng.RunUntil(sim.Time(10 * sim.Second))

	inner, err := pa.InnerAverage(0, 10*sim.Second, 8*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inner-250) > 0.5 {
		t.Fatalf("inner average %v, want ~250 (edges excluded)", inner)
	}
	full, err := pa.AverageBetween(0, sim.Time(10*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(full-250) < 5 {
		t.Fatalf("full average %v should be polluted by the edge spikes", full)
	}
}

func TestAnalyzerDropoutTolerance(t *testing.T) {
	eng := sim.NewEngine(1)
	src := &constSource{ei: sim.NewEnergyIntegrator(0, 150)}
	pa := NewPowerAnalyzer(eng, DefaultAnalyzerConfig(), src)
	pa.DropoutRate = 0.3
	eng.RunUntil(sim.Time(10 * sim.Second))
	if n := len(pa.Samples()); n >= 200 || n < 100 {
		t.Fatalf("dropout produced %d samples, want roughly 140", n)
	}
	avg, err := pa.InnerAverage(0, 10*sim.Second, 8*sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(avg-150) > 0.2 {
		t.Fatalf("average with dropouts %v, want ~150", avg)
	}
}

func TestAverageBetweenEmptyWindow(t *testing.T) {
	if _, err := AverageBetween(nil, 0, 100); err == nil {
		t.Fatal("empty window must error")
	}
}

func TestMeanStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if sd := StdDev(xs); math.Abs(sd-2) > 1e-12 {
		t.Fatalf("stddev %v", sd)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Fatal("empty input should give zeros")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
}

func TestHistogramUniform(t *testing.T) {
	// Uniform data over [390, 1390] in 25 µs bins: Fig. 3 shape.
	rng := sim.NewRNG(5)
	var xs []float64
	for i := 0; i < 40000; i++ {
		xs = append(xs, 390+1000*rng.Float64())
	}
	h := NewHistogram(xs, 0, 25)
	lo, hi := h.NonEmptySpan()
	if c := h.BinCenter(lo); c < 380 || c > 420 {
		t.Fatalf("first bin center %v, want ~390", c)
	}
	if c := h.BinCenter(hi); c < 1360 || c > 1395 {
		t.Fatalf("last bin center %v, want ~1380", c)
	}
	// Uniformity: occupied bins hold similar counts (within 4σ of Poisson).
	expected := float64(h.N) / float64(hi-lo+1)
	for i := lo + 1; i < hi; i++ { // skip partial edge bins
		if d := math.Abs(float64(h.Counts[i]) - expected); d > 4*math.Sqrt(expected) {
			t.Fatalf("bin %d count %d deviates from uniform %v", i, h.Counts[i], expected)
		}
	}
}

func TestHistogramInvariants(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, r := range raw {
			if !math.IsNaN(r) && !math.IsInf(r, 0) {
				xs = append(xs, math.Mod(math.Abs(r), 1e6))
			}
		}
		h := NewHistogram(xs, 0, 10)
		total := 0
		for _, c := range h.Counts {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == len(xs) && h.N == len(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	if got := e.At(0); got != 0 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := e.At(2); got != 0.5 {
		t.Fatalf("At(2) = %v", got)
	}
	if got := e.At(10); got != 1 {
		t.Fatalf("At(10) = %v", got)
	}
	if q := e.Quantile(0.5); math.Abs(q-2.5) > 1e-12 {
		t.Fatalf("median %v", q)
	}
	if q := e.Quantile(0); q != 1 {
		t.Fatalf("q0 %v", q)
	}
	if q := e.Quantile(1); q != 4 {
		t.Fatalf("q1 %v", q)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(data []float64, probes []float64) bool {
		var xs []float64
		for _, d := range data {
			if !math.IsNaN(d) && !math.IsInf(d, 0) {
				xs = append(xs, d)
			}
		}
		if len(xs) == 0 {
			return true
		}
		e := NewECDF(xs)
		var ps []float64
		for _, p := range probes {
			if !math.IsNaN(p) && !math.IsInf(p, 0) {
				ps = append(ps, p)
			}
		}
		sort.Float64s(ps)
		prev := -1.0
		for _, p := range ps {
			v := e.At(p)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOverlapSeparatedAndIdentical(t *testing.T) {
	rng := sim.NewRNG(11)
	var a, b, c []float64
	for i := 0; i < 2000; i++ {
		a = append(a, rng.Gaussian(0, 1))
		b = append(b, rng.Gaussian(20, 1)) // fully separated
		c = append(c, rng.Gaussian(0, 1))  // same distribution as a
	}
	if o := Overlap(NewECDF(a), NewECDF(b), 200); o > 0.01 {
		t.Fatalf("separated overlap %v, want ~0", o)
	}
	if o := Overlap(NewECDF(a), NewECDF(c), 200); o < 0.9 {
		t.Fatalf("identical overlap %v, want ~1", o)
	}
}

func TestBoxStats(t *testing.T) {
	b := NewBoxStats([]float64{1, 2, 3, 4, 5})
	if b.Min != 1 || b.Max != 5 || b.Median != 3 {
		t.Fatalf("box stats %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Fatalf("quartiles %+v", b)
	}
}

func TestLinearFit(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x + 1
	slope, intercept, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2) > 1e-12 || math.Abs(intercept-1) > 1e-12 {
		t.Fatalf("fit %v, %v", slope, intercept)
	}
	if _, _, err := LinearFit([]float64{1}, []float64{2}); err == nil {
		t.Fatal("single point fit must error")
	}
	if _, _, err := LinearFit([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("degenerate x must error")
	}
}

func TestHistogramPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on zero bin width")
		}
	}()
	NewHistogram([]float64{1}, 0, 0)
}
