// Package measure models the paper's external measurement methodology
// (§IV): a ZES LMG670 power analyzer with L60-CH-A1 channels sampling total
// AC power at 20 Sa/s with an accuracy of ±(0.015 % + 0.0625 W), collected
// out-of-band and merged with internal monitoring post-mortem. Quantitative
// comparisons use the average power of the inner 8 s of a 10 s window to
// avoid timestamp misalignment.
package measure

import (
	"fmt"
	"math"
	"sort"

	"zen2ee/internal/sim"
)

// Sample is one analyzer reading: the average power over the preceding
// sample interval.
type Sample struct {
	Time  sim.Time
	Watts float64
}

// AnalyzerConfig describes the instrument.
type AnalyzerConfig struct {
	// SampleInterval between readings (50 ms for 20 Sa/s).
	SampleInterval sim.Duration
	// AccuracyRel and AccuracyAbs form the ±(rel·P + abs) spec.
	AccuracyRel float64
	AccuracyAbs float64
	// SigmaFraction maps the accuracy bound to a Gaussian σ (the spec is
	// treated as a 3σ bound).
	SigmaFraction float64
}

// DefaultAnalyzerConfig returns the LMG670 parameters from the paper.
func DefaultAnalyzerConfig() AnalyzerConfig {
	return AnalyzerConfig{
		SampleInterval: 50 * sim.Millisecond,
		AccuracyRel:    0.00015,
		AccuracyAbs:    0.0625,
		SigmaFraction:  1.0 / 3.0,
	}
}

// EnergySource is what the analyzer taps: a monotone energy reading in
// Joules at a given time (the machine's AC energy integrator).
type EnergySource interface {
	EnergyJoules(now sim.Time) float64
}

// PowerAnalyzer samples interval-average power from an energy source,
// applying the instrument's accuracy model. Collection is out-of-band: it
// never perturbs the system under test.
type PowerAnalyzer struct {
	eng     *sim.Engine
	cfg     AnalyzerConfig
	src     EnergySource
	rng     *sim.RNG
	samples []Sample

	lastEnergy float64
	lastTime   sim.Time
	ticker     *sim.Ticker
	// DropoutRate, when non-zero, randomly discards samples (failure
	// injection for the merge/averaging pipeline).
	DropoutRate float64
}

// NewPowerAnalyzer attaches an analyzer to a source and starts sampling.
func NewPowerAnalyzer(eng *sim.Engine, cfg AnalyzerConfig, src EnergySource) *PowerAnalyzer {
	pa := &PowerAnalyzer{
		eng: eng, cfg: cfg, src: src,
		rng:        eng.RNG().Fork(),
		lastEnergy: src.EnergyJoules(eng.Now()),
		lastTime:   eng.Now(),
	}
	pa.ticker = eng.NewTicker(cfg.SampleInterval, 0, pa.sample)
	return pa
}

// Stop ends sampling.
func (pa *PowerAnalyzer) Stop() { pa.ticker.Stop() }

func (pa *PowerAnalyzer) sample() {
	now := pa.eng.Now()
	e := pa.src.EnergyJoules(now)
	dt := now.Sub(pa.lastTime).Seconds()
	if dt <= 0 {
		return
	}
	p := (e - pa.lastEnergy) / dt
	pa.lastEnergy, pa.lastTime = e, now
	if pa.DropoutRate > 0 && pa.rng.Float64() < pa.DropoutRate {
		return
	}
	sigma := (pa.cfg.AccuracyRel*p + pa.cfg.AccuracyAbs) * pa.cfg.SigmaFraction
	pa.samples = append(pa.samples, Sample{Time: now, Watts: p + pa.rng.Gaussian(0, sigma)})
}

// Samples returns all collected samples.
func (pa *PowerAnalyzer) Samples() []Sample { return pa.samples }

// Reset discards the collected samples.
func (pa *PowerAnalyzer) Reset() { pa.samples = pa.samples[:0] }

// AverageBetween returns the mean of samples with t0 < Time ≤ t1.
func (pa *PowerAnalyzer) AverageBetween(t0, t1 sim.Time) (float64, error) {
	return AverageBetween(pa.samples, t0, t1)
}

// InnerAverage implements the paper's protocol: given a window [start,
// start+total], average only the inner part, trimming (total−inner)/2 from
// both ends (10 s window, inner 8 s in the paper).
func (pa *PowerAnalyzer) InnerAverage(start sim.Time, total, inner sim.Duration) (float64, error) {
	trim := (total - inner) / 2
	return AverageBetween(pa.samples, start.Add(trim), start.Add(total-trim))
}

// AverageBetween averages samples in (t0, t1].
func AverageBetween(samples []Sample, t0, t1 sim.Time) (float64, error) {
	var sum float64
	var n int
	for _, s := range samples {
		if s.Time > t0 && s.Time <= t1 {
			sum += s.Watts
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("measure: no samples in window %v..%v", t0, t1)
	}
	return sum / float64(n), nil
}

// --- Statistics helpers used by the experiment harness ---

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sq float64
	for _, x := range xs {
		sq += (x - m) * (x - m)
	}
	return math.Sqrt(sq / float64(len(xs)))
}

// MinMax returns the extrema. It panics on empty input.
func MinMax(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		panic("measure: MinMax of empty slice")
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Histogram bins values with a fixed bin width starting at origin.
type Histogram struct {
	Origin   float64
	BinWidth float64
	Counts   []int
	N        int
}

// NewHistogram builds a histogram over the data (binWidth must be > 0).
func NewHistogram(xs []float64, origin, binWidth float64) *Histogram {
	if binWidth <= 0 {
		panic("measure: non-positive bin width")
	}
	h := &Histogram{Origin: origin, BinWidth: binWidth}
	for _, x := range xs {
		b := int(math.Floor((x - origin) / binWidth))
		if b < 0 {
			b = 0
		}
		for b >= len(h.Counts) {
			h.Counts = append(h.Counts, 0)
		}
		h.Counts[b]++
		h.N++
	}
	return h
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Origin + (float64(i)+0.5)*h.BinWidth
}

// NonEmptySpan returns the first and last non-empty bin indices.
func (h *Histogram) NonEmptySpan() (int, int) {
	lo, hi := -1, -1
	for i, c := range h.Counts {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	return lo, hi
}

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the data.
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X ≤ x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1).
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := q * float64(len(e.sorted)-1)
	lo := int(math.Floor(idx))
	frac := idx - float64(lo)
	if lo+1 >= len(e.sorted) {
		return e.sorted[lo]
	}
	return e.sorted[lo]*(1-frac) + e.sorted[lo+1]*frac
}

// Overlap measures the fraction of probability mass shared by two ECDFs
// over a common grid — 0 for fully separated distributions, ~1 for
// identical ones. The paper uses visual ECDF overlap (Fig. 10) to argue
// distinguishability; this is the quantitative counterpart.
func Overlap(a, b *ECDF, gridPoints int) float64 {
	if len(a.sorted) == 0 || len(b.sorted) == 0 {
		return 0
	}
	lo := math.Min(a.sorted[0], b.sorted[0])
	hi := math.Max(a.sorted[len(a.sorted)-1], b.sorted[len(b.sorted)-1])
	if hi <= lo {
		return 1
	}
	// Kolmogorov–Smirnov style: overlap = 1 − max |Fa − Fb|.
	maxDiff := 0.0
	for i := 0; i <= gridPoints; i++ {
		x := lo + (hi-lo)*float64(i)/float64(gridPoints)
		d := math.Abs(a.At(x) - b.At(x))
		if d > maxDiff {
			maxDiff = d
		}
	}
	return 1 - maxDiff
}

// BoxStats summarizes a distribution the way the paper's box plots do.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
}

// NewBoxStats computes box-plot statistics.
func NewBoxStats(xs []float64) BoxStats {
	e := NewECDF(xs)
	return BoxStats{
		Min:    e.Quantile(0),
		Q1:     e.Quantile(0.25),
		Median: e.Quantile(0.5),
		Q3:     e.Quantile(0.75),
		Max:    e.Quantile(1),
	}
}

// LinearFit returns slope and intercept of a least-squares fit y = a·x + b,
// as drawn in Fig. 9a.
func LinearFit(xs, ys []float64) (slope, intercept float64, err error) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, 0, fmt.Errorf("measure: need two equal-length series")
	}
	mx, my := Mean(xs), Mean(ys)
	var num, den float64
	for i := range xs {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0, 0, fmt.Errorf("measure: degenerate x values")
	}
	slope = num / den
	return slope, my - slope*mx, nil
}
