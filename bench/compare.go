package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"text/tabwriter"
)

func compareCmd(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("compare takes two result files, A (before) and B (after)")
	}
	path, err := findSpec()
	if err != nil {
		return err
	}
	spec, err := loadSpec(path)
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	return compare(w, spec, a, b)
}

// verdict judges B against A for one metric from their runs. Worse and
// better mean B's median moved by more than bound (a share of A's median)
// in that direction; a move of exactly bound is still the same. When
// either side's spread — quartile distance over median — exceeds the
// bound the metric is unresolved, unless every run of one side beats every
// run of the other.
func verdict(a, b []float64, better string, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	q1a, ma, q3a := quartiles(a)
	q1b, mb, q3b := quartiles(b)
	sign := 1.0 // a positive change is a move for the worse
	if better == "higher" {
		sign = -1
	}
	if math.Max(relSpread(q1a, ma, q3a), relSpread(q1b, mb, q3b)) > bound {
		switch {
		case beatsAll(b, a, sign):
			return "better"
		case beatsAll(a, b, sign):
			return "worse"
		}
		return "unresolved"
	}
	change := 0.0
	switch {
	case ma != 0:
		change = sign * (mb - ma) / math.Abs(ma)
	case mb != 0:
		change = sign * math.Inf(1) * mb
	}
	switch {
	case change > bound:
		return "worse"
	case change < -bound:
		return "better"
	}
	return "same"
}

func relSpread(q1, m, q3 float64) float64 {
	if q3 == q1 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// beatsAll reports whether every value of x is better than every value of
// y; sign is +1 when lower is better.
func beatsAll(x, y []float64, sign float64) bool {
	xs, ys := sorted(x), sorted(y)
	if sign > 0 {
		return xs[len(xs)-1] < ys[0]
	}
	return xs[0] > ys[len(ys)-1]
}

// unboundedVerdict judges a metric with no regression bound. Deterministic
// metrics get a verdict with a bound of zero: the same when both sides read
// the same values (as runs of the same seeds do), else by their medians
// when each side reads one value throughout. The rest are for reading.
func unboundedVerdict(a, b []float64, better string) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	if slices.Equal(sorted(a), sorted(b)) {
		return "same"
	}
	if constant(a) && constant(b) {
		return verdict(a, b, better, 0)
	}
	return "-"
}

func constant(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}

// metricValues collects one metric's values across the runs of a workload,
// from the untraced runs' Metrics or Detail or the traced runs' Metrics.
func metricValues(rf *resultFile, workload string, traced bool, pick func(*Result) (Metric, bool)) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if m, ok := pick(r); ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func fromMetrics(name string) func(*Result) (Metric, bool) {
	return func(r *Result) (Metric, bool) { m, ok := r.Metrics[name]; return m, ok }
}

func fromDetail(name string) func(*Result) (Metric, bool) {
	return func(r *Result) (Metric, bool) { m, ok := r.Detail[name]; return m, ok }
}

// selfShare is a layer's self time as a share of the lane time; "unowned"
// is the share no layer accounts for.
func selfShare(layer string) func(*Result) (Metric, bool) {
	return func(r *Result) (Metric, bool) {
		if r.CapacityMS <= 0 {
			return Metric{}, false
		}
		if layer != "unowned" {
			return Metric{Value: r.SelfMS[layer] / r.CapacityMS}, true
		}
		owned := 0.0
		for _, l := range layers {
			owned += r.SelfMS[l]
		}
		return Metric{Value: 1 - owned/r.CapacityMS}, true
	}
}

// compare prints one row per (workload, metric) of two result sets: each
// side's median and quartiles, the bound, and the verdict. Per workload the
// bounded end-to-end rows come first, then the workload's detail numbers,
// the per-layer rows, each layer's share of self time, and the share no
// layer owns.
func compare(w io.Writer, spec *benchmarkSpec, a, b *resultFile) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median\tA q1..q3\tB median\tB q1..q3\tbound\tverdict")
	row := func(wl, name, unit string, va, vb []float64, bound, verdict string) {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n", wl, name, unit,
			fmtMedian(va), fmtQuartiles(va), fmtMedian(vb), fmtQuartiles(vb), bound, verdict)
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va := metricValues(a, wl.Name, false, fromMetrics(m.Name))
			vb := metricValues(b, wl.Name, false, fromMetrics(m.Name))
			row(wl.Name, m.Name, m.Unit, va, vb, fmt.Sprintf("%g", m.Bound), verdict(va, vb, m.Better, m.Bound))
		}
		details := map[string]bool{}
		for _, rf := range []*resultFile{a, b} {
			for _, r := range rf.Runs {
				if r.Workload == wl.Name {
					for name := range r.Detail {
						details[name] = true
					}
				}
			}
		}
		names := make([]string, 0, len(details))
		for name := range details {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d := detailDefs[name]
			va := metricValues(a, wl.Name, false, fromDetail(name))
			vb := metricValues(b, wl.Name, false, fromDetail(name))
			row(wl.Name, name, d.Unit, va, vb, "-", unboundedVerdict(va, vb, d.Better))
		}
		for _, m := range spec.PerLayer {
			va := metricValues(a, wl.Name, true, fromMetrics(m.Name))
			vb := metricValues(b, wl.Name, true, fromMetrics(m.Name))
			row(wl.Name, m.Name, m.Unit, va, vb, "-", unboundedVerdict(va, vb, m.Better))
		}
		for _, l := range append(append([]string(nil), layers...), "unowned") {
			va := metricValues(a, wl.Name, true, selfShare(l))
			vb := metricValues(b, wl.Name, true, selfShare(l))
			row(wl.Name, "self."+l, "fraction", va, vb, "-", "-")
		}
	}
	return tw.Flush()
}

func fmtMedian(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", median(xs))
}

func fmtQuartiles(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, _, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g..%.4g", q1, q3)
}
