package core

import (
	"fmt"
	"sort"

	"zen2ee/internal/measure"
)

// green500 is an extract of the 2021/06 Green500 list (architectures with
// more than 5 systems), with per-system power efficiency in GFlops/W as
// plotted in Fig. 1. Values are representative samples reconstructed from
// the figure's per-architecture distributions.
var green500 = map[string][]float64{
	"AMD Zen 2 (Rome)": {2.05, 2.4, 2.65, 2.9, 3.1, 3.25, 3.4, 3.6, 3.9,
		4.2, 4.6, 5.0, 5.4},
	"Intel Cascade Lake": {1.4, 1.7, 1.9, 2.05, 2.2, 2.3, 2.45, 2.6, 2.8,
		3.1, 3.5, 4.0},
	"Intel Xeon Phi": {1.9, 2.1, 2.3, 2.45, 2.6, 2.75, 2.9, 3.1, 3.3},
	"Intel Skylake": {1.0, 1.4, 1.7, 1.95, 2.15, 2.3, 2.5, 2.7, 3.0, 3.4,
		3.8},
	"Intel Broadwell": {0.7, 1.0, 1.25, 1.45, 1.6, 1.75, 1.9, 2.1, 2.4,
		2.8},
	"Intel Haswell": {0.8, 1.1, 1.3, 1.5, 1.7, 1.85, 2.0, 2.15, 2.3},
}

func init() {
	register(whole(Experiment{
		ID:       "fig1",
		Title:    "Green500 power efficiency of x86 architectures",
		PaperRef: "Fig. 1",
		Bench:    "BenchmarkFig1Green500",
	}, runFig1))
}

func runFig1(o Options) (*Result, error) {
	r := newResult("fig1", "Green500 power efficiency of x86 architectures", "Fig. 1")
	r.Columns = []string{"architecture", "n", "min", "median", "max", "GFlops/W"}

	names := make([]string, 0, len(green500))
	for n := range green500 {
		names = append(names, n)
	}
	sort.Strings(names)

	medians := map[string]float64{}
	for _, name := range names {
		xs := green500[name]
		box := measure.NewBoxStats(xs)
		medians[name] = box.Median
		r.addRow(name, fmt.Sprint(len(xs)), fmt.Sprintf("%.2f", box.Min),
			fmt.Sprintf("%.2f", box.Median), fmt.Sprintf("%.2f", box.Max), "")
		r.Series["eff:"+name] = xs
	}

	rome := medians["AMD Zen 2 (Rome)"]
	bestIntel := 0.0
	for name, m := range medians {
		if name != "AMD Zen 2 (Rome)" && m > bestIntel {
			bestIntel = m
		}
	}
	r.Metrics["rome_median"] = rome
	r.Metrics["best_intel_median"] = bestIntel
	r.compare("Rome median efficiency leads x86 (ratio)", "x", 1.0, boolTo01(rome > bestIntel), 0)
	r.note("Rome median %.2f GFlops/W vs best Intel median %.2f — the architecture is competitive in power efficiency (paper's Fig. 1 claim)", rome, bestIntel)
	return r, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
