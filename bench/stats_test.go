package main

import "testing"

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0.5, false}, // not even the median has ten beyond
		{20, 0.5, true},
		{39, 0.5, true}, // p75 would leave 9
		{40, 0.75, true},
		{100, 0.9, true},
		{999, 0.95, true}, // p99 would leave 9
		{1000, 0.99, true},
		{10000, 0.999, true},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond", c.n, p*100, beyond(c.n, p))
		}
	}
}

func TestPercentileIsNearestRankSample(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.75, 8}, {0.9, 9}, {0.99, 10}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples should be 0")
	}
}

// TestQuartilesMatchPythonExclusive pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{90, 100, 110}, 90, 100, 110},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}
