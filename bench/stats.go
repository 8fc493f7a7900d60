package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail percentile
// for it to be more than one unlucky sample.
const minBeyond = 10

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

// tailPercentile returns the highest percentile of tailLadder that leaves at
// least minBeyond of n samples beyond it. ok is false when not even the
// median does (n < 2*minBeyond); the median is returned then.
func tailPercentile(n int) (p float64, ok bool) {
	p = tailLadder[0]
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// beyond counts the samples of n that rank above the nearest-rank
// q-percentile.
func beyond(n int, q float64) int {
	return n - rank(n, q)
}

// rank is the 1-based nearest rank of the q-percentile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank q-percentile of xs (0 for no
// samples). The value is always one of the samples, as measured.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), q)-1]
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method Python's statistics.quantiles(xs, n=4) uses by default
// ("exclusive"), so spreads computed here match those computed from the
// same values elsewhere. One sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
