package main

import (
	"testing"
	"time"
)

// TestAdjustedScalesByNearbyPaceMedian checks that a time is scaled to the
// reference host by the median of the pace samples around it, so a single
// slow sample leaves it alone.
func TestAdjustedScalesByNearbyPaceMedian(t *testing.T) {
	b := &bench{paces: []time.Duration{
		paceNominal, 4 * paceNominal, paceNominal, 2 * paceNominal, 2 * paceNominal,
	}}
	for _, c := range []struct {
		pace int
		want time.Duration
	}{
		{0, 400 * time.Millisecond}, // samples 0 and 1: 2.5× nominal
		{1, time.Second},            // one slow sample among nominal ones
		{3, 500 * time.Millisecond}, // the host runs at half speed
		{4, 500 * time.Millisecond}, // the last sample has one neighbour
		{5, 500 * time.Millisecond}, // taken after the last sample
	} {
		if got := b.adjusted(time.Second, c.pace); got != c.want {
			t.Errorf("adjusted(1s, %d) = %v, want %v", c.pace, got, c.want)
		}
	}
}

// TestPaceKernelWorkIsFixed checks that the kernel computes the same thing
// every time it runs, so that only the host changes its time.
func TestPaceKernelWorkIsFixed(t *testing.T) {
	run := func() float64 { return paceKernel(1, 1000, make([]float64, 1<<10)) }
	if a, b := run(), run(); a != b {
		t.Errorf("two kernel runs computed %v and %v", a, b)
	}
}
