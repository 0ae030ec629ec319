package main

import (
	"math"
	"testing"
)

// TestQuantile pins the exact-sample quantile on known inputs: linear
// interpolation between closest ranks, h = (n−1)·q.
func TestQuantile(t *testing.T) {
	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // 1..10, unsorted
	for _, c := range []struct {
		in   []float64
		q    float64
		want float64
	}{
		{ten, 0, 1},
		{ten, 1, 10},
		{ten, 0.5, 5.5},
		{ten, 0.95, 9.55},
		{ten, 0.25, 3.25},
		{[]float64{42}, 0.95, 42},
		{[]float64{1, 3}, 0.5, 2},
		{[]float64{0, 100}, 0.95, 95},
	} {
		if got := quantile(c.in, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", c.in, c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile(empty) = %g, want NaN", got)
	}
	if ten[0] != 10 {
		t.Error("quantile sorted its argument in place")
	}
}
