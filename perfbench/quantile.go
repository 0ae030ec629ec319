package main

import (
	"math"
	"slices"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an exact sample by
// linear interpolation between the two closest ranks (the "type 7"
// estimator: rank h = (n−1)·q). Exact samples, not log-bucketed
// histograms, so a quantile moves with the data rather than in √2
// steps. An empty sample yields NaN.
func quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return math.NaN()
	}
	s := slices.Clone(sample)
	slices.Sort(s)
	h := float64(len(s)-1) * q
	lo := int(math.Floor(h))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// mean averages a sample; an empty sample yields 0.
func mean(sample []float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	var s float64
	for _, v := range sample {
		s += v
	}
	return s / float64(len(sample))
}
