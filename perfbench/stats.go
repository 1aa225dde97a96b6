package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the middle value of v (the mean of the two middle values for an
// even count), as Python's statistics.median computes it; 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// mean is the arithmetic mean of v; 0 for no values.
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// quartiles returns the first and third quartiles of v by the method of
// Python's statistics.quantiles(v, n=4) (the default "exclusive" method),
// which is how the benchmark's steadiness is judged. v needs two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// minBeyond is how many samples must lie above a reported percentile for it
// to describe a tail rather than a handful of outliers.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-quantile of samples when at
// least minBeyond samples lie beyond it. With fewer samples it returns the
// median and false: a percentile that few samples exceed is no tail.
func tailPercentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return median(samples), false
	}
	return sorted(samples)[rank-1], true
}
