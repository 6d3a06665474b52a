package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method
// of Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method), so the spread this benchmark reports about itself matches
// the one computed over its runs. Needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on the 1-based order statistics, with the
		// bracketing pair clamped inside the data as Python does.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail picks the highest percentile of tailLadder that has at least ten
// samples beyond it and returns that percentile and its value
// (nearest rank). With fewer than twenty samples no percentile on the
// ladder qualifies; ok is then false and the value is the maximum.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, math.NaN(), false
	}
	for _, p := range tailLadder {
		if rank := nearestRank(p, n); n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 100, s[n-1], false
}

// nearestRank is the 1-based rank of percentile p among n samples.
func nearestRank(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n))), 1)
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sorted(xs)[nearestRank(p, len(xs))-1]
}

// maxOf is the largest value of xs (0 when empty).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}
