package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5.5, 1.25, 9, 2, 7.75, 3, 8}, 2, 8},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so sorting matters
	}
	return xs
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		pct    float64
		value  float64
		isTail bool
	}{
		{1000, 99, 990, true}, // 10 samples above rank 990
		{999, 95, 950, true},  // p99 would leave 9
		{100, 90, 90, true},
		{20, 50, 10, true},
		{19, 100, 19, false}, // no percentile qualifies: the maximum
	} {
		pct, v, ok := tail(seq(tc.n))
		if pct != tc.pct || v != tc.value || ok != tc.isTail {
			t.Errorf("tail of %d samples = p%v %v %t, want p%v %v %t", tc.n, pct, v, ok, tc.pct, tc.value, tc.isTail)
		}
		if ok && tc.n-nearestRank(pct, tc.n) < 10 {
			t.Errorf("tail of %d samples leaves fewer than 10 beyond p%v", tc.n, pct)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(200)
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(xs, 100); got != 200 {
		t.Errorf("p100 of 1..200 = %v, want 200", got)
	}
}
