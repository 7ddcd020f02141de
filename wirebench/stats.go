package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailQuantile is the quantile a "p99" reports over n samples: 0.99 when
// at least minTail samples lie beyond it, otherwise the highest quantile
// that still leaves minTail samples above it (0 when n ≤ minTail).
func tailQuantile(n int, want float64) float64 {
	if n <= minTail {
		return 0
	}
	q := 1 - float64(minTail)/float64(n)
	if q > want {
		q = want
	}
	return q
}

// rank is ⌈q·n⌉, forgiving the rounding error of q computed as 1 − k/n.
func rank(q float64, n int) int { return int(math.Ceil(q*float64(n) - 1e-9)) }

// quantile is the nearest-rank q-quantile of sorted: the smallest sample
// with at least ⌈q·n⌉ samples at or below it.
func quantile(sorted []int64, q float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	r := rank(q, n) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return sorted[r]
}

// dist summarizes one latency sample set (nanoseconds).
type dist struct {
	n        int
	p50, p99 int64
	// q99 is the quantile p99 actually reports (see tailQuantile).
	q99 float64
}

func summarize(xs []int64) dist {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	q := tailQuantile(len(s), 0.99)
	return dist{n: len(s), p50: quantile(s, 0.5), p99: quantile(s, q), q99: q}
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
