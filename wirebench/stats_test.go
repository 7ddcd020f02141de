package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// bruteQuantile is the nearest-rank definition read literally: the
// smallest sample x such that at least ⌈q·n⌉ samples are ≤ x.
func bruteQuantile(xs []int64, q float64) int64 {
	need := rank(q, len(xs))
	best := int64(math.MaxInt64)
	for _, x := range xs {
		le := 0
		for _, y := range xs {
			if y <= x {
				le++
			}
		}
		if le >= need && x < best {
			best = x
		}
	}
	return best
}

// TestQuantileAccuracy checks summarize against the exact quantile of
// every window, over window sizes on both sides of the tail rule and over
// heavy-tailed latency-like data, and reports the error statistics: any
// error at all fails, since the estimator is meant to be exact.
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var windows, errs int
	maxErr := 0.0
	for _, n := range []int{11, 12, 50, 99, 100, 999, 1000, 1001, 1500} {
		for trial := 0; trial < 5; trial++ {
			xs := make([]int64, n)
			for i := range xs {
				// Lognormal body with rare 100× stalls.
				v := math.Exp(rng.NormFloat64()) * 1e5
				if rng.Intn(200) == 0 {
					v *= 100
				}
				xs[i] = int64(v)
			}
			d := summarize(xs)
			q99 := tailQuantile(n, 0.99)
			for _, c := range []struct {
				got int64
				q   float64
			}{{d.p50, 0.5}, {d.p99, q99}} {
				want := bruteQuantile(xs, c.q)
				windows++
				if c.got != want {
					errs++
					if e := math.Abs(float64(c.got-want)) / float64(want); e > maxErr {
						maxErr = e
					}
				}
			}
			// The tail rule: at least minTail samples lie strictly beyond
			// the reported p99 position.
			if r := rank(d.q99, n); n-r < minTail {
				t.Errorf("n=%d: p99 at q=%.4f leaves %d samples beyond it", n, d.q99, n-r)
			}
		}
	}
	t.Logf("%d windows, %d inexact, max relative error %.4f", windows, errs, maxErr)
	if errs > 0 {
		t.Fatalf("quantiles are not exact")
	}
}

// TestTailQuantile pins the percentile rule: p99 when at least ten
// samples lie beyond it, else the highest quantile that keeps ten.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 1 - 10.0/11}, {100, 0.9}, {500, 0.98}, {1000, 0.99}, {100000, 0.99},
	} {
		if got := tailQuantile(c.n, 0.99); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestCPUPerHeartbeat checks that CPU per heartbeat is the median over
// slices, each slice's CPU divided by the heartbeats that fell due in it,
// so that one slow slice does not move the result; sends before the
// window or past its last full slice are not counted.
func TestCPUPerHeartbeat(t *testing.T) {
	const t0, slice = int64(1e9), int64(1e9)
	var sends []sendRec
	for k, n := range []int{100, 200, 100} {
		for j := 0; j < n; j++ {
			sends = append(sends, sendRec{due: t0 + int64(k)*slice + int64(j)})
		}
	}
	sends = append(sends, sendRec{due: t0 - 1}, sendRec{due: t0 + 3*slice})
	// 1 ms, 2 ms and a stalled 50 ms of CPU: 10, 10 and 500 µs per heartbeat.
	cpuAt := []float64{5, 5.001, 5.003, 5.053}
	if got := cpuPerHeartbeat(cpuAt, sends, t0, time.Duration(slice)); math.Abs(got-10) > 1e-6 {
		t.Fatalf("cpuPerHeartbeat = %v µs, want 10", got)
	}
}
