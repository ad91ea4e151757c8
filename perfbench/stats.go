package main

import (
	"math"
	"sort"
)

// histGrowth is the ratio between neighbouring latency-histogram bucket
// bounds: a bucket's midpoint is within 0.05 % of any sample it holds.
const histGrowth = 1.001

var lnHistGrowth = math.Log(histGrowth)

// histBuckets covers 1 ns to 100 s.
var histBuckets = int(math.Ceil(math.Log(1e11)/lnHistGrowth)) + 1

// histogram is a log-bucketed latency histogram. Its memory is fixed, so
// the harness's own footprint does not grow with the number of ops a run
// completes and peak_rss_mb moves only with the program.
type histogram struct {
	counts []uint32
	n      int
}

func newHistogram() *histogram { return &histogram{counts: make([]uint32, histBuckets)} }

func (h *histogram) add(ns float64) {
	k := 0
	if ns > 1 {
		k = int(math.Log(ns) / lnHistGrowth)
	}
	if k >= len(h.counts) {
		k = len(h.counts) - 1
	}
	h.counts[k]++
	h.n++
}

// rank is the nearest-rank index (1-based) of quantile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank quantile p in ns (the midpoint of the
// bucket holding that sample) and the number of samples above its rank.
func (h *histogram) quantile(p float64) (ns float64, beyond int) {
	if h.n == 0 {
		return 0, 0
	}
	r := rank(p, h.n)
	seen := 0
	for k, c := range h.counts {
		seen += int(c)
		if seen >= r {
			return math.Exp((float64(k) + 0.5) * lnHistGrowth), h.n - r
		}
	}
	panic("histogram: counts do not sum to n")
}

// median returns the median of xs (the mean of the middle two for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method), which is how the steadiness of a metric is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4 // outside [0, 4] after clamping, as in Python
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// calibrationFactor converts a timing taken while the calibration kernel
// ran in kernelMs (its mean over the interval) to the reference host speed.
func calibrationFactor(refMs, kernelMs float64) float64 { return refMs / kernelMs }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// blockThroughput is the median over blocks of ops per second, where a
// block's rate is its op count over the sum of its op latencies (a closed
// loop with one client completes one op per latency).
func blockThroughput(ops []int, latencySec []float64) float64 {
	rates := make([]float64, 0, len(ops))
	for i, n := range ops {
		if latencySec[i] > 0 {
			rates = append(rates, float64(n)/latencySec[i])
		}
	}
	return median(rates)
}
