// Package stats provides the small set of descriptive statistics the Monte
// Carlo breakdown engine and the simulator reports need: running
// mean/variance (Welford), normal confidence intervals, percentiles, and
// fixed-width histograms.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// ErrNoData is returned by queries on empty accumulators.
var ErrNoData = errors.New("stats: no samples")

// Running accumulates samples with Welford's online algorithm, giving
// numerically stable mean and variance without retaining the samples.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one sample.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		// The builtins give math.Min's and math.Max's results, NaN and
		// signed zeros included, without a function call.
		r.min = min(r.min, x)
		r.max = max(r.max, x)
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// N returns the sample count.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 with no samples).
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample (0 with no samples).
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample (0 with no samples).
func (r *Running) Max() float64 { return r.max }

// Variance returns the unbiased sample variance (0 with fewer than two
// samples).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// StdErr returns the standard error of the mean.
func (r *Running) StdErr() float64 {
	if r.n == 0 {
		return 0
	}
	return r.StdDev() / math.Sqrt(float64(r.n))
}

// CI95 returns the half-width of the normal-approximation 95 % confidence
// interval on the mean.
func (r *Running) CI95() float64 { return 1.959964 * r.StdErr() }

// String implements fmt.Stringer.
func (r *Running) String() string {
	return fmt.Sprintf("n=%d mean=%.4g ±%.2g (sd=%.3g min=%.4g max=%.4g)",
		r.n, r.Mean(), r.CI95(), r.StdDev(), r.min, r.max)
}

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of the samples by
// linear interpolation between closest ranks. The input is not modified.
func Percentile(samples []float64, p float64) (float64, error) {
	if len(samples) == 0 {
		return 0, ErrNoData
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	w := rank - float64(lo)
	return sorted[lo]*(1-w) + sorted[hi]*w, nil
}

// Histogram counts samples into equal-width bins over [min, max].
type Histogram struct {
	Min, Max float64
	Counts   []int
	under    int
	over     int
}

// NewHistogram creates a histogram with the given bounds and bin count.
func NewHistogram(min, max float64, bins int) (*Histogram, error) {
	if bins <= 0 {
		return nil, errors.New("stats: histogram needs at least one bin")
	}
	if !(min < max) {
		return nil, errors.New("stats: histogram needs min < max")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int, bins)}, nil
}

// Add counts one sample; values outside [Min, Max] land in under/overflow.
func (h *Histogram) Add(x float64) {
	switch {
	case x < h.Min:
		h.under++
	case x >= h.Max:
		if x == h.Max {
			h.Counts[len(h.Counts)-1]++
			return
		}
		h.over++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i == len(h.Counts) {
			i--
		}
		h.Counts[i]++
	}
}

// Render draws the histogram as rows of '#' bars, one per bin, scaled so
// the fullest bin spans width characters.
func (h *Histogram) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxCount := 1
	for _, c := range h.Counts {
		if c > maxCount {
			maxCount = c
		}
	}
	var b strings.Builder
	binWidth := (h.Max - h.Min) / float64(len(h.Counts))
	for i, c := range h.Counts {
		lo := h.Min + float64(i)*binWidth
		bar := strings.Repeat("#", c*width/maxCount)
		fmt.Fprintf(&b, "%10.4g |%-*s %d\n", lo, width, bar, c)
	}
	if h.under > 0 || h.over > 0 {
		fmt.Fprintf(&b, "(underflow %d, overflow %d)\n", h.under, h.over)
	}
	return b.String()
}
