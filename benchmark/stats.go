package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample; NaN when the sample is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1 // 0.9*100 is a hair over 90
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailLadder is the set of tail percentiles the harness may report, in
// hundredths of a percent so that "ten samples beyond" is integer arithmetic.
var tailLadder = []int{9000, 9500, 9900, 9990, 9999}

// tailPercentile picks the highest percentile of the ladder that still has
// at least ten of n samples beyond it — any higher and the figure would be
// a handful of outliers. ok is false when even p90 is unsupported (n < 100).
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailLadder {
		if n*(10000-c) >= 10*10000 {
			p, ok = float64(c)/100, true
		}
	}
	return p, ok
}

// median sorts a copy of vals and returns its 50th percentile.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartileSpread is the driver's steadiness figure: the distance between
// the first and third quartile of vals as a share of their median, with
// the quartiles computed as Python's statistics.quantiles(vals, n=4) does
// (the "exclusive" method). Needs at least two values.
func quartileSpread(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(k int) float64 {
		// Position k*(n+1)/4, 1-based, linearly interpolated and clamped
		// to the sample — what the exclusive method does for n=4 cuts.
		m := len(s) + 1
		j := k * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := percentile(s, 50)
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return (q(3) - q(1)) / med
}
