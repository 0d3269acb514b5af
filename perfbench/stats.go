package main

import (
	"math"
	"sort"
)

// Percentiles are exact nearest-rank order statistics over raw samples,
// expressed in basis points (p50 = 5000, p99 = 9900) so the rank is
// integer arithmetic and never suffers a float rounding at the boundary.
const (
	p50 = 5000
	p99 = 9900
)

// minBeyond is how many samples must lie above a reported percentile for
// it to be meaningful: a p99 needs at least 1000 samples.
const minBeyond = 10

// rankIndex is the 0-based index of the nearest-rank percentile bp in n
// ascending samples: the smallest value with at least bp/10000 of the
// samples at or below it.
func rankIndex(bp, n int) int {
	if n <= 0 {
		return -1
	}
	r := (bp*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// beyond counts the samples strictly above the nearest-rank percentile
// bp's position in n samples.
func beyond(bp, n int) int {
	if n <= 0 {
		return 0
	}
	return n - 1 - rankIndex(bp, n)
}

// supported reports whether n samples carry at least minBeyond samples
// beyond percentile bp.
func supported(bp, n int) bool { return beyond(bp, n) >= minBeyond }

// percentile returns the nearest-rank percentile bp of ascending samples
// (NaN when empty).
func percentile(sorted []float64, bp int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankIndex(bp, len(sorted))]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// sum returns the sum of xs in order.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// median returns the middle value of xs, averaging the two middle values
// of an even count (NaN when empty).
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary is one layer's per-slot distribution.
type summary struct{ Mean, P50, P99 float64 }

// summarize computes mean, p50 and p99 of per-slot values.
func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{Mean: mean(xs), P50: percentile(s, p50), P99: percentile(s, p99)}
}
