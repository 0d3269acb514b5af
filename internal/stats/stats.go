// Package stats is a small statistics toolkit used by the metrics collector
// and the experiment harness: streaming summaries (Welford), quantiles,
// simple linear regression (for checking the sub-linear growth of
// regret/violation curves on log-log axes), and series utilities
// (cumulative sums, window means, downsampling for reports).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a streaming mean/variance/min/max via Welford's
// algorithm. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// AddAll incorporates a slice of observations.
func (s *Summary) AddAll(xs []float64) {
	for _, x := range xs {
		s.Add(x)
	}
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 points).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the minimum observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the maximum observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Sum returns mean*n, the total of all observations.
func (s *Summary) Sum() float64 { return s.mean * float64(s.n) }

// CI95 returns the half-width of a 95% normal-approximation confidence
// interval for the mean.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Std() / math.Sqrt(float64(s.n))
}

// String renders the summary compactly for report footers.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// Merge combines another summary into s (parallel-reduce friendly;
// Chan et al. parallel variance update).
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	n := s.n + o.n
	d := o.mean - s.mean
	mean := s.mean + d*float64(o.n)/float64(n)
	m2 := s.m2 + o.m2 + d*d*float64(s.n)*float64(o.n)/float64(n)
	min, max := s.min, s.max
	if o.min < min {
		min = o.min
	}
	if o.max > max {
		max = o.max
	}
	*s = Summary{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs (NaN for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Sum returns the total of xs.
func Sum(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum
}

// LinearFit fits y = a + b*x by least squares and returns (a, b, r2).
// Used by the harness to estimate growth exponents of cumulative regret:
// fitting log(R(t)) against log(t) gives the empirical exponent b, which
// should be < 1 for sub-linear regret.
func LinearFit(xs, ys []float64) (a, b, r2 float64) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	b = sxy / sxx
	a = my - b*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return a, b, r2
}

// GrowthExponent estimates the exponent theta for a cumulative series
// y(t) ≈ C * t^theta by a log-log linear fit over the second half of the
// series (skipping the noisy burn-in). Points with y <= 0 are ignored.
// Returns NaN when fewer than 2 usable points remain.
func GrowthExponent(series []float64) float64 {
	start := len(series) / 2
	var lx, ly []float64
	for t := start; t < len(series); t++ {
		if series[t] > 0 {
			lx = append(lx, math.Log(float64(t+1)))
			ly = append(ly, math.Log(series[t]))
		}
	}
	_, b, _ := LinearFit(lx, ly)
	return b
}

// Cumulative returns the running sum of xs as a new slice.
func Cumulative(xs []float64) []float64 {
	out := make([]float64, len(xs))
	acc := 0.0
	for i, x := range xs {
		acc += x
		out[i] = acc
	}
	return out
}

// WindowMean returns xs smoothed by a trailing window of width w (w >= 1).
// Entry i averages xs[max(0,i-w+1)..i].
func WindowMean(xs []float64, w int) []float64 {
	if w < 1 {
		panic("stats: WindowMean window must be >= 1")
	}
	out := make([]float64, len(xs))
	acc := 0.0
	for i, x := range xs {
		acc += x
		if i >= w {
			acc -= xs[i-w]
		}
		n := w
		if i+1 < w {
			n = i + 1
		}
		out[i] = acc / float64(n)
	}
	return out
}

// Downsample reduces xs to at most n points by averaging equal-width buckets,
// preserving the overall shape for compact report figures. It returns the
// bucket centers (as fractional original indices) alongside the values.
func Downsample(xs []float64, n int) (idx []float64, vals []float64) {
	if n <= 0 || len(xs) == 0 {
		return nil, nil
	}
	if len(xs) <= n {
		idx = make([]float64, len(xs))
		for i := range xs {
			idx[i] = float64(i)
		}
		return idx, append([]float64(nil), xs...)
	}
	idx = make([]float64, n)
	vals = make([]float64, n)
	for b := 0; b < n; b++ {
		lo := b * len(xs) / n
		hi := (b + 1) * len(xs) / n
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for i := lo; i < hi; i++ {
			sum += xs[i]
		}
		vals[b] = sum / float64(hi-lo)
		idx[b] = float64(lo+hi-1) / 2
	}
	return idx, vals
}

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
