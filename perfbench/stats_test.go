package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		xs   []float64
		bp   int
		want float64
	}{
		{seq(100), p50, 50},
		{seq(100), p99, 99},
		{seq(1000), p99, 990},
		{seq(1000), 9990, 999},
		{seq(10), p50, 5},
		{seq(10), p99, 10},
		{[]float64{7}, p50, 7},
		{[]float64{7}, p99, 7},
		{[]float64{1, 3, 5}, p50, 3},
		{[]float64{1, 2}, p50, 1},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.bp); got != c.want {
			t.Errorf("percentile(n=%d, bp=%d) = %v, want %v", len(c.xs), c.bp, got, c.want)
		}
	}
	if got := percentile(nil, p50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestPercentileTellsP90FromP99(t *testing.T) {
	// 900 fast samples, 90 medium, 10 slow: log2 buckets would merge p90
	// and p99 here; exact order statistics must not.
	var xs []float64
	for i := 0; i < 10; i++ {
		xs = append(xs, 5000+float64(i))
	}
	for i := 0; i < 90; i++ {
		xs = append(xs, 2000+float64(i))
	}
	for i := 0; i < 900; i++ {
		xs = append(xs, 100+float64(i))
	}
	s := sortedCopy(xs)
	// Rank 900 is the last fast sample, rank 990 the last medium one,
	// rank 999 the second-slowest.
	if got := percentile(s, 9000); got != 999 {
		t.Errorf("p90 = %v, want 999", got)
	}
	if got := percentile(s, p99); got != 2089 {
		t.Errorf("p99 = %v, want 2089", got)
	}
	if got := percentile(s, 9990); got != 5008 {
		t.Errorf("p99.9 = %v, want 5008", got)
	}
}

func TestBeyondRule(t *testing.T) {
	cases := []struct {
		bp, n, beyond int
		ok            bool
	}{
		{p99, 1000, 10, true},
		{p99, 999, 9, false},
		{p99, 3000, 30, true},
		{p99, 100, 1, false},
		{p50, 20, 10, true},
		{p50, 19, 9, false},
		{p50, 0, 0, false},
	}
	for _, c := range cases {
		if got := beyond(c.bp, c.n); got != c.beyond {
			t.Errorf("beyond(bp=%d, n=%d) = %d, want %d", c.bp, c.n, got, c.beyond)
		}
		if got := supported(c.bp, c.n); got != c.ok {
			t.Errorf("supported(bp=%d, n=%d) = %v, want %v", c.bp, c.n, got, c.ok)
		}
	}
}

func TestMedianAndSummary(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	s := summarize(xs)
	if s.Mean != 3 || s.P50 != 3 || s.P99 != 5 {
		t.Errorf("summary = %+v", s)
	}
	if xs[0] != 5 {
		t.Error("summarize reordered its input")
	}
}
