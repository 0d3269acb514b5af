package stats

import (
	"math"
	"testing"
	"testing/quick"

	"lfsc/internal/rng"
)

func almostEq(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	s.AddAll([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if !almostEq(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v", s.Mean())
	}
	// Population variance is 4; unbiased sample variance is 32/7.
	if !almostEq(s.Var(), 32.0/7.0, 1e-12) {
		t.Fatalf("var = %v", s.Var())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
	if !almostEq(s.Sum(), 40, 1e-9) {
		t.Fatalf("sum = %v", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestSummaryMergeMatchesSequential(t *testing.T) {
	r := rng.New(1)
	if err := quick.Check(func(na, nb uint8) bool {
		var a, b, all Summary
		for i := 0; i < int(na); i++ {
			x := r.Normal(1, 3)
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nb); i++ {
			x := r.Normal(-2, 0.5)
			b.Add(x)
			all.Add(x)
		}
		a.Merge(&b)
		return a.N() == all.N() &&
			almostEq(a.Mean(), all.Mean(), 1e-9) &&
			almostEq(a.Var(), all.Var(), 1e-6) &&
			almostEq(a.Min(), all.Min(), 0) &&
			almostEq(a.Max(), all.Max(), 0)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Fatalf("median = %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.25); q != 2 {
		t.Fatalf("q25 = %v", q)
	}
	// Input must be unmodified.
	if xs[0] != 3 {
		t.Fatal("Quantile mutated input")
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestMeanSum(t *testing.T) {
	if !almostEq(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Fatal("Mean")
	}
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) should be NaN")
	}
	if Sum([]float64{1.5, 2.5}) != 4 {
		t.Fatal("Sum")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{1, 3, 5, 7} // y = 1 + 2x
	a, b, r2 := LinearFit(xs, ys)
	if !almostEq(a, 1, 1e-9) || !almostEq(b, 2, 1e-9) || !almostEq(r2, 1, 1e-9) {
		t.Fatalf("fit = %v %v %v", a, b, r2)
	}
}

func TestLinearFitDegenerate(t *testing.T) {
	a, b, _ := LinearFit([]float64{1, 1}, []float64{2, 3})
	if !math.IsNaN(a) || !math.IsNaN(b) {
		t.Fatal("constant x should produce NaN fit")
	}
	if _, _, r2 := LinearFit([]float64{1, 2}, []float64{5, 5}); r2 != 1 {
		t.Fatal("constant y should report r2=1")
	}
}

func TestGrowthExponent(t *testing.T) {
	// y(t) = t^0.5 should give exponent ~0.5.
	series := make([]float64, 4000)
	for t0 := range series {
		series[t0] = math.Sqrt(float64(t0 + 1))
	}
	got := GrowthExponent(series)
	if !almostEq(got, 0.5, 0.02) {
		t.Fatalf("exponent %v, want ~0.5", got)
	}
	// Linear growth → exponent ~1.
	for t0 := range series {
		series[t0] = 3 * float64(t0+1)
	}
	if got := GrowthExponent(series); !almostEq(got, 1.0, 0.02) {
		t.Fatalf("exponent %v, want ~1", got)
	}
}

func TestCumulative(t *testing.T) {
	got := Cumulative([]float64{1, 2, 3})
	want := []float64{1, 3, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative = %v", got)
		}
	}
}

func TestWindowMean(t *testing.T) {
	got := WindowMean([]float64{1, 2, 3, 4}, 2)
	want := []float64{1, 1.5, 2.5, 3.5}
	for i := range want {
		if !almostEq(got[i], want[i], 1e-12) {
			t.Fatalf("window mean = %v", got)
		}
	}
	// Window wider than the series behaves as a running mean.
	got = WindowMean([]float64{2, 4}, 10)
	if !almostEq(got[1], 3, 1e-12) {
		t.Fatalf("wide window mean = %v", got)
	}
}

func TestDownsample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	idx, vals := Downsample(xs, 10)
	if len(vals) != 10 || len(idx) != 10 {
		t.Fatalf("downsample lengths %d/%d", len(idx), len(vals))
	}
	// Bucket means of 0..99 in tens: 4.5, 14.5, ...
	for b := 0; b < 10; b++ {
		if !almostEq(vals[b], float64(b)*10+4.5, 1e-9) {
			t.Fatalf("bucket %d = %v", b, vals[b])
		}
	}
	// Short series passes through.
	idx, vals = Downsample([]float64{7, 8}, 10)
	if len(vals) != 2 || vals[0] != 7 || idx[1] != 1 {
		t.Fatal("short series should pass through")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("Clamp")
	}
}

func TestQuantileAgainstUniform(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if !almostEq(Quantile(xs, q), q, 0.02) {
			t.Fatalf("uniform quantile %v = %v", q, Quantile(xs, q))
		}
	}
}
