package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seed diverged at step %d", i)
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with adjacent seeds agree on %d/1000 outputs", same)
	}
}

func TestNewSeqIndependence(t *testing.T) {
	a := NewSeq(7, 1)
	b := NewSeq(7, 2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams with distinct sequences agree on %d/1000 outputs", same)
	}
}

func TestDeriveDeterministicAndStable(t *testing.T) {
	parent := New(99)
	c1 := parent.Derive(5)
	// Consuming from the parent must not change future derivations.
	parent.Uint64()
	c2 := parent.Derive(5)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Derive depends on parent consumption")
		}
	}
}

func TestDeriveDistinctLabels(t *testing.T) {
	parent := New(99)
	a := parent.Derive(0)
	b := parent.Derive(1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint32() == b.Uint32() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("adjacent-label children agree on %d/1000 outputs", same)
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(5)
	if err := quick.Check(func(n uint8) bool {
		m := int(n%100) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		counts[s.Intn(7)]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-n/7.0) > 500 {
			t.Fatalf("Intn(7) digit %d count %d too far from %d", d, c, n/7)
		}
	}
}

// Intn panics on bounds it cannot draw from: non-positive ones, and ones
// above 2³²−1 that the 32-bit multiply-shift would silently truncate.
func TestIntnPanics(t *testing.T) {
	for _, n := range []int{0, -1, 1<<32 + 3, 1 << 32, math.MaxInt} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
	if v := New(1).Intn(math.MaxUint32); v < 0 || v >= math.MaxUint32 {
		t.Fatalf("Intn(2^32-1) = %d out of range", v)
	}
}

func TestIntRange(t *testing.T) {
	s := New(7)
	for i := 0; i < 10000; i++ {
		v := s.IntRange(35, 100)
		if v < 35 || v > 100 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	if got := s.IntRange(5, 5); got != 5 {
		t.Fatalf("degenerate IntRange = %d", got)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(8)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) empirical %v", p)
	}
	if s.Bernoulli(0) {
		t.Fatal("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Fatal("Bernoulli(1) returned false")
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Exponential(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Exponential(2) mean %v, want ~0.5", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(10)
	sum, sumsq := 0.0, 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Normal(3, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("Normal mean %v, want ~3", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Fatalf("Normal variance %v, want ~4", variance)
	}
}

func TestTruncNormalBounds(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		v := s.TruncNormal(0.5, 0.3, 0.2, 0.8)
		if v < 0.2 || v > 0.8 {
			t.Fatalf("TruncNormal out of window: %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(12)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinct(t *testing.T) {
	s := New(13)
	if err := quick.Check(func(a, b uint8) bool {
		n := int(a%50) + 1
		k := int(b % 60)
		out := s.Sample(n, k)
		want := k
		if k > n {
			want = n
		}
		if len(out) != want {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleUniformCoverage(t *testing.T) {
	s := New(14)
	counts := make([]int, 10)
	const rounds = 50000
	for i := 0; i < rounds; i++ {
		for _, v := range s.Sample(10, 3) {
			counts[v]++
		}
	}
	want := float64(rounds) * 3 / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.05 {
			t.Fatalf("Sample coverage of %d = %d, want ~%v", i, c, want)
		}
	}
}

func TestCategorical(t *testing.T) {
	s := New(15)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[s.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight category drawn %d times", counts[1])
	}
	p0 := float64(counts[0]) / n
	if math.Abs(p0-0.25) > 0.01 {
		t.Fatalf("Categorical p0 = %v, want ~0.25", p0)
	}
}

func TestCategoricalZeroTotal(t *testing.T) {
	s := New(16)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.Categorical([]float64{0, 0, 0})
		if v < 0 || v > 2 {
			t.Fatalf("Categorical fallback out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Fatalf("zero-total fallback not uniform, saw %v", seen)
	}
}

func TestUniformRange(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		v := s.Uniform(1, 2)
		if v < 1 || v >= 2 {
			t.Fatalf("Uniform(1,2) out of range: %v", v)
		}
	}
}

func TestLognormalPositive(t *testing.T) {
	s := New(18)
	for i := 0; i < 10000; i++ {
		if s.Lognormal(0, 1) <= 0 {
			t.Fatal("Lognormal non-positive")
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}

func BenchmarkIntn(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Intn(97)
	}
}

func TestStateRestoreResumesBitIdentically(t *testing.T) {
	s := New(99)
	for i := 0; i < 37; i++ {
		s.Uint64()
	}
	st := s.State()
	want := []uint64{s.Uint64(), s.Uint64(), s.Uint64()}

	fresh := New(1) // arbitrary state, fully overwritten by Restore
	if !fresh.Restore(st) {
		t.Fatal("valid state rejected")
	}
	for i, w := range want {
		if got := fresh.Uint64(); got != w {
			t.Fatalf("draw %d after restore = %d, want %d", i, got, w)
		}
	}
	// Derive identity survives the round trip too (root is part of State).
	a, b := s.Derive(7), fresh.Derive(7)
	if a.Uint64() != b.Uint64() {
		t.Fatal("derived children diverge after restore")
	}
}

func TestRestoreRejectsEvenIncrement(t *testing.T) {
	s := New(3)
	before := s.State()
	if s.Restore([3]uint64{1, 2, 3}) {
		t.Fatal("even increment accepted")
	}
	if s.State() != before {
		t.Fatal("failed restore mutated the stream")
	}
}
