// Package rng provides deterministic, splittable pseudo-random number
// generation for the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: every
// figure must be regenerable bit-for-bit from a seed printed in its header.
// The standard library's math/rand/v2 sources are excellent but do not give
// us a documented, stable way to derive many independent streams from one
// master seed. This package implements:
//
//   - SplitMix64: a tiny, well-studied generator used purely as a seed
//     deriver (its output is equidistributed over 64 bits and a single
//     step is enough to decorrelate sequential seeds).
//   - PCG32 (XSH-RR 64/32): the workhorse generator. Each PCG stream is
//     identified by a (state, sequence) pair; distinct odd sequence
//     increments yield statistically independent streams, which is exactly
//     what we need for per-SCN, per-policy and per-goroutine RNGs.
//
// All distribution helpers (Uniform, Bernoulli, Exponential, Normal,
// Lognormal, Zipf-ish integer ranges, permutations) live on *Stream so that
// simulation code never touches global state.
package rng

import (
	"math"
	"math/bits"
)

// splitMix64 advances a SplitMix64 state and returns the next output.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Stream is a PCG32 pseudo-random stream. The zero value is NOT usable;
// construct streams with New or Derive.
type Stream struct {
	state uint64
	inc   uint64 // odd
	root  uint64 // immutable identity captured at construction, used by Derive
}

// New returns a stream seeded from seed with the default sequence.
func New(seed uint64) *Stream {
	return NewSeq(seed, 0xda3e39cb94b95bdb)
}

// NewSeq returns a stream with an explicit sequence selector. Streams with
// different sequence selectors are independent even for equal seeds.
func NewSeq(seed, seq uint64) *Stream {
	s := &Stream{}
	s.init(seed, seq)
	return s
}

// init seeds s in place; it is the allocation-free core of NewSeq.
func (s *Stream) init(seed, seq uint64) {
	s.inc = (seq << 1) | 1
	s.state = 0
	s.Uint32()
	mixed := seed
	s.state += splitMix64(&mixed)
	s.Uint32()
	s.root = seed ^ (seq * 0x9e3779b97f4a7c15)
}

// Derive deterministically derives an independent child stream. The label
// distinguishes children derived from the same parent; calling Derive twice
// with the same label yields identical streams, so callers should use
// distinct labels (e.g. SCN index, seed replica index).
//
// Derive does not advance the parent stream, making stream layout
// independent of call order.
func (s *Stream) Derive(label uint64) *Stream {
	d := &Stream{}
	s.DeriveInto(label, d)
	return d
}

// DeriveInto is Derive without the heap allocation: it overwrites dst with
// the state of the child stream for label, producing a stream bit-identical
// to Derive(label). Hot loops keep a stack-allocated Stream value and call
// DeriveInto per slot/task instead of allocating a fresh child each time.
func (s *Stream) DeriveInto(label uint64, dst *Stream) {
	st := s.root ^ (0x9e3779b97f4a7c15 * (label + 1))
	sq := (s.inc >> 1) ^ (0xd1342543de82ef95 * (label + 0x632be59bd9b4e019))
	// One extra mixing round each so that close labels map to distant states.
	dst.init(splitMix64(&st), splitMix64(&sq))
}

// PCG32's LCG multiplier, and the two constants that advance the state
// two steps at once: x*pcgMul2 + inc*pcgMulP1 equals (x*pcgMul + inc)*pcgMul
// + inc mod 2⁶⁴, so Uint64 need not wait on its first step's result.
const (
	pcgMul   = 6364136223846793005
	pcgMul2  = pcgMul * pcgMul % (1 << 64)
	pcgMulP1 = pcgMul + 1
)

// pcgOut is PCG32's XSH-RR output permutation of a pre-step state: an
// xorshift of the high bits, rotated right by the state's top five bits.
func pcgOut(old uint64) uint32 {
	return bits.RotateLeft32(uint32(((old>>18)^old)>>27), -int(old>>59))
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Stream) Uint32() uint32 {
	old := s.state
	s.state = old*pcgMul + s.inc
	return pcgOut(old)
}

// Uint64 returns the next 64 uniformly distributed bits: the next two
// Uint32 draws, the first in the high word.
func (s *Stream) Uint64() uint64 {
	old := s.state
	s.state = old*pcgMul2 + s.inc*pcgMulP1
	return uint64(pcgOut(old))<<32 | uint64(pcgOut(old*pcgMul+s.inc))
}

// Float64 returns a uniform float64 in [0,1) with 53 random bits. The
// 53-bit value never sets the sign bit, so converting it as an int64 is
// exact and cheaper than the unsigned conversion.
func (s *Stream) Float64() float64 {
	return float64(int64(s.Uint64()>>11)) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo,hi).
func (s *Stream) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform int in [0,n). It panics if n <= 0 or n > 2³²−1.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	if uint64(n) > math.MaxUint32 {
		panic("rng: Intn with n above 2^32-1")
	}
	bound := uint32(n)
	m := uint64(s.Uint32()) * uint64(bound)
	if uint32(m) < bound {
		// Only here can a draw be rejected: the threshold -bound % bound is
		// always below bound, so its division is paid only now.
		threshold := -bound % bound
		for uint32(m) < threshold {
			m = uint64(s.Uint32()) * uint64(bound)
		}
	}
	return int(m >> 32)
}

// IntRange returns a uniform int in [lo,hi] inclusive. It panics if hi < lo.
func (s *Stream) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Stream) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Exponential returns an exponentially distributed value with rate lambda.
func (s *Stream) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -math.Log(u) / lambda
}

// Normal returns a normally distributed value (Box–Muller, no caching so the
// stream state is a pure function of the number of calls).
func (s *Stream) Normal(mean, stddev float64) float64 {
	u1 := s.Float64()
	for u1 == 0 {
		u1 = s.Float64()
	}
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Lognormal returns exp(Normal(mu, sigma)).
func (s *Stream) Lognormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// TruncNormal returns a normal sample rejected into [lo,hi]. If the window is
// more than ~6 sigma from the mean this could spin; callers use it with
// windows overlapping the bulk of the distribution.
func (s *Stream) TruncNormal(mean, stddev, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	for i := 0; i < 1024; i++ {
		v := s.Normal(mean, stddev)
		if v >= lo && v <= hi {
			return v
		}
	}
	// Pathological parameters: fall back to uniform to stay total.
	return s.Uniform(lo, hi)
}

// Perm fills a permutation of [0,n) using Fisher–Yates.
func (s *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Sample returns k distinct indices drawn uniformly from [0,n) in random
// order. If k >= n it returns a full permutation.
func (s *Stream) Sample(n, k int) []int {
	if k >= n {
		return s.Perm(n)
	}
	// Partial Fisher–Yates: only the first k slots are materialised.
	idx := make(map[int]int, 2*k)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		vj, ok := idx[j]
		if !ok {
			vj = j
		}
		vi, ok := idx[i]
		if !ok {
			vi = i
		}
		out[i] = vj
		idx[j] = vi
	}
	return out
}

// Categorical draws an index in [0,len(weights)) with probability
// proportional to weights[i]. Zero-total weights fall back to uniform.
func (s *Stream) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	x := s.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1
}

// State captures the stream's exact internal state as a (state, inc, root)
// triple, for checkpointing. Restoring the triple into any Stream resumes
// the sequence bit-identically: the triple IS the stream.
func (s *Stream) State() [3]uint64 {
	return [3]uint64{s.state, s.inc, s.root}
}

// Restore overwrites the stream with a previously captured State triple.
// It reports whether the triple is structurally valid (the PCG increment
// must be odd); an invalid triple leaves the stream untouched, so callers
// can validate a whole checkpoint before committing any of it.
func (s *Stream) Restore(st [3]uint64) bool {
	if st[1]&1 == 0 {
		return false
	}
	s.state, s.inc, s.root = st[0], st[1], st[2]
	return true
}
