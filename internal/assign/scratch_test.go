package assign

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"lfsc/internal/rng"
)

// TestGreedyIntoMatchesGreedy checks that the scratch-buffer form produces
// exactly the assignment of the allocating wrapper, including when the
// scratch is reused across slots of varying size (the LFSC steady state).
func TestGreedyIntoMatchesGreedy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	var s GreedyScratch
	var assigned []int
	for trial := 0; trial < 200; trial++ {
		numSCNs := 1 + r.Intn(8)
		numTasks := 1 + r.Intn(50)
		capacity := 1 + r.Intn(5)
		edges := make([]Edge, r.Intn(60))
		for i := range edges {
			edges[i] = Edge{SCN: r.Intn(numSCNs), Task: r.Intn(numTasks), W: r.Float64()}
		}
		want := Greedy(edges, numSCNs, numTasks, capacity)
		assigned = GreedyInto(assigned, &s, edges, numSCNs, numTasks, capacity)
		if len(assigned) != len(want) {
			t.Fatalf("trial %d: length %d, want %d", trial, len(assigned), len(want))
		}
		for i := range want {
			if assigned[i] != want[i] {
				t.Fatalf("trial %d: task %d assigned to %d, want %d",
					trial, i, assigned[i], want[i])
			}
		}
	}
}

// depRoundInto runs DepRoundGather over the positional vector p (an
// identity index) and returns the picks in ascending order: the form the
// tests and the golden compare, since the kernel emits picks in rounding
// order.
func depRoundInto(s *DepRoundScratch, p []float64, r *rng.Stream) []int {
	at := make([]int32, len(p))
	for i := range at {
		at[i] = int32(i)
	}
	var out []int
	for _, i := range DepRoundGather(s, at, p, r) {
		out = append(out, int(i))
	}
	slices.Sort(out)
	return out
}

// depRound is depRoundInto with a fresh scratch.
func depRound(p []float64, r *rng.Stream) []int {
	var s DepRoundScratch
	return depRoundInto(&s, p, r)
}

// TestDepRoundIntoMatchesDepRound checks that a scratch reused across
// varying problem sizes consumes the RNG stream identically to a fresh one
// and returns the same selection.
func TestDepRoundIntoMatchesDepRound(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var s DepRoundScratch
	for trial := 0; trial < 200; trial++ {
		k := 1 + r.Intn(40)
		c := 1 + r.Intn(k)
		p := make([]float64, k)
		for i := range p {
			p[i] = r.Float64()
		}
		// Scale marginals to sum to the integer c (DepRound's contract).
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		for i := range p {
			p[i] *= float64(c) / sum
			if p[i] > 1 {
				p[i] = 1
			}
		}
		seed := uint64(1000 + trial)
		want := depRound(append([]float64(nil), p...), rng.New(seed))
		got := depRoundInto(&s, append([]float64(nil), p...), rng.New(seed))
		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %d tasks, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: selection[%d] = %d, want %d", trial, i, got[i], want[i])
			}
		}
	}
}

// depRoundReference is the textbook stack form of dependent rounding that
// DepRoundGather's chain replaces: the marginals live in a mutable vector,
// every pairing writes both entries back and re-pushes the fractional ones,
// and the selection is a final scan for entries at 1. It is kept as the
// reference the chain must match draw for draw and pick for pick.
func depRoundReference(p []float64, r *rng.Stream) []int {
	const tol = 1e-9
	w := append([]float64(nil), p...)
	var stack []int
	for i, v := range w {
		if v < -tol || v > 1+tol {
			panic("out of range")
		}
		if v < 0 {
			w[i] = 0
		} else if v > 1 {
			w[i] = 1
		} else if v > tol && v < 1-tol {
			stack = append(stack, i)
		}
	}
	for len(stack) >= 2 {
		i, j := stack[len(stack)-1], stack[len(stack)-2]
		stack = stack[:len(stack)-2]
		alpha := min2(1-w[i], w[j])
		beta := min2(w[i], 1-w[j])
		if r.Float64() < beta/(alpha+beta) {
			w[i] += alpha
			w[j] -= alpha
		} else {
			w[i] -= beta
			w[j] += beta
		}
		if wi := w[i]; wi > tol && wi < 1-tol {
			stack = append(stack, i)
		}
		if wj := w[j]; wj > tol && wj < 1-tol {
			stack = append(stack, j)
		}
	}
	if len(stack) == 1 {
		k := stack[0]
		if r.Float64() < w[k] {
			w[k] = 1
		} else {
			w[k] = 0
		}
	}
	var out []int
	for i, v := range w {
		if v >= 1-tol {
			out = append(out, i)
		}
	}
	return out
}

// TestDepRoundMatchesReference runs the chain and the reference on the same
// streams over random marginal vectors, including pairs whose mass sums to
// within an ulp of 1 (where the two fits tests can disagree) and exact
// dyadic sums: the picks and the final stream state must agree exactly.
//
// The two remainders of a pairing whose mass exceeds one entry, w[j]−(1−w[i])
// and w[i]−(1−w[j]), differ by at most an ulp, which random vectors almost
// never let decide anything. The last case makes it decide: for w[i] =
// 0.800000001 (bits below) and w[j] = 0.2 the first is just above the
// integrality tolerance and the second just below it, so swapping them
// keeps or drops the survivor and changes how many draws the call takes.
func TestDepRoundMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var s DepRoundScratch
	for trial := 0; trial < 20000; trial++ {
		k := 1 + r.Intn(80)
		p := make([]float64, k)
		switch trial % 5 {
		case 0: // random, scaled to an integer sum
			c := 1 + r.Intn(k)
			sum := 0.0
			for i := range p {
				p[i] = r.Float64()
				sum += p[i]
			}
			for i := range p {
				p[i] = math.Min(1, p[i]*float64(c)/sum)
			}
		case 1: // complementary pairs, nudged by a few ulps
			for i := 0; i+1 < k; i += 2 {
				x := r.Float64()
				p[i] = x
				p[i+1] = 1 - x
				for n := r.Intn(4) - 2; n != 0; n /= 2 {
					p[i+1] = math.Nextafter(p[i+1], float64(n))
				}
			}
			if k%2 == 1 {
				p[k-1] = r.Float64()
			}
		case 2: // dyadic grid
			for i := range p {
				p[i] = float64(r.Intn(9)) / 8
			}
		case 4: // remainders straddling the tolerance (see above)
			p = []float64{0.5, 0.2, math.Float64frombits(0x3fe999999a2309f9)}
		default: // skewed: floor, tail and ones
			for i := range p {
				switch r.Intn(4) {
				case 0:
					p[i] = 1
				case 1:
					p[i] = 0.004
				default:
					p[i] = math.Exp(-6 * r.Float64())
				}
			}
		}
		seed := uint64(5000 + trial)
		ra, rb := rng.New(seed), rng.New(seed)
		want := depRoundReference(p, ra)
		got := depRoundInto(&s, p, rb)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d picks %v, reference %d %v", trial, len(got), got, len(want), want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: picks %v, reference %v", trial, got, want)
			}
		}
		if ra.State() != rb.State() {
			t.Fatalf("trial %d: stream state %x, reference %x", trial, rb.State(), ra.State())
		}
	}
}
