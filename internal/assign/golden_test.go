package assign

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"lfsc/internal/rng"
)

// depRoundGoldenPath pins DepRoundGather's exact behaviour: for every call
// of every case below, the selected indices (ascending) and the stream's
// State() after the call.
// Any change to which pairs are formed, how a coin is read, which entry
// survives a pairing, or how many draws a call takes fails here at the call
// it changed.
const depRoundGoldenPath = "testdata/depround.golden"

const depRoundGoldenCalls = 16

// depRoundCase builds the marginals of one call; r is the case's own
// generator for the vector (not the stream DepRound draws from).
type depRoundCase struct {
	name string
	mk   func(call int, r *rng.Stream) []float64
}

// skewed builds a learned-state marginal vector: ones (capped cells), a
// geometric tail and the exploration floor, scaled so the fractional part
// sums to c minus the ones up to rounding — the shape Exp3.M produces after
// a few thousand slots at paper scale.
func skewed(k, c, ones int, r *rng.Stream) []float64 {
	p := make([]float64, k)
	w := make([]float64, k)
	sum := 0.0
	for i := ones; i < k; i++ {
		w[i] = math.Exp(-8 * r.Float64())
		sum += w[i]
	}
	for i := range p {
		if i < ones {
			p[i] = 1
			continue
		}
		p[i] = float64(c-ones) * w[i] / sum
		if p[i] >= 1 {
			p[i] = 0.999
		}
	}
	r.Shuffle(k, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

var depRoundCases = []depRoundCase{
	{"uniform-100-20", func(int, *rng.Stream) []float64 {
		p := make([]float64, 100)
		for i := range p {
			p[i] = 20.0 / 100
		}
		return p
	}},
	{"uniform-67-20", func(int, *rng.Stream) []float64 {
		p := make([]float64, 67)
		for i := range p {
			p[i] = 20.0 / 67
		}
		return p
	}},
	{"skewed", func(call int, r *rng.Stream) []float64 {
		return skewed(35+r.Intn(66), 20, call%6, r)
	}},
	{"random-scaled", func(_ int, r *rng.Stream) []float64 {
		k := 2 + r.Intn(60)
		c := 1 + r.Intn(k)
		p := make([]float64, k)
		sum := 0.0
		for i := range p {
			p[i] = r.Float64()
			sum += p[i]
		}
		for i := range p {
			p[i] = math.Min(1, p[i]*float64(c)/sum)
		}
		return p
	}},
	{"tolerance-edges", func(call int, r *rng.Stream) []float64 {
		const tol = 1e-9
		edges := []float64{
			tol, 1 - tol, math.Nextafter(tol, 1), math.Nextafter(1-tol, 0),
			-tol, 1 + tol, -tol / 2, 1 + tol/2, 0, 1,
		}
		p := make([]float64, 0, 24)
		for i := 0; i < 14; i++ {
			p = append(p, 0.1+0.8*r.Float64())
		}
		p = append(p, edges...)
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}},
	{"integral", func(call int, r *rng.Stream) []float64 {
		p := make([]float64, 30)
		for i := range p {
			switch r.Intn(3) {
			case 0:
				p[i] = 0
			case 1:
				p[i] = 1
			default:
				p[i] = r.Float64()
			}
		}
		return p
	}},
	{"exact-sum", func(call int, r *rng.Stream) []float64 {
		// Dyadic marginals summing to exactly 4: every pairing is exact.
		p := []float64{0.5, 0.5, 0.25, 0.75, 0.125, 0.875, 0.375, 0.625}
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}},
	{"non-integral-sum", func(call int, r *rng.Stream) []float64 {
		// Σp = 2.5: the chain ends on one leftover entry, rounded by its own
		// probability.
		p := []float64{0.5, 0.5, 0.25, 0.75, 0.125, 0.375}
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}},
	{"single-leftover", func(call int, r *rng.Stream) []float64 {
		if call%2 == 0 {
			return []float64{0.05 + 0.9*r.Float64()}
		}
		return []float64{0, 1, 0.05 + 0.9*r.Float64(), 1, 0}
	}},
}

// depRoundGoldenLines renders the golden from the current code. One scratch
// serves every call of every case, so buffer reuse across sizes is pinned
// too: "<case> <call> <picks> <state> <inc> <root>".
func depRoundGoldenLines() []string {
	var s DepRoundScratch
	var lines []string
	for ci, c := range depRoundCases {
		vec := rng.New(uint64(100 + ci))
		stream := rng.New(uint64(200 + ci))
		for call := 0; call < depRoundGoldenCalls; call++ {
			p := c.mk(call, vec)
			picks := depRoundInto(&s, p, stream)
			strs := make([]string, len(picks))
			for i, v := range picks {
				strs[i] = fmt.Sprint(v)
			}
			st := stream.State()
			lines = append(lines, fmt.Sprintf("%s %d [%s] %016x %016x %016x",
				c.name, call, strings.Join(strs, ","), st[0], st[1], st[2]))
		}
	}
	return lines
}

func TestDepRoundGolden(t *testing.T) {
	f, err := os.Open(depRoundGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := depRoundGoldenLines()
	if len(got) != len(want) {
		t.Fatalf("%s has %d lines, the code renders %d", depRoundGoldenPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d: rendered %q, golden %q", i+1, got[i], want[i])
		}
	}
}
