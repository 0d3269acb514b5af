package rng

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
)

// goldenPath holds the first drawsPerKind values of every draw kind below,
// one line per (stream, kind), captured before the draw path was last
// rewritten. Any change to a single draw — the PCG step, its output
// permutation, the 53-bit conversion, Lemire's rejection or the order in
// which a helper consumes the stream — fails here at the draw it changed.
const goldenPath = "testdata/draws.golden"

const drawsPerKind = 64

// goldenStream is one stream the golden file pins.
type goldenStream struct {
	name string
	mk   func() *Stream
}

// goldenStreams are three seeds and a DeriveInto child of each.
func goldenStreams() []goldenStream {
	seeds := []uint64{1, 42, 0xfeedface12345678}
	var out []goldenStream
	for _, seed := range seeds {
		out = append(out, goldenStream{fmt.Sprintf("seed=%#x", seed), func() *Stream { return New(seed) }})
	}
	for _, seed := range seeds {
		out = append(out, goldenStream{fmt.Sprintf("seed=%#x/derive=7", seed), func() *Stream {
			var child Stream
			New(seed).DeriveInto(7, &child)
			return &child
		}})
	}
	return out
}

// goldenKinds are the draw kinds the golden file pins, each printed as the
// exact bits of its value.
var goldenKinds = []struct {
	name string
	draw func(s *Stream) string
}{
	{"Uint32", func(s *Stream) string { return fmt.Sprintf("%08x", s.Uint32()) }},
	{"Uint64", func(s *Stream) string { return fmt.Sprintf("%016x", s.Uint64()) }},
	{"Float64", func(s *Stream) string { return fmt.Sprintf("%016x", math.Float64bits(s.Float64())) }},
	{"Intn(3)", func(s *Stream) string { return fmt.Sprintf("%x", s.Intn(3)) }},
	{"Intn(66)", func(s *Stream) string { return fmt.Sprintf("%x", s.Intn(66)) }},
	// A quarter of all 32-bit words fall under this bound's rejection
	// threshold, so the pin covers the rejection loop as well.
	{"Intn(3<<30)", func(s *Stream) string { return fmt.Sprintf("%x", s.Intn(3<<30)) }},
	{"IntRange(35,100)", func(s *Stream) string { return fmt.Sprintf("%x", s.IntRange(35, 100)) }},
	{"Bernoulli(0.3)", func(s *Stream) string {
		if s.Bernoulli(0.3) {
			return "1"
		}
		return "0"
	}},
	{"Normal(0,1)", func(s *Stream) string { return fmt.Sprintf("%016x", math.Float64bits(s.Normal(0, 1))) }},
	{"TruncNormal(0.02,0.1,0,1)", func(s *Stream) string {
		return fmt.Sprintf("%016x", math.Float64bits(s.TruncNormal(0.02, 0.1, 0, 1)))
	}},
}

// goldenLines renders the golden file's content from the current code:
// "<stream> <kind> v0 v1 ... v63", one fresh stream per line.
func goldenLines() []string {
	var lines []string
	for _, st := range goldenStreams() {
		for _, k := range goldenKinds {
			s := st.mk()
			vals := make([]string, drawsPerKind)
			for i := range vals {
				vals[i] = k.draw(s)
			}
			lines = append(lines, st.name+" "+k.name+" "+strings.Join(vals, " "))
		}
	}
	return lines
}

func TestDrawGoldens(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines()
	if len(got) != len(want) {
		t.Fatalf("%s has %d lines, the code renders %d", goldenPath, len(want), len(got))
	}
	for i := range got {
		g, w := strings.Fields(got[i]), strings.Fields(want[i])
		if len(g) != len(w) || g[0] != w[0] || g[1] != w[1] {
			t.Fatalf("line %d: rendered %q..., golden %q...", i+1, strings.Join(g[:2], " "), strings.Join(w[:2], " "))
		}
		for j := 2; j < len(g); j++ {
			if g[j] != w[j] {
				t.Errorf("%s %s: draw %d = %s, golden %s", g[0], g[1], j-2, g[j], w[j])
				break
			}
		}
	}
}
