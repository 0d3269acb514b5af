package scenario

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// timelineGoldenPath pins every slot of every timeline in
// timelineGoldenCases at T = 10⁴ and two seeds: one line per (case, seed)
// holding the timeline digest, an FNV-64a over all slot views and event
// totals, and the full-horizon event totals. A change to Build's layout
// must leave every line as it is.
const timelineGoldenPath = "testdata/timeline.golden"

const (
	goldenSlots    = 10000
	goldenSCNs     = 30
	goldenCapacity = 20
)

var goldenSeeds = []uint64{42, 7}

// composedCfg stacks all five kinds: sleep windows that overlap a churn
// set, a blockage set narrower than its burst width, two diurnal cycles
// and two budget cycles over overlapping SCN sets (one of each over "*"),
// and a budget that cycles β alone.
const composedCfg = `
scns = 30
[sleep]
scns = 0-5
period = 300
offset = 40
duration = 70
[churn]
scns = 4-19
mean-up = 150
mean-down = 30
[blockage]
scns = 15-29
rate = 0.01
width = 5
duration = 9
[blockage]
scns = 28-29
rate = 0.002
width = 4
duration = 20
[diurnal]
scns = *
period = 1000
min-cap = 0.5
[diurnal]
scns = 10-29
period = 700
offset = 123
min-cap = 0.7
[budget]
scns = 0-14
period = 600
alpha-min = 0.6
beta-min = 0.8
[budget]
scns = *
period = 450
offset = 77
alpha-min = 0.75
[budget]
scns = 20-29
period = 333
beta-min = 0.5
`

// shippedScenario reads one of the repository's scenarios/ files.
func shippedScenario(t testing.TB, name string) string {
	src, err := os.ReadFile(filepath.Join("..", "..", "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// timelineGoldenCases names each golden timeline and its config source.
func timelineGoldenCases(t testing.TB) [][2]string {
	return [][2]string{
		{"churn.scn", shippedScenario(t, "churn.scn")},
		{"sleep.scn", shippedScenario(t, "sleep.scn")},
		{"composed", composedCfg},
	}
}

// viewDigest is FNV-64a over every slot's View (Slot, UpCount, Up, Caps
// and the float bits of AlphaMul/BetaMul, each row after its length, 0
// when nil) and its EventTotals, then CumEventTotals at points past the
// horizon, so wrap-around is covered too.
func viewDigest(tl *Timeline) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	var v View
	for t := 0; t < tl.Slots(); t++ {
		tl.ViewInto(t, &v)
		put(uint64(v.Slot))
		put(uint64(v.UpCount))
		for _, u := range v.Up {
			if u {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		put(uint64(len(v.Caps)))
		for _, c := range v.Caps {
			put(uint64(c))
		}
		put(uint64(len(v.AlphaMul)))
		for _, a := range v.AlphaMul {
			put(math.Float64bits(a))
		}
		put(uint64(len(v.BetaMul)))
		for _, x := range v.BetaMul {
			put(math.Float64bits(x))
		}
		s, f, r := tl.EventTotals(t)
		put(s)
		put(f)
		put(r)
	}
	n := tl.Slots()
	for _, t := range []int{n - 1, n, n + n/3, 3*n + 17} {
		s, f, r := tl.CumEventTotals(t)
		put(s)
		put(f)
		put(r)
	}
	return h.Sum64()
}

// timelineGoldenLines renders the golden from the current code:
// "<case>\t<seed>\t<digest>\t<view digest>\t<sleeps>/<fails>/<rejoins>".
func timelineGoldenLines(t *testing.T) []string {
	var lines []string
	for _, c := range timelineGoldenCases(t) {
		for _, seed := range goldenSeeds {
			tl := mustBuild(t, c[1], goldenSCNs, goldenSlots, goldenCapacity, seed)
			s, f, r := tl.EventTotals(goldenSlots - 1)
			lines = append(lines, fmt.Sprintf("%s\t%d\t%s\t%016x\t%d/%d/%d",
				c[0], seed, tl.Digest(), viewDigest(tl), s, f, r))
		}
	}
	return lines
}

// TestTimelineGolden fails on any change to any slot's view, to the event
// counters or to the digest of the shipped scenarios and the composed
// config. On a mismatch the test logs the full rendered file.
func TestTimelineGolden(t *testing.T) {
	f, err := os.Open(timelineGoldenPath)
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
	got := timelineGoldenLines(t)
	bad := len(got) != len(want)
	if bad {
		t.Errorf("%s has %d lines, the code renders %d", timelineGoldenPath, len(want), len(got))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			bad = true
			t.Errorf("line %d: rendered %q, golden %q", i+1, got[i], want[i])
		}
	}
	if bad {
		t.Logf("rendered %s:\n%s", timelineGoldenPath, strings.Join(got, "\n"))
	}
}
