package experiments

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strings"
	"testing"
)

// seriesGoldenPath pins every CSV series of every registered experiment at
// seriesGoldenOpts: one line per (experiment, series) holding an FNV-64a
// digest of the series' float64 bits. The committed results/ CSVs print 8
// significant digits at T=10⁴ and take minutes to regenerate (make
// results-check); this gate sees a change in the last bit of any series of
// any policy, sweep or ablation, inside the tier-1 suite.
const seriesGoldenPath = "testdata/series.golden"

// seriesGoldenOpts is the golden's horizon and seed. T=600 runs all
// experiments in about 18 s on a 2-vCPU machine.
var seriesGoldenOpts = Options{T: 600, Seed: 42, ChartWidth: 40, ChartHeight: 8}

// baseFigures are the experiments Registry derives from one base run; the
// golden shares a single base across them, as cmd/lfscbench does.
var baseFigures = map[string]func(*Base) *Result{
	"fig2a": Fig2a, "fig2b": Fig2b, "fig2c": Fig2c, "ratio": Ratio,
}

// seriesDigest is FNV-64a over the little-endian bits of every value.
func seriesDigest(s []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range s {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// seriesGoldenLines renders the golden from the current code:
// "<experiment>\t<series header>\t<length>\t<digest>", in Order().
func seriesGoldenLines(t *testing.T) []string {
	reg := Registry()
	base, err := RunBase(seriesGoldenOpts)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, id := range Order() {
		var res *Result
		if f, ok := baseFigures[id]; ok {
			res = f(base)
		} else if res, err = reg[id](seriesGoldenOpts); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(res.CSVHeaders) != len(res.CSVSeries) || len(res.CSVSeries) == 0 {
			t.Fatalf("%s: %d CSV headers for %d series", id, len(res.CSVHeaders), len(res.CSVSeries))
		}
		for i, s := range res.CSVSeries {
			lines = append(lines, fmt.Sprintf("%s\t%s\t%d\t%016x", id, res.CSVHeaders[i], len(s), seriesDigest(s)))
		}
	}
	return lines
}

// TestSeriesDigestGoldens fails on any bit of drift in any experiment
// series. A change that moves results on purpose regenerates results/ and
// this file together; on a mismatch the test logs the full rendered file.
func TestSeriesDigestGoldens(t *testing.T) {
	if len(Order()) != len(Registry()) {
		t.Fatalf("Order lists %d experiments, Registry %d", len(Order()), len(Registry()))
	}
	f, err := os.Open(seriesGoldenPath)
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
	got := seriesGoldenLines(t)
	bad := len(got) != len(want)
	if bad {
		t.Errorf("%s has %d lines, the code renders %d", seriesGoldenPath, len(want), len(got))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			bad = true
			t.Errorf("line %d: rendered %q, golden %q", i+1, got[i], want[i])
		}
	}
	if bad {
		t.Logf("rendered %s:\n%s", seriesGoldenPath, strings.Join(got, "\n"))
	}
}
