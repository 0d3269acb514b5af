package sim

import (
	"fmt"
	"sync"
	"testing"

	"lfsc/internal/metrics"
	"lfsc/internal/rng"
	"lfsc/internal/trace"
)

// seriesFields enumerates the per-slot series of a run for bit-exact
// comparison. MBSReward is included; it is nil on both sides unless the
// scenario enables the macrocell fallback.
func seriesFields(s *metrics.Series) map[string][]float64 {
	return map[string][]float64{
		"Reward":    s.Reward,
		"V1":        s.V1,
		"V2":        s.V2,
		"Assigned":  s.Assigned,
		"Completed": s.Completed,
		"MBSReward": s.MBSReward,
	}
}

func assertSeriesEqual(t *testing.T, label string, a, b *metrics.Series) {
	t.Helper()
	fa, fb := seriesFields(a), seriesFields(b)
	for name, va := range fa {
		vb := fb[name]
		if len(va) != len(vb) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("%s: %s diverges at slot %d: %x vs %x",
					label, name, i, va[i], vb[i])
			}
		}
	}
}

// TestRunAllConcurrentBitIdentical drives RunAll's concurrent path:
// several worker goroutines run policies at once, each generating its own
// workload. Results must be bit-identical to fully serial runs — and
// running this test under -race (make test-race / make ci) proves the runs
// share no mutable state.
func TestRunAllConcurrentBitIdentical(t *testing.T) {
	const seed = 42
	factories := StandardFactories()
	sc := PaperScenario()
	sc.Cfg.T = 60

	parallelSeries, err := RunAll(sc, factories, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallelSeries) != len(factories) {
		t.Fatalf("got %d series, want %d", len(parallelSeries), len(factories))
	}
	for fi, f := range factories {
		ref, err := Run(PaperScenarioWithT(60), f, seed)
		if err != nil {
			t.Fatalf("serial run %d: %v", fi, err)
		}
		assertSeriesEqual(t, fmt.Sprintf("RunAll[%s]", ref.Policy), ref, parallelSeries[fi])
	}
}

// countingGen is a paper-scale synthetic generator that counts the slots
// it serves through each path.
type countingGen struct {
	*trace.Synthetic
	into, next int
}

func (g *countingGen) NextInto(t int, s *trace.Slot) {
	g.into++
	g.Synthetic.NextInto(t, s)
}

func (g *countingGen) Next(t int) *trace.Slot {
	g.next++
	return g.Synthetic.Next(t)
}

// TestRunAllGeneratesLive pins where RunAll's slots come from: each of its
// k runs builds its own generator and draws exactly T slots from it through
// the pooled NextInto, so no run waits on, copies or regenerates another's
// workload.
func TestRunAllGeneratesLive(t *testing.T) {
	const T, seed = 100, 42
	factories := StandardFactories()
	for _, workers := range []int{1, 2} {
		var mu sync.Mutex
		var gens []*countingGen
		sc := PaperScenarioWithT(T)
		sc.NewGenerator = func(r *rng.Stream) (trace.Generator, error) {
			g, err := trace.NewSynthetic(trace.DefaultSyntheticConfig(), r)
			if err != nil {
				return nil, err
			}
			cg := &countingGen{Synthetic: g}
			mu.Lock()
			gens = append(gens, cg)
			mu.Unlock()
			return cg, nil
		}
		if _, err := RunAll(sc, factories, seed, workers); err != nil {
			t.Fatal(err)
		}
		if len(gens) != len(factories) {
			t.Fatalf("workers=%d: RunAll of %d policies built %d generators, want %d",
				workers, len(factories), len(gens), len(factories))
		}
		for i, g := range gens {
			if g.into != T || g.next != 0 {
				t.Errorf("workers=%d: generator %d served %d NextInto and %d Next calls, want %d and 0",
					workers, i, g.into, g.next, T)
			}
		}
	}
}

// PaperScenarioWithT is a test helper: the paper scenario truncated to T
// slots.
func PaperScenarioWithT(T int) *Scenario {
	sc := PaperScenario()
	sc.Cfg.T = T
	return sc
}
