package core

import (
	"math"
	"testing"
	"testing/quick"

	"lfsc/internal/policy"
	"lfsc/internal/rng"
)

// TestProbabilityInvariantsQuick property-tests the Exp3.M probability
// computation across random weight configurations and task multisets:
// every p_i ∈ [0,1] and Σp_i = min(c, K) up to float tolerance.
func TestProbabilityInvariantsQuick(t *testing.T) {
	cfg := Config{
		SCNs: 1, Capacity: 4, Alpha: 1, Beta: 10,
		Cells: 8, KMax: 64, Horizon: 1000,
	}
	check := func(rawWeights []float64, cellChoices []uint8) bool {
		if len(rawWeights) == 0 || len(cellChoices) == 0 {
			return true
		}
		l := MustNew(cfg, rng.New(1))
		st := l.scns[0]
		// Random log-weights spanning a huge dynamic range.
		for f := range st.logW {
			if f < len(rawWeights) {
				v := rawWeights[f]
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = 0
				}
				st.logW[f] = math.Mod(v, 200) // up to e^±200 ratios
			}
		}
		cover := make([]int, 0, len(cellChoices))
		cells := make([]int, 0, len(cellChoices))
		for i, c := range cellChoices {
			cover = append(cover, i)
			cells = append(cells, int(c)%cfg.Cells)
		}
		probs := l.probabilities(st, cover, cells)
		sum := 0.0
		for _, p := range probs {
			if p < -1e-12 || p > 1+1e-9 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		want := float64(cfg.Capacity)
		if len(cover) <= cfg.Capacity {
			want = float64(len(cover))
		}
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDecideFeasibilityQuick property-tests the full Decide pipeline on
// random views: assignments always satisfy coverage and capacity.
func TestDecideFeasibilityQuick(t *testing.T) {
	check := func(seed uint64, layout []uint8) bool {
		if len(layout) == 0 {
			return true
		}
		r := rng.New(seed)
		numSCNs := 1 + int(layout[0]%4)
		cfg := Config{
			SCNs: numSCNs, Capacity: 3, Alpha: 1, Beta: 6,
			Cells: 8, KMax: 40, Horizon: 500,
		}
		l := MustNew(cfg, rng.New(seed+1))
		view := &policy.SlotView{SCNs: make([]policy.SCNView, numSCNs)}
		idx := 0
		for _, b := range layout {
			m := int(b>>4) % numSCNs
			view.SCNs[m].Cover = append(view.SCNs[m].Cover, idx)
			view.Cells = append(view.Cells, int(b)%cfg.Cells)
			idx++
		}
		view.NumTasks = idx
		assigned := l.Decide(view)
		if err := policy.ValidateAssignment(view, assigned, cfg.Capacity); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		// Feedback with arbitrary outcomes must never corrupt state.
		fb := &policy.Feedback{}
		for taskIdx, m := range assigned {
			if m < 0 {
				continue
			}
			fb.Execs = append(fb.Execs, policy.Exec{
				SCN: m, Task: taskIdx, Cell: view.Cells[taskIdx],
				U: r.Float64(), V: float64(r.Intn(2)), Q: r.Uniform(1, 2),
			})
		}
		l.Observe(view, assigned, fb)
		for m := 0; m < numSCNs; m++ {
			for _, w := range l.Weights(m) {
				if math.IsNaN(w) || math.IsInf(w, 0) {
					return false
				}
			}
			l1, l2 := l.Multipliers(m)
			if l1 < 0 || l2 < 0 || math.IsNaN(l1) || math.IsNaN(l2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectionTracksProbabilities verifies the end-to-end selection
// frequency of a single SCN tracks the computed probabilities (the property
// the importance-weighted estimator relies on).
func TestSelectionTracksProbabilities(t *testing.T) {
	cfg := Config{
		SCNs: 1, Capacity: 2, Alpha: 0, Beta: 100,
		Cells: 2, KMax: 6, Horizon: 100000,
		Gamma: 0.1, Eta: 1e-9, // freeze learning so p stays constant
	}
	l := MustNew(cfg, rng.New(3))
	// Unequal weights: cell 0 heavy.
	l.scns[0].logW[0] = 1.5
	view := makeView(0, [][]int{{0, 0, 1, 1, 1, 1}})
	// Copy out of the arena: Decide below overwrites the probs scratch.
	probs := append([]float64(nil), l.probabilities(l.scns[0], view.SCNs[0].Cover, view.Cells)...)
	counts := make([]float64, 6)
	const rounds = 20000
	for it := 0; it < rounds; it++ {
		assigned := l.Decide(view)
		for taskIdx, m := range assigned {
			if m == 0 {
				counts[taskIdx]++
			}
		}
		// No Observe: weights frozen.
	}
	for i := range counts {
		got := counts[i] / rounds
		if math.Abs(got-probs[i]) > 0.03 {
			t.Fatalf("task %d selected %.3f of rounds, probability %.3f", i, got, probs[i])
		}
	}
}

// TestDecideEqualSeedsIdentical pins Decide's determinism: two learners
// built with equal seeds assign a wide, many-task view identically.
func TestDecideEqualSeedsIdentical(t *testing.T) {
	mk := func() *LFSC {
		return MustNew(Config{
			SCNs: 6, Capacity: 4, Alpha: 2, Beta: 8,
			Cells: 27, KMax: 80, Horizon: 1000,
		}, rng.New(9))
	}
	// Build a wide view (50-80 tasks per SCN) shared by both runs.
	r := rng.New(10)
	cells := make([][]int, 6)
	for m := range cells {
		n := 50 + r.Intn(30)
		cells[m] = make([]int, n)
		for i := range cells[m] {
			cells[m][i] = r.Intn(27)
		}
	}
	view := makeView(0, cells)
	a := mk().Decide(view)
	b := mk().Decide(view)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("repeated Decide diverged for equal seeds")
		}
	}
}
