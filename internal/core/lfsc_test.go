package core

import (
	"math"
	"testing"

	"lfsc/internal/policy"
	"lfsc/internal/rng"
)

func testConfig() Config {
	return Config{
		SCNs:     2,
		Capacity: 3,
		Alpha:    1,
		Beta:     5,
		Cells:    4,
		KMax:     10,
		Horizon:  1000,
	}
}

// makeView builds a single-slot view where SCN m sees tasks with the given
// hypercube cells. Task indices are global and unique across SCNs.
func makeView(t int, cellsPerSCN [][]int) *policy.SlotView {
	v := &policy.SlotView{T: t}
	idx := 0
	for _, cells := range cellsPerSCN {
		var scn policy.SCNView
		for _, c := range cells {
			scn.Cover = append(scn.Cover, idx)
			v.Cells = append(v.Cells, c)
			idx++
		}
		v.SCNs = append(v.SCNs, scn)
	}
	v.NumTasks = idx
	return v
}

// probabilities is the positional form of cellProbs: the per-cell
// probabilities fanned out to one entry per cover position (a layout the
// hot path never materializes), in a fresh slice.
func (l *LFSC) probabilities(st *scnState, cover []int, cells []int) []float64 {
	l.cellProbs(st, cover, cells, l.cfg.Capacity)
	probs := make([]float64, len(cover))
	for i, f := range st.taskCells[:len(cover)] {
		probs[i] = st.cellW[f]
	}
	return probs
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SCNs = 0 },
		func(c *Config) { c.Capacity = 0 },
		func(c *Config) { c.Cells = 0 },
		func(c *Config) { c.KMax = 0 },
		func(c *Config) { c.Horizon = 0 },
		func(c *Config) { c.Alpha = -1 },
		func(c *Config) { c.Gamma = 1.5 },
		func(c *Config) { c.Eta = -1 },
	}
	for i, mutate := range bad {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestScheduleDefaults(t *testing.T) {
	cfg := Config{SCNs: 30, Capacity: 20, Cells: 27, KMax: 200, Horizon: 10000}
	gamma, eta, delta := cfg.Schedule()
	if gamma <= 0 || gamma > 1 {
		t.Fatalf("gamma = %v", gamma)
	}
	if eta <= 0 || eta >= gamma {
		t.Fatalf("eta = %v (gamma %v)", eta, gamma)
	}
	if delta <= 0 || delta >= eta {
		t.Fatalf("delta = %v (eta %v)", delta, eta)
	}
	// Overrides are honoured.
	cfg.Gamma, cfg.Eta, cfg.Delta = 0.5, 0.01, 0.001
	g2, e2, d2 := cfg.Schedule()
	if g2 != 0.5 || e2 != 0.01 || d2 != 0.001 {
		t.Fatal("overrides ignored")
	}
	// K close to c keeps the log positive.
	small := Config{SCNs: 1, Capacity: 20, Cells: 4, KMax: 21, Horizon: 100}
	if g, _, _ := small.Schedule(); g <= 0 || g > 1 || math.IsNaN(g) {
		t.Fatalf("near-c gamma = %v", g)
	}
}

func TestProbabilitiesSumToCapacity(t *testing.T) {
	l := MustNew(testConfig(), rng.New(1))
	view := makeView(0, [][]int{{0, 1, 2, 3, 0, 1, 2, 3}, {}})
	st := l.scns[0]
	probs := l.probabilities(st, view.SCNs[0].Cover, view.Cells)
	sum := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v out of [0,1]", p)
		}
		sum += p
	}
	if math.Abs(sum-float64(l.cfg.Capacity)) > 1e-9 {
		t.Fatalf("Σp = %v, want %d", sum, l.cfg.Capacity)
	}
}

func TestProbabilitiesFewTasks(t *testing.T) {
	l := MustNew(testConfig(), rng.New(2))
	view := makeView(0, [][]int{{0, 1}, {}}) // 2 tasks ≤ capacity 3
	probs := l.probabilities(l.scns[0], view.SCNs[0].Cover, view.Cells)
	for _, p := range probs {
		if p != 1 {
			t.Fatalf("K≤c should give p=1, got %v", p)
		}
	}
	if len(l.scns[0].cappedList) != 0 {
		t.Fatal("no capping expected for K≤c")
	}
}

func TestCappingBoundsDominantWeight(t *testing.T) {
	l := MustNew(testConfig(), rng.New(3))
	st := l.scns[0]
	st.logW[0] = math.Log(1e6) // dominant cell
	view := makeView(0, [][]int{{0, 1, 2, 3, 1, 2, 3, 1}, {}})
	probs := l.probabilities(st, view.SCNs[0].Cover, view.Cells)
	if probs[0] > 1+1e-12 {
		t.Fatalf("dominant task probability %v > 1", probs[0])
	}
	if math.Abs(probs[0]-1) > 1e-9 {
		t.Fatalf("dominant task should be capped at exactly 1, got %v", probs[0])
	}
	if !st.capped[0] {
		t.Fatal("dominant cell not in S'")
	}
	sum := 0.0
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-3) > 1e-9 {
		t.Fatalf("Σp = %v after capping", sum)
	}
}

func TestSolveCapFixedPoint(t *testing.T) {
	r := rng.New(4)
	for trial := 0; trial < 200; trial++ {
		k := 5 + r.Intn(20)
		c := 1 + r.Intn(3)
		gamma := r.Uniform(0.01, 0.5)
		tau := (1/float64(c) - gamma/float64(k)) / (1 - gamma)
		w := make([]float64, k)
		sum := 0.0
		maxW := 0.0
		for i := range w {
			w[i] = math.Exp(r.Uniform(0, 10))
			sum += w[i]
			if w[i] > maxW {
				maxW = w[i]
			}
		}
		if tau <= 0 || maxW < tau*sum {
			continue
		}
		eps := solveCap(w, tau)
		capSum := 0.0
		for _, v := range w {
			capSum += math.Min(v, eps)
		}
		if math.Abs(eps-tau*capSum) > 1e-6*math.Max(1, eps) {
			t.Fatalf("trial %d: ε=%v not a fixed point (τΣmin=%v)", trial, eps, tau*capSum)
		}
	}
}

// TestSolveCapCellsMatchesSorted checks the streamed cap solver against the
// sort-based reference solveCap on random cell multisets: tied weights,
// weights on the e^-60 floor, a single present cell, and K = c+1. The two
// must return the bit-identical ε, whether or not capping would trigger.
func TestSolveCapCellsMatchesSorted(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 4000; trial++ {
		c := 1 + r.Intn(20)
		cfg := Config{SCNs: 1, Capacity: c, Cells: 27, KMax: 200, Horizon: 10000}
		l := MustNew(cfg, rng.New(1))
		st := l.scns[0]
		present := 1 + r.Intn(cfg.Cells)
		if trial%4 == 0 {
			present = 1
		}
		for f := range st.logW {
			switch trial % 4 {
			case 1: // few distinct values: ties within and across cells
				st.logW[f] = -float64(r.Intn(3))
			case 2: // part of the cells far below the floor
				st.logW[f] = r.Uniform(-5, 5)
				if r.Bernoulli(0.4) {
					st.logW[f] = r.Uniform(-200, -61)
				}
			default:
				st.logW[f] = r.Uniform(-20, 20)
			}
		}
		cells := r.Perm(cfg.Cells)[:present]
		k := 0
		for _, f := range cells {
			st.cellCnt[f] = 1 + r.Intn(8)
			k += st.cellCnt[f]
		}
		if trial%4 == 3 { // K = c+1 exactly
			clear(st.cellCnt)
			k = c + 1
			for x := 0; x < k; x++ {
				st.cellCnt[cells[x%present]]++
			}
		}
		maxLog := math.Inf(-1)
		for _, f := range cells {
			maxLog = math.Max(maxLog, st.logW[f])
		}
		var w []float64
		for _, f := range cells {
			st.cellW[f] = math.Exp(math.Max(st.logW[f]-maxLog, -60))
			for x := 0; x < st.cellCnt[f]; x++ {
				w = append(w, st.cellW[f])
			}
		}
		r.Shuffle(len(st.order), func(i, j int) { st.order[i], st.order[j] = st.order[j], st.order[i] })
		gamma := r.Uniform(0.001, 0.5)
		tau := (1/float64(c) - gamma/float64(k)) / (1 - gamma)
		if tau <= 0 {
			continue
		}
		want := solveCap(w, tau)
		if got := solveCapCells(st, k, tau); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (k=%d, c=%d, %d cells): streamed ε %x, sorted %x", trial, k, c, present, got, want)
		}
	}
}

func TestDecideFeasible(t *testing.T) {
	for _, mode := range []SelectionMode{DepRoundMode, Race, Deterministic} {
		cfg := testConfig()
		cfg.Mode = mode
		l := MustNew(cfg, rng.New(5))
		view := makeView(0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1, 2}})
		assigned := l.Decide(view)
		if err := policy.ValidateAssignment(view, assigned, cfg.Capacity); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		// With more tasks than capacity and all-positive probabilities,
		// the greedy fills every beam.
		count := 0
		for _, m := range assigned {
			if m >= 0 {
				count++
			}
		}
		if count != 2*cfg.Capacity {
			t.Fatalf("mode %v: assigned %d, want %d", mode, count, 2*cfg.Capacity)
		}
	}
}

func TestDecideDeterministicGivenSeed(t *testing.T) {
	mk := func() []int {
		l := MustNew(testConfig(), rng.New(42))
		return l.Decide(makeView(0, [][]int{{0, 1, 2, 3, 0}, {1, 2, 3, 0}}))
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different decisions")
		}
	}
}

// runSlot executes one Decide/Observe round against a synthetic ground
// truth mapping cell → (u, pComplete, q) shared by both SCNs.
func runSlot(l *LFSC, view *policy.SlotView, truth map[int][3]float64, r *rng.Stream) []int {
	assigned := l.Decide(view)
	fb := &policy.Feedback{}
	for taskIdx, m := range assigned {
		if m < 0 {
			continue
		}
		cell := view.Cells[taskIdx]
		tr := truth[cell]
		v := 0.0
		if r.Bernoulli(tr[1]) {
			v = 1
		}
		fb.Execs = append(fb.Execs, policy.Exec{
			SCN: m, Task: taskIdx, Cell: cell, U: tr[0], V: v, Q: tr[2],
		})
	}
	l.Observe(view, assigned, fb)
	return assigned
}

func TestWeightsLearnGoodCell(t *testing.T) {
	cfg := Config{
		SCNs: 1, Capacity: 2, Alpha: 0, Beta: 100,
		Cells: 2, KMax: 8, Horizon: 3000,
		Gamma: 0.1, // faster learning for the test
	}
	l := MustNew(cfg, rng.New(6))
	r := rng.New(7)
	truth := map[int][3]float64{
		0: {0.9, 1.0, 1.0}, // great cell: compound 0.9
		1: {0.1, 0.5, 2.0}, // poor cell: compound 0.025
	}
	for t0 := 0; t0 < 3000; t0++ {
		view := makeView(t0, [][]int{{0, 0, 0, 0, 1, 1, 1, 1}})
		runSlot(l, view, truth, r)
	}
	w := l.Weights(0)
	if w[0] <= w[1] {
		t.Fatalf("good cell weight %v not above poor cell %v", w[0], w[1])
	}
	// Selection should now prefer the good cell strongly.
	good, poor := 0, 0
	for t0 := 0; t0 < 200; t0++ {
		view := makeView(t0, [][]int{{0, 0, 0, 0, 1, 1, 1, 1}})
		assigned := l.Decide(view)
		for taskIdx, m := range assigned {
			if m < 0 {
				continue
			}
			if taskIdx < 4 {
				good++
			} else {
				poor++
			}
		}
		// feed back so probs stay consistent
		fb := &policy.Feedback{}
		l.Observe(view, assigned, fb)
	}
	if good <= 2*poor {
		t.Fatalf("learned policy picks good cell %d vs poor %d", good, poor)
	}
}

func TestLagrangianRespondsToViolations(t *testing.T) {
	cfg := Config{
		SCNs: 1, Capacity: 4, Alpha: 4, Beta: 1, // impossible: forces both violations
		Cells: 2, KMax: 8, Horizon: 1000, Gamma: 0.1,
	}
	l := MustNew(cfg, rng.New(8))
	r := rng.New(9)
	truth := map[int][3]float64{
		0: {0.5, 0.2, 2.0}, // rarely completes, heavy
		1: {0.5, 0.2, 2.0},
	}
	for t0 := 0; t0 < 200; t0++ {
		view := makeView(t0, [][]int{{0, 0, 0, 1, 1, 1, 0, 1}})
		runSlot(l, view, truth, r)
	}
	l1, l2 := l.Multipliers(0)
	if l1 <= 0 {
		t.Fatalf("λ1 = %v should grow under persistent QoS violation", l1)
	}
	if l2 <= 0 {
		t.Fatalf("λ2 = %v should grow under persistent resource violation", l2)
	}
}

func TestLagrangianDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.DisableLagrangian = true
	cfg.Alpha, cfg.Beta = 100, 0 // would force violations
	l := MustNew(cfg, rng.New(10))
	r := rng.New(11)
	truth := map[int][3]float64{0: {0.5, 0.5, 1.5}, 1: {0.5, 0.5, 1.5}, 2: {0.5, 0.5, 1.5}, 3: {0.5, 0.5, 1.5}}
	for t0 := 0; t0 < 50; t0++ {
		view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		runSlot(l, view, truth, r)
	}
	l1, l2 := l.Multipliers(0)
	if l1 != 0 || l2 != 0 {
		t.Fatal("disabled Lagrangian still moved multipliers")
	}
}

func TestLambdaStaysBounded(t *testing.T) {
	cfg := testConfig()
	cfg.Eta, cfg.Delta = 0.5, 0.1 // aggressive to hit the cap quickly
	cfg.Alpha = 1000              // enormous persistent violation
	l := MustNew(cfg, rng.New(12))
	r := rng.New(13)
	truth := map[int][3]float64{0: {0, 0, 1}, 1: {0, 0, 1}, 2: {0, 0, 1}, 3: {0, 0, 1}}
	for t0 := 0; t0 < 500; t0++ {
		view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		runSlot(l, view, truth, r)
	}
	l1, _ := l.Multipliers(0)
	if l1 > 1/cfg.Delta+1e-9 {
		t.Fatalf("λ1 = %v exceeds 1/δ = %v", l1, 1/cfg.Delta)
	}
}

func TestWeightsRemainFinite(t *testing.T) {
	cfg := testConfig()
	cfg.Eta = 1.0 // pathologically large learning rate
	l := MustNew(cfg, rng.New(14))
	r := rng.New(15)
	truth := map[int][3]float64{0: {1, 1, 1}, 1: {1, 1, 1}, 2: {1, 1, 1}, 3: {1, 1, 1}}
	for t0 := 0; t0 < 2000; t0++ {
		view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		runSlot(l, view, truth, r)
	}
	for m := 0; m < cfg.SCNs; m++ {
		for _, w := range l.Weights(m) {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				t.Fatalf("log-weight degenerated to %v", w)
			}
		}
	}
}

func TestObserveSkipsCappedCells(t *testing.T) {
	cfg := testConfig()
	cfg.WeightDecay = -1 // disable forgetting so "skipped" means "unchanged"
	l := MustNew(cfg, rng.New(16))
	st := l.scns[0]
	st.logW[0] = math.Log(1e8) // force cell 0 into S'
	view := makeView(0, [][]int{{0, 1, 2, 3, 1, 2, 3, 1}, {}})
	assigned := l.Decide(view)
	before := st.logW[0]
	fb := &policy.Feedback{}
	for taskIdx, m := range assigned {
		if m != 0 {
			continue
		}
		fb.Execs = append(fb.Execs, policy.Exec{SCN: 0, Task: taskIdx, Cell: view.Cells[taskIdx], U: 1, V: 1, Q: 1})
	}
	l.Observe(view, assigned, fb)
	if st.logW[0] != before {
		t.Fatalf("capped cell weight changed: %v → %v", before, st.logW[0])
	}
}

func TestEmptySlot(t *testing.T) {
	l := MustNew(testConfig(), rng.New(17))
	view := makeView(0, [][]int{{}, {}})
	assigned := l.Decide(view)
	if len(assigned) != 0 {
		t.Fatalf("empty slot assignment length %d", len(assigned))
	}
	l.Observe(view, assigned, &policy.Feedback{})
}
