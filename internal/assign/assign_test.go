package assign

import (
	"math"
	"testing"

	"lfsc/internal/mcmf"
	"lfsc/internal/rng"
)

func TestGreedySimple(t *testing.T) {
	edges := []Edge{
		{SCN: 0, Task: 0, W: 0.9},
		{SCN: 0, Task: 1, W: 0.8},
		{SCN: 1, Task: 0, W: 0.85},
		{SCN: 1, Task: 2, W: 0.3},
	}
	// capacity 1: greedy takes (0,0)=0.9 first, then (1,0) blocked (task
	// taken), (0,1) blocked (SCN full), then (1,2)=0.3.
	assigned := Greedy(edges, 2, 3, 1)
	if assigned[0] != 0 || assigned[1] != -1 || assigned[2] != 1 {
		t.Fatalf("assigned = %v", assigned)
	}
}

func TestGreedyRespectsCapacityAndUniqueness(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 100; trial++ {
		numSCNs := 1 + r.Intn(5)
		numTasks := 1 + r.Intn(50)
		capacity := 1 + r.Intn(4)
		var edges []Edge
		for m := 0; m < numSCNs; m++ {
			for i := 0; i < numTasks; i++ {
				if r.Bernoulli(0.5) {
					edges = append(edges, Edge{SCN: m, Task: i, W: r.Float64()})
				}
			}
		}
		assigned := Greedy(edges, numSCNs, numTasks, capacity)
		if err := Verify(assigned, numSCNs, capacity); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestGreedyDeterministicTies(t *testing.T) {
	edges := []Edge{
		{SCN: 1, Task: 0, W: 0.5},
		{SCN: 0, Task: 0, W: 0.5},
	}
	for i := 0; i < 10; i++ {
		assigned := Greedy(edges, 2, 1, 1)
		if assigned[0] != 0 {
			t.Fatal("tie should break to smaller SCN index")
		}
	}
}

func TestGreedyApproximationRatio(t *testing.T) {
	// Lemma 2: greedy ≥ OPT/(c+1). Verify against the exact flow optimum on
	// random instances, and observe it is usually far better.
	r := rng.New(2)
	for trial := 0; trial < 60; trial++ {
		numSCNs := 2 + r.Intn(4)
		numTasks := 5 + r.Intn(30)
		capacity := 1 + r.Intn(4)
		weights := make([][]float64, numSCNs)
		var edges []Edge
		for m := range weights {
			weights[m] = make([]float64, numTasks)
			for i := range weights[m] {
				if r.Bernoulli(0.6) {
					w := r.Uniform(0.01, 1)
					weights[m][i] = w
					edges = append(edges, Edge{SCN: m, Task: i, W: w})
				} else {
					weights[m][i] = math.Inf(-1)
				}
			}
		}
		assigned := Greedy(edges, numSCNs, numTasks, capacity)
		got := TotalWeight(assigned, func(m, i int) float64 { return weights[m][i] })
		_, opt := mcmf.AssignMax(weights, numTasks, capacity)
		if got < opt/float64(capacity+1)-1e-9 {
			t.Fatalf("trial %d: greedy %v below Lemma-2 bound %v (opt %v, c %d)",
				trial, got, opt/float64(capacity+1), opt, capacity)
		}
		if got > opt+1e-9 {
			t.Fatalf("trial %d: greedy %v exceeds optimum %v", trial, got, opt)
		}
	}
}

func TestGreedyEmptyAndDegenerate(t *testing.T) {
	assigned := Greedy(nil, 3, 5, 2)
	for _, m := range assigned {
		if m != -1 {
			t.Fatal("no edges should assign nothing")
		}
	}
	assigned = Greedy([]Edge{{SCN: 0, Task: 0, W: 1}}, 1, 1, 0)
	if assigned[0] != -1 {
		t.Fatal("zero capacity should assign nothing")
	}
}

func TestGreedyPanicsOnBadEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range edge did not panic")
		}
	}()
	Greedy([]Edge{{SCN: 5, Task: 0, W: 1}}, 2, 1, 1)
}

func TestPerSCN(t *testing.T) {
	assigned := []int{1, -1, 0, 1}
	sets := PerSCN(assigned, 2)
	if len(sets[0]) != 1 || sets[0][0] != 2 {
		t.Fatalf("sets[0] = %v", sets[0])
	}
	if len(sets[1]) != 2 || sets[1][0] != 0 || sets[1][1] != 3 {
		t.Fatalf("sets[1] = %v", sets[1])
	}
}

func TestVerify(t *testing.T) {
	if err := Verify([]int{0, 1, -1}, 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := Verify([]int{0, 0}, 2, 1); err == nil {
		t.Fatal("over-capacity accepted")
	}
	if err := Verify([]int{7}, 2, 1); err == nil {
		t.Fatal("invalid SCN accepted")
	}
}

func TestRandomAssignment(t *testing.T) {
	r := rng.New(3)
	coverage := [][]int{{0, 1, 2, 3}, {2, 3, 4, 5}}
	for trial := 0; trial < 50; trial++ {
		assigned := Random(coverage, 6, 2, r)
		if err := Verify(assigned, 2, 2); err != nil {
			t.Fatal(err)
		}
		// Tasks outside a SCN's coverage must not be assigned to it.
		for task, m := range assigned {
			if m == -1 {
				continue
			}
			found := false
			for _, c := range coverage[m] {
				if c == task {
					found = true
				}
			}
			if !found {
				t.Fatalf("task %d assigned to non-covering SCN %d", task, m)
			}
		}
	}
}

func TestRandomUsesCapacity(t *testing.T) {
	r := rng.New(4)
	coverage := [][]int{{0, 1, 2, 3, 4}}
	assigned := Random(coverage, 5, 3, r)
	count := 0
	for _, m := range assigned {
		if m == 0 {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("random picked %d tasks, capacity 3 with 5 available", count)
	}
}

func TestRandomZeroCapacity(t *testing.T) {
	assigned := Random([][]int{{0}}, 1, 0, rng.New(5))
	if assigned[0] != -1 {
		t.Fatal("zero capacity assigned a task")
	}
}

func TestDepRoundCardinality(t *testing.T) {
	r := rng.New(6)
	// Σp = 3 exactly.
	p := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	for trial := 0; trial < 200; trial++ {
		s := depRound(p, r)
		if len(s) != 3 {
			t.Fatalf("|S| = %d, want 3", len(s))
		}
		for k := 1; k < len(s); k++ {
			if s[k] <= s[k-1] {
				t.Fatal("indices not increasing")
			}
		}
	}
}

func TestDepRoundMarginals(t *testing.T) {
	r := rng.New(7)
	p := []float64{0.9, 0.6, 0.3, 0.2} // Σ = 2
	counts := make([]int, len(p))
	const n = 60000
	for trial := 0; trial < n; trial++ {
		for _, i := range depRound(p, r) {
			counts[i]++
		}
	}
	for i := range p {
		got := float64(counts[i]) / n
		if math.Abs(got-p[i]) > 0.01 {
			t.Fatalf("marginal %d = %v, want %v", i, got, p[i])
		}
	}
}

func TestDepRoundIntegralInputs(t *testing.T) {
	r := rng.New(8)
	s := depRound([]float64{1, 0, 1, 0}, r)
	if len(s) != 2 || s[0] != 0 || s[1] != 2 {
		t.Fatalf("integral input selection %v", s)
	}
}

func TestDepRoundNonIntegralSum(t *testing.T) {
	r := rng.New(9)
	// Σp = 0.5: cardinality must be 0 or 1, marginal 0.5 overall.
	ones := 0
	const n = 20000
	for trial := 0; trial < n; trial++ {
		s := depRound([]float64{0.25, 0.25}, r)
		if len(s) > 1 {
			t.Fatalf("cardinality %d for Σp=0.5", len(s))
		}
		ones += len(s)
	}
	if got := float64(ones) / n; math.Abs(got-0.5) > 0.02 {
		t.Fatalf("selection mass %v, want 0.5", got)
	}
}

func TestDepRoundPanicsOnBadProbability(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p>1 did not panic")
		}
	}()
	depRound([]float64{1.5}, rng.New(10))
}
