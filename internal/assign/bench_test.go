package assign

import (
	"testing"

	"lfsc/internal/rng"
)

// benchEdges builds a paper-scale edge set: 30 SCNs that each sampled
// c=20 candidates (the DepRound mode load) over a 2000-task slot.
func benchEdges(numSCNs, perSCN, numTasks int) []Edge {
	r := rng.New(11)
	edges := make([]Edge, 0, numSCNs*perSCN)
	for m := 0; m < numSCNs; m++ {
		for k := 0; k < perSCN; k++ {
			edges = append(edges, Edge{SCN: m, Task: r.Intn(numTasks), W: r.Float64()})
		}
	}
	return edges
}

// BenchmarkGreedyAssign measures the steady-state Alg. 4 greedy — the
// GreedyInto form LFSC uses, with caller-owned scratch — at paper scale
// (one op = one slot's assignment).
func BenchmarkGreedyAssign(b *testing.B) {
	const numSCNs, perSCN, numTasks, capacity = 30, 20, 2000, 20
	edges := benchEdges(numSCNs, perSCN, numTasks)
	var s GreedyScratch
	var assigned []int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assigned = GreedyInto(assigned, &s, edges, numSCNs, numTasks, capacity)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
}

// BenchmarkGreedyAlloc measures the allocating convenience wrapper for
// comparison with BenchmarkGreedyAssign.
func BenchmarkGreedyAlloc(b *testing.B) {
	const numSCNs, perSCN, numTasks, capacity = 30, 20, 2000, 20
	edges := benchEdges(numSCNs, perSCN, numTasks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Greedy(edges, numSCNs, numTasks, capacity)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
}

// BenchmarkDepRound measures one SCN's steady-state candidate sampling
// (DepRoundGather with caller-owned scratch, one op = one SCN-slot) at
// K=100 visible tasks with marginals summing to c=20: uniform, as a fresh
// learner's are, and skewed, as a learned one's are (capped ones, a
// geometric tail, the exploration floor).
func BenchmarkDepRound(b *testing.B) {
	const k, c = 100, 20
	uniform := make([]float64, k)
	for i := range uniform {
		uniform[i] = float64(c) / float64(k)
	}
	at := make([]int32, k)
	for i := range at {
		at[i] = int32(i)
	}
	for _, bc := range []struct {
		name string
		p    []float64
	}{
		{"uniform", uniform},
		{"skewed", skewed(k, c, 4, rng.New(17))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := rng.New(13)
			var s DepRoundScratch
			DepRoundGather(&s, at, bc.p, r)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = DepRoundGather(&s, at, bc.p, r)
			}
		})
	}
}
