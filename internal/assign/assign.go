// Package assign implements the task→SCN assignment stage of LFSC.
//
// The centrepiece is the paper's greedy collaborative assignment (Alg. 4,
// "GreedySelect"): a weighted bipartite graph is built between SCNs and the
// slot's tasks, and edges are consumed in decreasing weight order; an edge
// (m,i) is accepted when SCN m still has beam capacity (< c) and task i is
// unassigned, which enforces constraints (1a) and (1b) by construction.
// Lemma 2 proves this is a (c+1)-approximation of the maximum-weight
// assignment; tests compare it against the exact min-cost-flow optimum.
//
// The package also provides DepRoundGather — the dependent-rounding
// sampler from the Exp3.M literature that draws exactly k arms with
// prescribed marginals — with which LFSC samples each SCN's candidates,
// and the Random baseline assignment from the paper's evaluation.
package assign

import (
	"fmt"
	"math"
	"slices"

	"lfsc/internal/rng"
)

// Edge is a weighted SCN-task edge of the bipartite offloading graph;
// it exists when task Task is inside SCN SCN's coverage.
type Edge struct {
	SCN  int
	Task int
	W    float64
}

// GreedyScratch holds the reusable working memory of GreedyInto and
// GreedyMergeCapsInto: the sorted edge copy, the per-SCN beam counters, and
// the k-way merge cursors/heap. A zero value is ready to use; the buffers
// grow to the high-water mark of the calls that share them and are never
// shrunk. A scratch value must not be shared between concurrent calls.
type GreedyScratch struct {
	sorted []Edge
	counts []int
	heads  []int32
	heap   []int32
	cur    []Edge
}

// cmpEdge orders edges by descending weight, breaking ties deterministically
// by (SCN, task) so runs are reproducible.
func cmpEdge(a, b Edge) int {
	switch {
	case a.W > b.W:
		return -1
	case a.W < b.W:
		return 1
	case a.SCN != b.SCN:
		return a.SCN - b.SCN
	default:
		return a.Task - b.Task
	}
}

// Greedy runs the paper's Alg. 4. numTasks bounds task indices; capacity is
// the per-SCN limit c. It returns assigned[task] = SCN index or -1.
//
// Processing edges in descending weight order is exactly equivalent to the
// paper's iterative arg-max with edge removal: when the heaviest remaining
// edge's SCN is full the edge is discarded (Line 8); when its task is taken
// all of the task's edges are discarded (Line 6); otherwise it is accepted.
// Ties break deterministically by (SCN, task) so runs are reproducible.
//
// Greedy allocates its result and working memory per call; steady-state
// callers should hold a GreedyScratch and use GreedyInto instead.
func Greedy(edges []Edge, numSCNs, numTasks, capacity int) []int {
	var s GreedyScratch
	return GreedyInto(nil, &s, edges, numSCNs, numTasks, capacity)
}

// GreedyCaps is Greedy with an optional per-SCN capacity vector caps
// (nil = uniform capacity): SCN m accepts at most caps[m] tasks.
func GreedyCaps(edges []Edge, numSCNs, numTasks, capacity int, caps []int) []int {
	var s GreedyScratch
	return greedyInto(nil, &s, edges, numSCNs, numTasks, capacity, caps)
}

// capAt resolves SCN m's beam limit: caps[m] when a per-SCN capacity
// vector is attached (scenario capacity dynamics), capacity otherwise.
// The nil branch keeps the static path's comparisons untouched, so
// caps == nil is bit-identical to the pre-scenario code.
func capAt(capacity int, caps []int, m int) int {
	if caps != nil {
		return caps[m]
	}
	return capacity
}

// GreedyInto is Greedy with caller-owned memory: the assignment is written
// into assigned (grown as needed — pass the previous slot's slice back in)
// and all working memory comes from s. It allocates nothing once assigned
// and s have reached the steady-state sizes.
func GreedyInto(assigned []int, s *GreedyScratch, edges []Edge, numSCNs, numTasks, capacity int) []int {
	return greedyInto(assigned, s, edges, numSCNs, numTasks, capacity, nil)
}

func greedyInto(assigned []int, s *GreedyScratch, edges []Edge, numSCNs, numTasks, capacity int, caps []int) []int {
	if cap(assigned) < numTasks {
		assigned = make([]int, numTasks)
	}
	assigned = assigned[:numTasks]
	for i := range assigned {
		assigned[i] = -1
	}
	if capacity <= 0 || numSCNs <= 0 {
		return assigned
	}
	s.sorted = append(s.sorted[:0], edges...)
	slices.SortFunc(s.sorted, cmpEdge)
	if cap(s.counts) < numSCNs {
		s.counts = make([]int, numSCNs)
	}
	s.counts = s.counts[:numSCNs]
	clear(s.counts)
	for _, e := range s.sorted {
		if e.SCN < 0 || e.SCN >= numSCNs || e.Task < 0 || e.Task >= numTasks {
			panic(fmt.Sprintf("assign: edge (%d,%d) out of range", e.SCN, e.Task))
		}
		if assigned[e.Task] != -1 || s.counts[e.SCN] >= capAt(capacity, caps, e.SCN) {
			continue
		}
		assigned[e.Task] = e.SCN
		s.counts[e.SCN]++
	}
	return assigned
}

// SortEdges sorts an edge list in the greedy consumption order (descending
// weight, ties by SCN then task). The order is a strict total order over
// distinct (SCN, task) pairs, so the sorted sequence is unique — any correct
// comparison sort produces the same permutation, which lets this use a
// specialized in-place quicksort whose comparator inlines instead of going
// through slices.SortFunc's func-value indirection.
func SortEdges(edges []Edge) {
	sortEdges(edges)
}

// edgeLess is cmpEdge < 0 in a form the compiler inlines into the sort loops.
func edgeLess(a, b Edge) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	if a.SCN != b.SCN {
		return a.SCN < b.SCN
	}
	return a.Task < b.Task
}

// sortEdges is a median-of-three Hoare quicksort with an insertion-sort
// cutoff, recursing on the smaller half so stack depth stays logarithmic.
func sortEdges(e []Edge) {
	for len(e) > 24 {
		mid, hi := len(e)/2, len(e)-1
		if edgeLess(e[mid], e[0]) {
			e[mid], e[0] = e[0], e[mid]
		}
		if edgeLess(e[hi], e[mid]) {
			e[hi], e[mid] = e[mid], e[hi]
			if edgeLess(e[mid], e[0]) {
				e[mid], e[0] = e[0], e[mid]
			}
		}
		pivot := e[mid]
		i, j := -1, len(e)
		for {
			for {
				i++
				if !edgeLess(e[i], pivot) {
					break
				}
			}
			for {
				j--
				if !edgeLess(pivot, e[j]) {
					break
				}
			}
			if i >= j {
				break
			}
			e[i], e[j] = e[j], e[i]
		}
		if j+1 < len(e)-j-1 {
			sortEdges(e[:j+1])
			e = e[j+1:]
		} else {
			sortEdges(e[j+1:])
			e = e[:j+1]
		}
	}
	for i := 1; i < len(e); i++ {
		v := e[i]
		j := i - 1
		for j >= 0 && edgeLess(v, e[j]) {
			e[j+1] = e[j]
			j--
		}
		e[j+1] = v
	}
}

// GreedyMergeCapsInto is GreedyInto for edges delivered as per-source lists
// that are each already in SortEdges order (LFSC sorts each SCN's edges in
// its per-SCN stage), with an optional per-SCN capacity vector caps (nil =
// uniform capacity). The lists are consumed through a k-way heap merge,
// which visits edges in exactly the unique globally sorted order — the result
// is bit-identical to concatenating and re-sorting, without the dominant
// O(E log E) comparison-function sort of the hot path. Lists found out of
// order panic rather than silently reordering the greedy.
func GreedyMergeCapsInto(assigned []int, s *GreedyScratch, perSrc [][]Edge, numSCNs, numTasks, capacity int, caps []int) []int {
	if cap(assigned) < numTasks {
		assigned = make([]int, numTasks)
	}
	assigned = assigned[:numTasks]
	for i := range assigned {
		assigned[i] = -1
	}
	if capacity <= 0 || numSCNs <= 0 {
		return assigned
	}
	if cap(s.counts) < numSCNs {
		s.counts = make([]int, numSCNs)
	}
	s.counts = s.counts[:numSCNs]
	clear(s.counts)
	if cap(s.heads) < len(perSrc) {
		s.heads = make([]int32, len(perSrc))
	}
	if cap(s.cur) < len(perSrc) {
		s.cur = make([]Edge, len(perSrc))
	}
	heads := s.heads[:len(perSrc)]
	cur := s.cur[:len(perSrc)]
	heap := s.heap[:0]
	for li := range perSrc {
		heads[li] = 0
		if len(perSrc[li]) > 0 {
			cur[li] = perSrc[li][0]
			heap = append(heap, int32(li))
		}
	}
	s.heap = heap
	// less orders heap entries by their lists' head edges (cached in cur to
	// spare a double indirection per comparison); heads from distinct lists
	// never tie when each list has a distinct SCN, and equal outcomes would
	// only make the pop order of *equal* edges ambiguous — which cmpEdge
	// precludes for distinct (SCN, task) pairs.
	less := func(a, b int32) bool {
		ea, eb := &cur[a], &cur[b]
		if ea.W != eb.W {
			return ea.W > eb.W
		}
		if ea.SCN != eb.SCN {
			return ea.SCN < eb.SCN
		}
		return ea.Task < eb.Task
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	prev := Edge{W: math.Inf(1), SCN: -1}
	for len(heap) > 0 {
		li := heap[0]
		e := cur[li]
		heads[li]++
		if int(heads[li]) < len(perSrc[li]) {
			cur[li] = perSrc[li][heads[li]]
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
		if cmpEdge(prev, e) > 0 {
			panic("assign: GreedyMergeCapsInto input list not in SortEdges order")
		}
		prev = e
		if e.SCN < 0 || e.SCN >= numSCNs || e.Task < 0 || e.Task >= numTasks {
			panic(fmt.Sprintf("assign: edge (%d,%d) out of range", e.SCN, e.Task))
		}
		if assigned[e.Task] != -1 || s.counts[e.SCN] >= capAt(capacity, caps, e.SCN) {
			continue
		}
		assigned[e.Task] = e.SCN
		s.counts[e.SCN]++
	}
	return assigned
}

// PerSCN converts assigned[task]=scn into per-SCN task lists (the paper's
// I_{m,t} sets).
func PerSCN(assigned []int, numSCNs int) [][]int {
	out := make([][]int, numSCNs)
	for task, m := range assigned {
		if m >= 0 {
			out[m] = append(out[m], task)
		}
	}
	return out
}

// TotalWeight sums the weight of the selected edges under an assignment,
// given a weight lookup.
func TotalWeight(assigned []int, weight func(scn, task int) float64) float64 {
	total := 0.0
	for task, m := range assigned {
		if m >= 0 {
			total += weight(m, task)
		}
	}
	return total
}

// Verify checks assignment feasibility: per-SCN counts ≤ capacity and SCN
// indices in range. It returns nil when feasible.
func Verify(assigned []int, numSCNs, capacity int) error {
	counts := make([]int, numSCNs)
	for task, m := range assigned {
		if m == -1 {
			continue
		}
		if m < 0 || m >= numSCNs {
			return fmt.Errorf("assign: task %d assigned to invalid SCN %d", task, m)
		}
		counts[m]++
		if counts[m] > capacity {
			return fmt.Errorf("assign: SCN %d exceeds capacity %d", m, capacity)
		}
	}
	return nil
}

// Random implements the paper's Random baseline: each SCN (visited in a
// random order) picks up to capacity unassigned tasks uniformly from its
// coverage set; no task is offloaded twice.
func Random(coverage [][]int, numTasks, capacity int, r *rng.Stream) []int {
	return RandomCaps(coverage, numTasks, capacity, nil, r)
}

// RandomCaps is Random with an optional per-SCN capacity vector caps
// (nil = uniform capacity). A masked SCN (empty coverage row) draws its
// visit-order slot from Perm but samples nothing, so attaching an
// all-up scenario consumes the stream exactly as the static baseline
// does.
func RandomCaps(coverage [][]int, numTasks, capacity int, caps []int, r *rng.Stream) []int {
	assigned := make([]int, numTasks)
	for i := range assigned {
		assigned[i] = -1
	}
	if capacity <= 0 {
		return assigned
	}
	order := r.Perm(len(coverage))
	for _, m := range order {
		avail := make([]int, 0, len(coverage[m]))
		for _, t := range coverage[m] {
			if t < 0 || t >= numTasks {
				panic(fmt.Sprintf("assign: coverage task %d out of range", t))
			}
			if assigned[t] == -1 {
				avail = append(avail, t)
			}
		}
		k := capAt(capacity, caps, m)
		if k > len(avail) {
			k = len(avail)
		}
		for _, pick := range r.Sample(len(avail), k) {
			assigned[avail[pick]] = m
		}
	}
	return assigned
}

// DepRoundScratch holds the reusable working memory of DepRoundGather: the
// fractional entries (positions and marginals, in stack order) and the
// picks. A zero value is ready to use; buffers grow to the high-water mark
// and are never shrunk. A scratch value must not be shared between
// concurrent calls (LFSC keeps one per SCN).
type DepRoundScratch struct {
	fi    []int32
	fv    []float64
	picks []int32
}

// depTol is DepRound's integrality tolerance: a marginal within depTol of 0
// or 1 is already rounded.
const depTol = 1e-9

// DepRoundGather samples a subset S of the positions [0, len(at)) with |S|
// = round(Σp) such that P(i ∈ S) = p_i exactly, where p_i = vals[at[i]]
// (the layout of LFSC's per-cell probabilities, read in place instead of
// first copied out one per task). It uses Gandhi et al.'s dependent
// rounding: while two fractional probabilities remain, shift mass between
// them so that at least one becomes integral, choosing the direction with
// the probability that preserves marginals. Inputs must lie in [0,1]; the
// sum should be within rounding distance of an integer (as Exp3.M
// guarantees with Σp = c).
//
// The selected positions come in the order they were rounded, not sorted.
// The slice aliases s and is valid until the next call with the same
// scratch, which makes steady-state calls allocation-free.
func DepRoundGather(s *DepRoundScratch, at []int32, vals []float64, r *rng.Stream) []int32 {
	n := len(at)
	if cap(s.fi) < n {
		s.fi = make([]int32, n, n+n/2)
		s.fv = make([]float64, n, n+n/2)
	}
	fi, fv := s.fi[:n], s.fv[:n]
	picks := s.picks[:0]
	// One pass classifies every entry: a fractional one joins the stack,
	// one within depTol of 1 (clamped from up to 1+depTol) is selected at
	// once, and one within depTol of 0 (or NaN) is dropped.
	sp := 0
	for i, f := range at {
		v := vals[f]
		if v > depTol && v < 1-depTol {
			fi[sp], fv[sp] = int32(i), v
			sp++
		} else if v < -depTol || v > 1+depTol {
			panic(fmt.Sprintf("assign: DepRound probability %v out of [0,1]", v))
		} else if v >= 1-depTol {
			picks = append(picks, int32(i))
		}
	}
	picks = depChain(fi[:sp], fv[:sp], picks, r)
	s.picks = picks
	return picks
}

// depChain rounds the fractional entries fi/fv (positions and marginals,
// bottom of the stack first), appending every position that rounds to 1.
//
// Each step pops the top entry i and the one below it, j. A coin with
// probability beta/(alpha+beta) moves mass between them until one is
// integral, and the at most one survivor goes back on top — so it is the
// next step's i. The survivor is therefore carried in locals (ci, cv)
// while the stack below only shrinks, and an entry that reaches 1 is
// emitted the moment it does. When the pair's mass fits in one entry
// (alpha = w[j] and beta = w[i]), both coin outcomes leave the survivor at
// w[i]+w[j] and the other entry at exactly 0: the coin only selects which
// index survives, and the carried value waits on one addition, not on the
// draw. The generator is held by value for the whole chain.
func depChain(fi []int32, fv []float64, picks []int32, r *rng.Stream) []int32 {
	g := r.PCG()
	sp := len(fi)
	ci, cv := int32(-1), 0.0
	for {
		if ci < 0 {
			if sp < 2 {
				break
			}
			sp--
			ci, cv = fi[sp], fv[sp]
		} else if sp == 0 {
			break
		}
		sp--
		j, wj := fi[sp], fv[sp]
		var u float64
		u, g = g.Float64()
		alpha := min2(1-cv, wj)
		beta := min2(cv, 1-wj)
		heads := u < beta/(alpha+beta) // w[i] += alpha, w[j] -= alpha
		if alpha == wj && beta == cv {
			// heads: w[i] = cv+wj, w[j] = 0; tails: w[i] = 0, w[j] = wj+cv.
			if !heads {
				ci = j
			}
			cv += wj
			if cv >= 1-depTol {
				picks = append(picks, ci)
				ci = -1
			}
			continue
		}
		ni, nj := cv-beta, wj+beta
		if heads {
			ni, nj = cv+alpha, wj-alpha
		}
		// One of the pair is now integral: the side that gained 1−w
		// rounds to within an ulp of 1, the side that lost its own w
		// lands on exactly 0.
		if ni >= 1-depTol {
			picks = append(picks, ci)
		}
		if nj >= 1-depTol {
			picks = append(picks, j)
		}
		switch {
		case ni > depTol && ni < 1-depTol:
			cv = ni
		case nj > depTol && nj < 1-depTol:
			ci, cv = j, nj
		default:
			ci = -1
		}
	}
	// A single leftover fractional entry (sum not exactly integral): round
	// it by its own probability.
	if ci < 0 && sp == 1 {
		ci, cv = fi[0], fv[0]
	}
	if ci >= 0 {
		var u float64
		u, g = g.Float64()
		if u < cv {
			picks = append(picks, ci)
		}
	}
	r.SetPCG(g)
	return picks
}

func min2(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
