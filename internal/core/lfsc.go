// Package core implements LFSC, the paper's primary contribution: an online
// learning framework for task offloading in 5G small cell networks
// (Alg. 1–4). Per SCN it runs a contextual multiple-play adversarial bandit
// over context hypercubes (an Exp3.M core with weight capping), augments the
// exponential weight update with Lagrangian penalty terms for the QoS floor
// (1c) and the resource ceiling (1d), and coordinates SCNs with the greedy
// bipartite assignment of Alg. 4.
//
// Reconstruction notes (the published pseudo-code is OCR-damaged; each
// choice below is also discussed in DESIGN.md §2):
//
//   - Probability computation (Alg. 2) is Exp3.M's: cap weights at ε so no
//     task exceeds probability 1, then p_i = c[(1−γ)w̃_i/Σw̃ + γ/K]. Capped
//     hypercubes (the set S') skip the weight update this slot, exactly as
//     Alg. 3 lines 11-12 prescribe.
//   - The paper describes Alg. 2 as "a randomized algorithm" and its
//     estimators divide by p_i, which is only unbiased when tasks really are
//     selected with marginal ≈ p_i. We therefore sample each SCN's candidate
//     set by dependent rounding (DepRound — the Exp3.M selection semantics,
//     marginals exactly p_i), resolve cross-SCN conflicts with the greedy of
//     Alg. 4 over p, and backfill beams freed by conflicts in probability
//     order. An exponential-race mode and the literal deterministic reading
//     (edge weight = p_i) are kept for the selection ablation, which shows
//     DepRound dominating both on the performance ratio.
//   - The Lagrangian update (Alg. 3 lines 15-17) is projected gradient
//     ascent with decay: λ ← [(1−ηδ)λ + η·slack]₊, where slack is the
//     per-slot constraint slack normalised by the beam budget c so all
//     exponent terms share the scale of ĝ.
//
// Performance: the per-slot Decide/Observe pair is the hot kernel of every
// figure benchmark (executed T × replicas × scenarios times), so its steady
// state is allocation-free and incremental. All per-slot quantities live on
// the *present cells* of the slot (the hypercubes actually touched by the
// coverage set — the census in cellList/cellCnt, taken once per Decide and
// reused by Observe): probabilities are computed once per present cell, the
// capping solver reuses a persistent logW-sorted cell order repaired by
// insertion, the estimator accumulators are reset only over the present
// cells, and Observe scans the slot's executions bucketed by SCN instead of
// rescanning the coverage lists. Each scnState owns a scratch arena sized
// once at New from KMax/Cells/Capacity; the policy owns the cross-SCN
// buffers. See DESIGN.md §8 for the incremental-maintenance model and the
// ownership rules that let a shard's partial learner run its SCNs alone.
package core

import (
	"fmt"
	"math"

	"lfsc/internal/assign"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
)

// SelectionMode chooses how selection probabilities drive the assignment.
type SelectionMode int

const (
	// DepRoundMode (default) samples, per SCN, a candidate set of c tasks
	// by dependent rounding with marginals exactly p_i (the Exp3.M
	// selection semantics), resolves cross-SCN conflicts with the greedy
	// of Alg. 4 over p, and backfills freed beams by p. This keeps the
	// importance-weighted estimators (which divide by p_i) unbiased up to
	// conflict effects.
	DepRoundMode SelectionMode = iota
	// Race draws an exponential race per edge with rate p_i. Noisier than
	// DepRound (pairwise win odds are only proportional to p); kept for
	// the selection ablation.
	Race
	// Deterministic uses p_i directly as the greedy edge weight — the
	// literal reading of Alg. 4's input; pure exploitation, no sampling.
	Deterministic
)

// Config parameterises LFSC.
type Config struct {
	// SCNs is the number of small cell nodes M.
	SCNs int
	// Capacity is the per-slot beam budget c of each SCN.
	Capacity int
	// Alpha is the per-SCN minimum completed task threshold (1c).
	Alpha float64
	// Beta is the per-SCN resource capacity (1d).
	Beta float64
	// Cells is the number of context hypercubes (h_T)^{D_b}.
	Cells int
	// KMax is the bound K_m on per-SCN visible tasks per slot.
	KMax int
	// Horizon is the time horizon T used in the parameter schedule.
	Horizon int
	// Gamma, Eta, Delta override the Theorem-1 schedule when positive.
	Gamma, Eta, Delta float64
	// WeightDecay is the per-slot exponential forgetting rate ρ applied to
	// log-weights (logW ← (1−ρ)·logW, an Exp3.S-style drift toward
	// uniform). Without it, weights integrate the entire history: every
	// cell whose λ-adjusted drift was ever positive ratchets up to the
	// Exp3.M cap and stays, so the effective top set dilutes over a long
	// run and per-slot violations creep back up. With forgetting, the
	// ranking tracks the *recent* drift, giving a stable equilibrium (and
	// robustness to non-stationary rewards). Negative disables; zero
	// selects the default.
	WeightDecay float64
	// LambdaRate scales the multiplier step size relative to η (the
	// multiplier update uses η·LambdaRate). Zero selects the default.
	// Larger values make the constraint response faster at the cost of
	// larger oscillations around the dual optimum.
	LambdaRate float64
	// SlackPull is the asymmetry of the dual update: the rate at which
	// constraint slack (being safely inside the feasible region) pulls a
	// multiplier back down, relative to the rate at which violations push
	// it up. The violation metrics are hinges — only shortfall/excess
	// counts — so a symmetric (=1) ascent lets λ undershoot as soon as the
	// constraint is met and per-slot violations oscillate. 0 would be the
	// pure hinge subgradient (λ only ratchets up). Zero selects the
	// default; negative selects the pure hinge.
	SlackPull float64
	// Mode selects randomized or deterministic edge priorities.
	Mode SelectionMode
	// DisableCapping turns off Exp3.M weight capping (ablation A5).
	DisableCapping bool
	// DisableLagrangian freezes λ1 = λ2 = 0, reducing LFSC to a pure
	// constrained-blind Exp3.M (ablation A3).
	DisableLagrangian bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.SCNs <= 0:
		return fmt.Errorf("core: SCNs must be positive, got %d", c.SCNs)
	case c.Capacity <= 0:
		return fmt.Errorf("core: capacity must be positive, got %d", c.Capacity)
	case c.Cells <= 0:
		return fmt.Errorf("core: cells must be positive, got %d", c.Cells)
	case c.KMax <= 0:
		return fmt.Errorf("core: KMax must be positive, got %d", c.KMax)
	case c.Horizon <= 0:
		return fmt.Errorf("core: horizon must be positive, got %d", c.Horizon)
	case c.Alpha < 0 || c.Beta < 0:
		return fmt.Errorf("core: alpha/beta must be non-negative")
	case c.Gamma < 0 || c.Gamma > 1:
		return fmt.Errorf("core: gamma %v outside [0,1]", c.Gamma)
	case c.Eta < 0 || c.Delta < 0:
		return fmt.Errorf("core: eta/delta must be non-negative")
	}
	return nil
}

// Schedule returns the effective (γ, η, δ) after applying Theorem 1's
// defaults for unset values:
//
//	γ = min(1, sqrt(K·ln(K/c) / ((e−1)·c·T)))   (Exp3.M optimal mixing)
//	η = γ/F   where F is the number of hypercubes
//	δ = η/√T
//
// The learning rate divides by the number of hypercubes F rather than the
// task bound K: LFSC's weights (and hence its importance-weighted loss
// estimates) live on the F context cells, so F is the effective arm count
// for the exponential update, while K governs the exploration mixing over
// the per-slot task list. With F ≪ K (paper: 27 cells vs up to 200 tasks)
// the K-scaled rate is an order of magnitude too conservative to converge
// within the paper's horizon.
func (c Config) Schedule() (gamma, eta, delta float64) {
	gamma = c.Gamma
	if gamma == 0 {
		k := float64(c.KMax)
		cc := float64(c.Capacity)
		ratio := k / cc
		if ratio < math.E {
			ratio = math.E // keep the log positive for K close to c
		}
		gamma = math.Min(1, math.Sqrt(k*math.Log(ratio)/((math.E-1)*cc*float64(c.Horizon))))
	}
	eta = c.Eta
	if eta == 0 {
		eta = gamma / float64(c.Cells)
	}
	delta = c.Delta
	if delta == 0 {
		delta = eta / math.Sqrt(float64(c.Horizon))
	}
	return gamma, eta, delta
}

// scnState is the per-SCN learner state.
//
// Weights are stored in log space: over a long horizon the exponential
// update drives weight ratios past float64's dynamic range (a 10⁴-slot run
// at paper scale reaches ratios of 1e30+), and once tail weights underflow
// to zero their relative order — which ranks the candidates that fill most
// of the beam budget — is destroyed. The Exp3.M probability formula and the
// capping fixed point depend only on weight ratios, so shifting by the
// maximum log-weight before exponentiating is exact.
//
// Everything below the learner state is the SCN's private scratch arena:
// buffers sized once (from KMax, Cells, Capacity) and reset by re-slicing,
// never reallocated in steady state. Only SCN m's own per-SCN stage
// (decideSCN, observeSCN) touches SCN m's arena, so a partial learner
// that owns a subset of the SCNs (a shard) computes exactly what the full
// learner computes for them.
type scnState struct {
	logW    []float64 // log-weights, one per hypercube
	lambda1 float64   // multiplier for the QoS floor (1c)
	lambda2 float64   // multiplier for the resource ceiling (1d)
	// r is this SCN's private random stream (derived from the policy
	// stream by SCN index), so per-SCN computation is independent of
	// which learner — full or a shard's partial one — runs the SCN.
	r *rng.Stream

	// Per-slot cell cache, written by Decide and read by the same slot's
	// Observe and backfill: after cellProbs, cellW[f] holds the final
	// selection probability of every present cell f (intermediate shifted
	// weights are overwritten in place), and the census (cellCnt, cellList,
	// taskCells) records which cells the slot touched — the dirty set that
	// bounds every subsequent per-cell pass.
	capped     []bool // capped[f] ⇔ hypercube f ∈ S' this slot
	cappedList []int  // hypercubes currently flagged in capped
	cellW      []float64
	cellCnt    []int   // visible-task count per hypercube
	cellList   []int   // hypercubes present this slot, first-touch order
	taskCells  []int32 // hypercube per visible-task position

	// Decide-internal scratch:
	edges    []assign.Edge          // this SCN's bipartite edges (Race/Deterministic)
	dep      assign.DepRoundScratch // DepRound working memory
	pickTask []int32                // DepRound candidate task indices (≤ Capacity+1)
	pickP    []float64              // matching selection probabilities
	capTop   []float64              // solveCapCells: the largest weights, descending
	capRest  []float64              // solveCapCells: capRest[j] = sum of all but the j largest
	// order holds every hypercube sorted ascending by logW. The weight
	// update barely perturbs the ranking, so solveCapCells repairs it with
	// an insertion pass over a nearly sorted array and gets its ascending
	// order statistics for free — exp is monotone, so logW order IS
	// shifted-weight order.
	order []int

	// Observe-internal scratch: per-hypercube accumulator pools for the
	// importance-weighted estimates (the former map[int]*cellAcc); the
	// cells with at least one visible task are listed in cellList above.
	accG, accV, accQ []float64
}

// newSCNState builds SCN state with the arena pre-sized from the config.
func newSCNState(cfg Config, r *rng.Stream) *scnState {
	order := make([]int, cfg.Cells)
	for f := range order {
		order[f] = f
	}
	return &scnState{
		order:      order,
		logW:       make([]float64, cfg.Cells),
		r:          r,
		capped:     make([]bool, cfg.Cells),
		cappedList: make([]int, 0, cfg.Cells),
		edges:      make([]assign.Edge, 0, cfg.KMax),
		pickTask:   make([]int32, 0, cfg.Capacity+1),
		pickP:      make([]float64, 0, cfg.Capacity+1),
		cellW:      make([]float64, cfg.Cells),
		cellCnt:    make([]int, cfg.Cells),
		cellList:   make([]int, 0, cfg.Cells),
		taskCells:  make([]int32, 0, cfg.KMax),
		capTop:     make([]float64, 0, cfg.Capacity+1),
		capRest:    make([]float64, 0, cfg.Capacity+1),
		accG:       make([]float64, cfg.Cells),
		accV:       make([]float64, cfg.Cells),
		accQ:       make([]float64, cfg.Cells),
	}
}

// resetSlot clears the cross-call scratch (the capped set and the DepRound
// candidate picks) at the start of a new Decide.
func (st *scnState) resetSlot() {
	for _, f := range st.cappedList {
		st.capped[f] = false
	}
	st.cappedList = st.cappedList[:0]
	st.pickTask = st.pickTask[:0]
	st.pickP = st.pickP[:0]
}

// resetCaches drops every slot-derived cache (the capped set, the cell
// census, cached per-cell probabilities' bookkeeping, DepRound picks) so a
// freshly restored learner rebuilds them on its next Decide. Cached
// aggregates are never serialized — only logW, λ, t, and the RNG streams
// travel through a checkpoint.
func (st *scnState) resetCaches() {
	st.resetSlot()
	for _, f := range st.cellList {
		st.cellCnt[f] = 0
	}
	st.cellList = st.cellList[:0]
}

// setCapped flags hypercube f as a member of S' this slot.
func (st *scnState) setCapped(f int) {
	if !st.capped[f] {
		st.capped[f] = true
		st.cappedList = append(st.cappedList, f)
	}
}

// LFSC implements policy.Policy.
type LFSC struct {
	cfg               Config
	gamma, eta, delta float64
	lambdaRate        float64
	decay             float64
	slackPull         float64
	scns              []*scnState
	r                 *rng.Stream
	// owned lists the SCN indices this learner materializes, strictly
	// ascending; nil means all of them (the common, unsharded case). A
	// partial learner (NewPartial) holds nil entries in scns for SCNs it
	// does not own and can only run the per-SCN stage (DecideLocal /
	// Observe); the cross-SCN resolution then runs in a Merger that sees
	// every shard's states.
	owned []int
	// slots counts completed Decide/Observe rounds. It is checkpointed so
	// a restored learner knows how far through the horizon it is: the
	// γ/η/δ schedule and the per-slot decay are calibrated against
	// Horizon, and a serving deployment that resumes from a checkpoint
	// must continue the schedule (and its own slot clock) from this point
	// rather than restarting at zero.
	slots int

	// res owns the cross-SCN assignment-resolution scratch. It is shared
	// code with the sharded Merger: both call resolver.resolve over a
	// states array, which is what keeps Shards=1 and Shards=N
	// bit-identical — there is only one resolution implementation.
	res resolver

	execOff   []int   // Observe: per-SCN exec bucket offsets (SCNs+1)
	execCur   []int   // Observe: counting-sort cursors
	execOrder []int32 // Observe: exec indices grouped by SCN
}

// newLFSC builds the learner shell (schedule, defaults, policy-global
// scratch) without any per-SCN state; New and NewPartial fill scns.
func newLFSC(cfg Config, r *rng.Stream) (*LFSC, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l := &LFSC{cfg: cfg, r: r}
	l.gamma, l.eta, l.delta = cfg.Schedule()
	l.lambdaRate = cfg.LambdaRate
	if l.lambdaRate == 0 {
		l.lambdaRate = defaultLambdaRate
	}
	l.decay = cfg.WeightDecay
	if l.decay == 0 {
		l.decay = defaultWeightDecay
	}
	if l.decay < 0 {
		l.decay = 0
	}
	l.slackPull = cfg.SlackPull
	if l.slackPull == 0 {
		l.slackPull = defaultSlackPull
	}
	if l.slackPull < 0 {
		l.slackPull = 0
	}
	l.scns = make([]*scnState, cfg.SCNs)
	l.res = newResolver(cfg)
	l.execOff = make([]int, cfg.SCNs+1)
	l.execCur = make([]int, cfg.SCNs)
	return l, nil
}

// New constructs an LFSC policy. The stream drives the randomized edge
// priorities only; all learning state is deterministic given the feedback.
func New(cfg Config, r *rng.Stream) (*LFSC, error) {
	l, err := newLFSC(cfg, r)
	if err != nil {
		return nil, err
	}
	for m := 0; m < cfg.SCNs; m++ {
		l.scns[m] = newSCNState(cfg, r.Derive(uint64(m)))
	}
	return l, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, r *rng.Stream) *LFSC {
	l, err := New(cfg, r)
	if err != nil {
		panic(err)
	}
	return l
}

// Name implements policy.Policy.
func (l *LFSC) Name() string { return "LFSC" }

// Gamma returns the effective exploration rate (for reports).
func (l *LFSC) Gamma() float64 { return l.gamma }

// SlotsSeen returns the number of completed Decide/Observe rounds the
// learner has absorbed (including any carried in from a checkpoint).
func (l *LFSC) SlotsSeen() int { return l.slots }

// Multipliers returns SCN m's current Lagrange multipliers (λ1, λ2).
func (l *LFSC) Multipliers(m int) (float64, float64) {
	return l.scns[m].lambda1, l.scns[m].lambda2
}

// Weights returns SCN m's hypercube log-weights (for inspection). Only
// differences are meaningful: the selection probability of a cell's tasks
// is monotone in its log-weight.
func (l *LFSC) Weights(m int) []float64 {
	return append([]float64(nil), l.scns[m].logW...)
}

// Decide implements policy.Policy: Alg. 2 per SCN, then Alg. 4 globally.
// Both stages run serially on the caller's goroutine, in SCN order — the
// same code and order as a one-shard daemon's slot (DecideLocal, then the
// shared resolver).
//
// The returned assignment aliases a policy-owned buffer: it is valid until
// the next Decide call, which matches the simulator's slot protocol
// (Decide → execute → Observe, then the next slot).
func (l *LFSC) Decide(view *policy.SlotView) []int {
	if l.owned != nil {
		panic("core: Decide on a partial learner — run DecideLocal and resolve through a Merger")
	}
	l.DecideLocal(view)
	return l.res.resolve(l.scns, view)
}

// DecideLocal runs only the per-SCN stage of Decide (Alg. 2: probabilities
// and candidate sampling) for every SCN this learner owns, leaving each
// owned scnState primed for a resolver pass. A full learner's Decide is
// DecideLocal + resolve; a sharded deployment calls DecideLocal on every
// shard and then resolves once through a Merger over the combined states
// — the same resolver code, hence bit-identical results.
func (l *LFSC) DecideLocal(view *policy.SlotView) {
	for m := range view.SCNs {
		l.decideSCN(view, m)
	}
}

// resolver owns the cross-SCN candidate-resolution stage (Alg. 4) and its
// scratch. It reads the per-SCN stage's outputs through a states array —
// either a full learner's own scns or a Merger's stitched view across
// shards — so both deployments execute the identical resolution code path.
type resolver struct {
	capacity int
	numSCNs  int
	mode     SelectionMode

	perSCNEdges [][]assign.Edge
	assigned    []int     // assignment buffer returned by resolve
	bestP       []float64 // per-task best candidate probability (mergePicks)
	greedy      assign.GreedyScratch
	counts      []int     // per-SCN beams assigned so far (mergePicks, countBeams; read by backfill)
	selP        []float64 // backfill top-free selection: probabilities,
	selLW       []float64 // log-weight tie-breaks,
	selIdx      []int     // and slot-global task indices (≤ Capacity each)
}

func newResolver(cfg Config) resolver {
	return resolver{
		capacity:    cfg.Capacity,
		numSCNs:     cfg.SCNs,
		mode:        cfg.Mode,
		perSCNEdges: make([][]assign.Edge, cfg.SCNs),
		counts:      make([]int, cfg.SCNs),
		selP:        make([]float64, cfg.Capacity),
		selLW:       make([]float64, cfg.Capacity),
		selIdx:      make([]int, cfg.Capacity),
	}
}

// resolve turns the per-SCN candidate sets produced by the DecideLocal
// stage into the global assignment. Every states[m] must be primed by this
// slot's per-SCN stage (st.edges / pickTask are otherwise stale); the
// returned slice aliases resolver-owned scratch valid until the next call.
func (r *resolver) resolve(states []*scnState, view *policy.SlotView) []int {
	if len(view.SCNs) > len(r.perSCNEdges) {
		// Defensive: a view wider than the configured SCN count.
		r.perSCNEdges = make([][]assign.Edge, len(view.SCNs))
	}
	if r.mode == DepRoundMode {
		// DepRound mode never exposes the greedy to a capacity bind (each
		// SCN contributes at most Capacity candidates), so the global
		// resolution collapses to a per-task argmax over the candidate
		// probabilities — see mergePicks. DepRound emits round(Σp) = c
		// candidates analytically; should float drift ever produce c+1,
		// fall back to the full greedy so the capacity rule applies in the
		// exact historical order.
		overflow := false
		for m := range view.SCNs {
			if len(states[m].pickTask) > view.CapAt(m, r.capacity) {
				overflow = true
				break
			}
		}
		if overflow {
			for m := range view.SCNs {
				st := states[m]
				st.edges = st.edges[:0]
				for j, t32 := range st.pickTask {
					st.edges = append(st.edges, assign.Edge{SCN: m, Task: int(t32), W: st.pickP[j]})
				}
				assign.SortEdges(st.edges)
				r.perSCNEdges[m] = st.edges
			}
			r.mergeGreedy(view)
			r.countBeams()
		} else {
			r.mergePicks(states, view)
		}
		r.backfill(states, view)
	} else {
		// Each SCN's edge list was sorted by its own per-SCN stage, so
		// the global greedy consumes them through a k-way merge —
		// bit-identical to concatenating and sorting, minus the dominant
		// comparison sort. Empty-cover SCNs never primed st.edges this
		// slot, so their lists are pinned to nil rather than read stale.
		for m := range view.SCNs {
			if len(view.SCNs[m].Cover) == 0 {
				r.perSCNEdges[m] = nil
			} else {
				r.perSCNEdges[m] = states[m].edges
			}
		}
		r.mergeGreedy(view)
	}
	return r.assigned
}

// mergeGreedy runs the capacitated global greedy over the slot's
// per-SCN sorted edge lists, k-way-heap-merging them in the unique
// cmpEdge total order — so the assignment is bit-identical however the
// lists are spread across shards (pinned by the 1/2/4/7-shard lockstep
// twins).
func (r *resolver) mergeGreedy(view *policy.SlotView) {
	lists := r.perSCNEdges[:len(view.SCNs)]
	r.assigned = assign.GreedyMergeCapsInto(r.assigned, &r.greedy, lists, r.numSCNs, view.NumTasks, r.capacity, view.Caps)
}

// decideSCN runs Alg. 2 for one SCN: per-cell probabilities, then candidate
// sampling. It touches only SCN m's arena and stream, so its result does
// not depend on which other SCNs the learner owns.
func (l *LFSC) decideSCN(view *policy.SlotView, m int) {
	st := l.scns[m]
	if st == nil {
		return // partial learner: SCN owned by another shard
	}
	st.resetSlot()
	cover := view.SCNs[m].Cover
	if len(cover) == 0 {
		// Masked SCNs (scenario sleep/fail) and genuinely uncovered slots
		// take the same exit: no candidates, no edges — and Observe's
		// matching early return freezes the weights and multipliers until
		// the SCN rejoins.
		return
	}
	// Effective beam capacity this slot: the scenario's c_n(t) when the
	// view carries capacity dynamics, the configured nominal otherwise.
	// Always ≤ nominal, so every arena sized for cfg.Capacity still fits.
	c := view.CapAt(m, l.cfg.Capacity)
	l.cellProbs(st, cover, view.Cells, c)
	taskCells := st.taskCells[:len(cover)]
	switch l.cfg.Mode {
	case DepRoundMode:
		// Sample the SCN's candidate set with marginals exactly p, read
		// straight from the per-cell probabilities. The picks come in the
		// order DepRound rounds them; neither mergePicks (strictly best p
		// per task, SCNs in order) nor the overflow path (which sorts)
		// depends on the order within one SCN.
		for _, i := range assign.DepRoundGather(&st.dep, taskCells, st.cellW, st.r) {
			st.pickTask = append(st.pickTask, int32(cover[i]))
			st.pickP = append(st.pickP, st.cellW[taskCells[i]])
		}
		return
	case Race:
		st.edges = st.edges[:0]
		for i, f := range taskCells {
			st.edges = append(st.edges, assign.Edge{SCN: m, Task: cover[i], W: st.cellW[f] / st.r.Exponential(1)})
		}
	case Deterministic:
		st.edges = st.edges[:0]
		for i, f := range taskCells {
			st.edges = append(st.edges, assign.Edge{SCN: m, Task: cover[i], W: st.cellW[f]})
		}
	}
	// Pre-sort this SCN's edges (in the per-SCN stage) so the global
	// greedy can k-way merge the lists instead of sorting the union.
	assign.SortEdges(st.edges)
}

// mergePicks resolves the per-SCN DepRound candidate sets into the global
// assignment. In DepRound mode each SCN emits at most Capacity candidates,
// so Alg. 4's per-SCN capacity check can never trigger — every edge the
// greedy would accept is simply the heaviest edge of its task, ties to the
// lowest SCN (the cmpEdge order). Scanning SCNs in ascending order and
// keeping the strictly best probability per task therefore reproduces the
// former sort + k-way-merge greedy bit-for-bit, in linear time, whatever
// the order of the picks within one SCN. It counts each SCN's beams as it
// assigns — a task taken over by a later SCN moves its beam — so backfill
// reads the counts without a pass over every task.
func (r *resolver) mergePicks(states []*scnState, view *policy.SlotView) {
	n := view.NumTasks
	assigned := growInts(&r.assigned, n)
	bestP := growFloats(&r.bestP, n)
	for i := range assigned {
		assigned[i] = -1
	}
	counts := r.counts
	clear(counts)
	for m := range view.SCNs {
		st := states[m]
		for j, t32 := range st.pickTask {
			idx := int(t32)
			if idx < 0 || idx >= n {
				panic(fmt.Sprintf("core: candidate task %d out of range", idx))
			}
			if p, prev := st.pickP[j], assigned[idx]; prev == -1 || p > bestP[idx] {
				if prev >= 0 {
					counts[prev]--
				}
				counts[m]++
				assigned[idx] = m
				bestP[idx] = p
			}
		}
	}
}

// countBeams counts every SCN's assigned beams from scratch, for the
// overflow path's greedy assignment.
func (r *resolver) countBeams() {
	counts := r.counts
	clear(counts)
	for _, m := range r.assigned {
		if m >= 0 {
			counts[m]++
		}
	}
}

// backfill tops up SCNs that lost sampled candidates to cross-SCN conflicts:
// freed beams take the highest-probability unassigned visible tasks. This
// mirrors the paper's cascade discussion — a SCN whose optimal task went to
// a peer falls back to its next best choice rather than idling the beam.
//
// Candidates are ranked by probability; probabilities tie when weights
// underflow (exploration floor) or saturate (capped at 1), so the exact
// log-weight breaks ties before the deterministic task index. That ranking
// is a strict total order, so taking the best remaining candidate `free`
// times selects exactly the prefix a full descending sort would — without
// building or sorting a candidate list (free ≤ c is small; the conflicts
// being repaired rarely free more than a few beams).
func (r *resolver) backfill(states []*scnState, view *policy.SlotView) {
	assigned, counts := r.assigned, r.counts
	for m := range view.SCNs {
		free := view.CapAt(m, r.capacity) - counts[m]
		if free <= 0 {
			continue
		}
		st := states[m]
		cover := view.SCNs[m].Cover
		// One-pass bounded selection: keep the best `free` candidates seen
		// so far in rank order (insertion into a ≤Capacity-sized window,
		// most candidates rejected on one comparison with the window's
		// worst). The window ends holding exactly the prefix a full
		// descending sort of the candidates would, in the same order.
		n := 0
		for i, idx := range cover {
			if assigned[idx] != -1 {
				continue
			}
			f := int(st.taskCells[i])
			p, lw := st.cellW[f], st.logW[f]
			if n == free && !backfillBeats(p, lw, idx, r.selP[n-1], r.selLW[n-1], r.selIdx[n-1]) {
				continue
			}
			j := n
			if n == free {
				j = n - 1
			} else {
				n++
			}
			for j > 0 && backfillBeats(p, lw, idx, r.selP[j-1], r.selLW[j-1], r.selIdx[j-1]) {
				r.selP[j], r.selLW[j], r.selIdx[j] = r.selP[j-1], r.selLW[j-1], r.selIdx[j-1]
				j--
			}
			r.selP[j], r.selLW[j], r.selIdx[j] = p, lw, idx
		}
		for x := 0; x < n; x++ {
			assigned[r.selIdx[x]] = m
		}
	}
}

// backfillBeats reports whether candidate a outranks candidate b in the
// backfill order: probability descending, then log-weight descending (exact
// tie-break when probabilities saturate at the cap or the exploration
// floor), then task index ascending — a strict total order over distinct
// tasks.
func backfillBeats(aP, aLW float64, aIdx int, bP, bLW float64, bIdx int) bool {
	if aP != bP {
		return aP > bP
	}
	if aLW != bLW {
		return aLW > bLW
	}
	return aIdx < bIdx
}

// cellProbs runs Exp3.M weight capping and the mixing formula for one SCN's
// coverage list, leaving the final selection probability of every present
// cell in st.cellW (valid until the next Decide); capped hypercubes (the
// set S') are flagged in st.capped, and the slot's census (cellCnt,
// cellList, taskCells) is rebuilt for Observe and backfill to reuse.
//
// Tasks in the same hypercube share a weight, so the transcendental and
// capping arithmetic runs once per *present cell* (≤ min(K, Cells) distinct
// values — 27 in the paper setup vs up to 100 tasks): one exp, one cap test
// and one mixing division per cell, and no positional fan-out at all. Every
// per-task accumulation (the weight sums) keeps its original task-order
// iteration, and per-cell expressions are bit-for-bit the ones previously
// evaluated per task, so the produced probabilities are bit-identical to
// the ungrouped computation.
func (l *LFSC) cellProbs(st *scnState, cover []int, cells []int, c int) {
	k := len(cover)
	// Reset the previous slot's census, then count tasks per hypercube;
	// cellList records present cells in first-touch order (deterministic —
	// coverage order is deterministic). taskCells caches each position's
	// cell so the later passes scan a compact int32 array instead of
	// chasing the coverage indices again.
	for _, f := range st.cellList {
		st.cellCnt[f] = 0
	}
	present := st.cellList[:0]
	taskCells := growInt32(&st.taskCells, k)
	for i, idx := range cover {
		f := cells[idx]
		taskCells[i] = int32(f)
		if st.cellCnt[f] == 0 {
			present = append(present, f)
		}
		st.cellCnt[f]++
	}
	st.cellList = present
	if k <= c {
		// Fewer tasks than beams: everything can be served. The per-cell
		// probability is exactly 1 (Observe and backfill read it back).
		for _, f := range present {
			st.cellW[f] = 1
		}
		return
	}
	// Shift log-weights by the slot maximum before exponentiating; both the
	// mixing formula and the capping fixed point are scale-invariant. The
	// shifted exponent is floored so no weight underflows to exact zero:
	// with an all-zero tail the capping fixed point degenerates to ε = 0
	// and the mixing denominator vanishes. A floor of e^-60 keeps 60 nats
	// of ranking range — far beyond what selection can distinguish anyway.
	const minLogDiff = -60.0
	maxLog := math.Inf(-1)
	for _, f := range present {
		if lw := st.logW[f]; lw > maxLog {
			maxLog = lw
		}
	}
	// The largest weight is the largest present cell's: a maximum does not
	// depend on the order or multiplicity it is taken over. The sum does,
	// so it stays per task, in task order.
	maxW := 0.0
	for _, f := range present {
		d := st.logW[f] - maxLog
		if d < minLogDiff {
			d = minLogDiff
		}
		w := math.Exp(d)
		st.cellW[f] = w
		if w > maxW {
			maxW = w
		}
	}
	sum := 0.0
	for _, f := range taskCells {
		sum += st.cellW[f]
	}
	// τ = (1/c − γ/K)/(1−γ): the weight-share above which p would exceed 1.
	tau := (1/float64(c) - l.gamma/float64(k)) / (1 - l.gamma)
	if !l.cfg.DisableCapping && tau > 0 && maxW >= tau*sum {
		eps := solveCapCells(st, k, tau)
		for _, f := range present {
			if st.cellW[f] >= eps {
				st.cellW[f] = eps
				st.setCapped(f)
			}
		}
		sum = 0
		for _, f := range taskCells {
			sum += st.cellW[f]
		}
	}
	// Mixing formula once per cell (identical expression, value shared by
	// the cell's tasks); the final probability overwrites the shifted
	// weight in place.
	for _, f := range present {
		p := float64(c) * ((1-l.gamma)*st.cellW[f]/sum + l.gamma/float64(k))
		if p > 1 {
			p = 1 // numerical safety; capping guarantees ≤ 1 analytically
		}
		if p < 0 {
			p = 0
		}
		st.cellW[f] = p
	}
}

// growInt32 re-slices *buf to length n, reallocating only when the arena
// capacity is exceeded (first slots of a run, or a workload spike).
func growInt32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n, n+n/2)
	}
	*buf = (*buf)[:n]
	return *buf
}

// growInts re-slices *buf to length n, reallocating only when the arena
// capacity is exceeded.
func growInts(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n, n+n/2)
	}
	*buf = (*buf)[:n]
	return *buf
}

// solveCapCells solves the Exp3.M cap fixed point ε = τ·Σ_i min(w_i, ε)
// over the slot's k per-task weights, grouped by cell. With the j largest
// weights capped, ε_j = τ·rest_j/(1−jτ), where rest_j sums the other k−j
// weights; the answer is the first j whose ε_j lies between the j-th and
// (j+1)-th largest weight (relative tolerance 1e-12), and the largest weight
// when no j qualifies.
//
// The search stops once 1−jτ ≤ 0, so it reads only the jmax+1 largest
// weights and rest_1..rest_jmax, with jmax < 1/τ ≤ c. The weights are
// streamed once in ascending order — the persistent logW-sorted cell order,
// each present cell expanded by its task count — and summed smallest first,
// one task at a time: adding head weights first, or subtracting them from a
// total, would lose the tail when log-weights span e^±60. Only the values
// the search reads are kept (capTop, capRest: at most c each), so no
// K-sized order-statistics or prefix-sum array is built.
func solveCapCells(st *scnState, k int, tau float64) float64 {
	// Repair the persistent ascending-by-logW cell order. Between calls the
	// weight update moves only a handful of cells (and the decay is
	// order-preserving: x < y ⟹ (1−ρ)x < (1−ρ)y for every sign), so the
	// array is nearly sorted and this insertion pass degenerates to a
	// verification scan; arbitrary external logW edits are also absorbed,
	// just more slowly.
	ord := st.order
	for i := 1; i < len(ord); i++ {
		f := ord[i]
		lw := st.logW[f]
		j := i
		for j > 0 && st.logW[ord[j-1]] > lw {
			ord[j] = ord[j-1]
			j--
		}
		ord[j] = f
	}
	jmax := 0
	for jmax < k && 1-float64(jmax+1)*tau > 0 {
		jmax++
	}
	// top[x] is the (x+1)-th largest weight, x ≤ jmax; rest[j] is the sum
	// of the k−j smallest, 1 ≤ j ≤ jmax. The shifted weight
	// exp(clamp(logW − maxLog)) is monotone non-decreasing in logW, so the
	// present cells in logW order stream the weights ascending.
	top := growFloats(&st.capTop, min(k, jmax+1))
	rest := growFloats(&st.capRest, jmax+1)
	lo := k - 1 - jmax // first ascending position kept in top
	acc, pos := 0.0, 0
	for _, f := range ord {
		end := pos + st.cellCnt[f]
		v := st.cellW[f]
		for ; pos < end && pos < lo; pos++ {
			acc += v
		}
		for ; pos < end; pos++ {
			x := k - 1 - pos
			top[x] = v
			if x < jmax {
				rest[x+1] = acc
			}
			acc += v
		}
	}
	for j := 1; j <= jmax; j++ {
		eps := tau * rest[j] / (1 - float64(j)*tau)
		lower := 0.0
		if j < k {
			lower = top[j]
		}
		if eps <= top[j-1]*(1+1e-12) && eps >= lower*(1-1e-12) {
			return eps
		}
	}
	// Should be unreachable for K > c (existence is proven in the Exp3.M
	// analysis); fall back to the identity cap (no weight modified) and
	// rely on the final per-task clamp p ≤ 1.
	return top[0]
}

// growFloats re-slices *buf to length n, reallocating only when the arena
// capacity is exceeded (first slots of a run, or a workload spike).
func growFloats(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n, n+n/2)
	}
	*buf = (*buf)[:n]
	return *buf
}

// defaultSlackPull is the default dual-update asymmetry (see
// Config.SlackPull).
const defaultSlackPull = 0.25

// defaultWeightDecay is the default forgetting rate ρ (see
// Config.WeightDecay); chosen by the calibration sweep in EXPERIMENTS.md.
const defaultWeightDecay = 1e-3

// defaultLambdaRate is the default multiplier step scale (see
// Config.LambdaRate); chosen by the calibration sweep in EXPERIMENTS.md:
// rate 1 responds too slowly in the exploration phase, rate ≥ 10
// oscillates around the dual optimum late in the run.
const defaultLambdaRate = 3.0

// maxExponent clamps weight-update exponents so a long streak of large
// importance-weighted estimates cannot overflow float64 in one step.
const maxExponent = 30.0

// Observe implements policy.Policy: Alg. 3 for every SCN, in SCN order
// (each SCN only touches its own weights, multipliers and scratch).
func (l *LFSC) Observe(view *policy.SlotView, assigned []int, fb *policy.Feedback) {
	// Bucket the slot's executions by SCN with a counting sort so each
	// SCN's update scans only its own feedback instead of its whole
	// coverage list. fb.Execs arrive in ascending task order (the
	// policy.Feedback contract) and the counting sort is stable, so every
	// bucket preserves ascending task order — which, with ascending
	// coverage rows, is exactly the accumulation order of the former
	// per-position scan.
	scns := len(view.SCNs)
	off := growInts(&l.execOff, scns+1)
	for i := range off {
		off[i] = 0
	}
	for i := range fb.Execs {
		if m := fb.Execs[i].SCN; m >= 0 && m < scns {
			off[m+1]++
		}
	}
	for m := 0; m < scns; m++ {
		off[m+1] += off[m]
	}
	cur := growInts(&l.execCur, scns)
	copy(cur, off[:scns])
	order := growInt32(&l.execOrder, off[scns])
	for i := range fb.Execs {
		if m := fb.Execs[i].SCN; m >= 0 && m < scns {
			order[cur[m]] = int32(i)
			cur[m]++
		}
	}
	for m := range view.SCNs {
		l.observeSCN(view, fb, m)
	}
	l.slots++
}

// observeSCN runs Alg. 3 for one SCN. Like decideSCN it touches only SCN
// m's arena (plus the read-only exec buckets), so its update does not
// depend on which other SCNs the learner owns.
func (l *LFSC) observeSCN(view *policy.SlotView, fb *policy.Feedback, m int) {
	st := l.scns[m]
	if st == nil {
		return // partial learner: SCN owned by another shard
	}
	if len(view.SCNs[m].Cover) == 0 {
		// Masked or uncovered SCN: nothing executed, nothing observed —
		// the return lands BEFORE the weight update, the decay, and the
		// multiplier update, so an asleep/failed SCN's state is frozen
		// exactly as of its last up slot and resumes untouched on rejoin.
		return
	}
	// Per-hypercube sums of the importance-weighted estimates (Alg. 3
	// lines 2-8), accumulated in the arena's cell pools over this SCN's
	// exec bucket. The per-cell visible-task census (cellCnt, cellList) and
	// the per-cell selection probabilities (cellW) were already produced by
	// this slot's Decide — Observe reuses both, so the loop touches only
	// the ≤ Capacity executed tasks instead of the whole coverage list.
	for _, f := range st.cellList {
		st.accG[f], st.accV[f], st.accQ[f] = 0, 0, 0
	}
	var completed, consumed float64
	for _, ei := range l.execOrder[l.execOff[m]:l.execOff[m+1]] {
		e := &fb.Execs[ei]
		f := e.Cell
		p := st.cellW[f]
		if p <= 0 {
			continue // defensive: cannot importance-weight a 0-prob pick
		}
		st.accG[f] += e.Compound() / p
		st.accV[f] += e.V / p
		st.accQ[f] += e.Q / p
		completed += e.V
		consumed += e.Q
	}
	// Weight update (Alg. 3 lines 9-14): capped cells are skipped.
	// Log-space: the multiplicative exp(·) becomes an addition. Cells with
	// no executions contribute a zero exponent, exactly as before.
	lam1, lam2 := st.lambda1, st.lambda2
	if l.cfg.DisableLagrangian {
		lam1, lam2 = 0, 0
	}
	for _, f := range st.cellList {
		if st.capped[f] {
			continue
		}
		n := float64(st.cellCnt[f])
		gHat := st.accG[f] / n
		vHat := st.accV[f] / n
		qHat := st.accQ[f] / n
		exp := l.eta * (gHat + lam1*vHat - lam2*qHat)
		if exp > maxExponent {
			exp = maxExponent
		}
		if exp < -maxExponent {
			exp = -maxExponent
		}
		st.logW[f] += exp
	}
	if l.decay > 0 {
		// Order-preserving for every sign of logW: x < y ⟹ (1−ρ)x < (1−ρ)y.
		for f := range st.logW {
			st.logW[f] *= 1 - l.decay
		}
	}
	// Multiplier update (Alg. 3 lines 15-17): projected gradient ascent
	// with decay; slack normalised by the beam budget so the λ·v̂ and
	// λ·q̂ exponent terms share ĝ's scale.
	if !l.cfg.DisableLagrangian {
		// The violation metrics are hinges (only shortfall/excess
		// counts), so the dual ascent is asymmetric: slack beyond the
		// constraint pulls λ down at a fraction of the violation rate.
		// A symmetric (linear-constraint) update makes λ undershoot as
		// soon as the constraint is met, selection drifts back toward
		// raw reward, and per-slot violations oscillate late in the
		// run instead of decreasing as the paper reports.
		// Scenario budget dynamics scale the per-SCN constraints for this
		// slot; with no dynamics attached the nominal values flow through
		// the identical expressions (bit-identity for static runs).
		alpha, beta := l.cfg.Alpha, l.cfg.Beta
		if view.AlphaMul != nil {
			alpha *= view.AlphaMul[m]
		}
		if view.BetaMul != nil {
			beta *= view.BetaMul[m]
		}
		g1 := alpha - completed
		g2 := consumed - beta
		if g1 < 0 {
			g1 *= l.slackPull
		}
		if g2 < 0 {
			g2 *= l.slackPull
		}
		etaL := l.eta * l.lambdaRate
		st.lambda1 = project(st.lambda1, etaL, l.delta, g1)
		st.lambda2 = project(st.lambda2, etaL, l.delta, g2)
	}
}

// project applies λ ← [(1−ηδ)λ + η·grad]₊ with the theory's cap λ ≤ 1/δ.
func project(lambda, eta, delta, grad float64) float64 {
	l := (1-eta*delta)*lambda + eta*grad
	if l < 0 {
		return 0
	}
	if delta > 0 && l > 1/delta {
		return 1 / delta
	}
	return l
}
