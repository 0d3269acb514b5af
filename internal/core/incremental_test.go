package core

import (
	"math"
	"slices"
	"testing"

	"lfsc/internal/geo"
	"lfsc/internal/hypercube"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/trace"
)

// This file property-tests the incremental-maintenance claim behind the hot
// kernel: every structure scnState carries across slots (the persistent
// logW-sorted cell order, the cell census, the per-cell probability cache)
// is a pure cache of (logW, slot view) — destroying and scrambling all of
// it before every single Decide must not change one bit of any weight,
// multiplier, or assignment. The end-to-end reward pin can mask a drift
// that cancels in aggregate; these checks compare the raw state hex-float
// digit by digit.

// solveCap is the from-scratch reference for the Exp3.M cap fixed point
// ε = τ·Σ_i min(w_i, ε): sort the per-task weights and scan for the valid
// cap rank. It deliberately shares no state with solveCapCells — no
// persistent order, no grouped expansion, no streaming — but mirrors its
// summation order and tolerance constants, because the property under test
// is that the incremental bookkeeping changes nothing, not that a different
// summation order lands on the same floats.
func solveCap(w []float64, tau float64) float64 {
	asc := append([]float64(nil), w...)
	slices.Sort(asc)
	n := len(asc)
	pre := make([]float64, n+1)
	for i := 0; i < n; i++ {
		pre[i+1] = pre[i] + asc[i]
	}
	for j := 1; j <= n; j++ {
		rest := pre[n-j]
		denom := 1 - float64(j)*tau
		if denom <= 0 {
			break
		}
		eps := tau * rest / denom
		lower := 0.0
		if j < n {
			lower = asc[n-1-j]
		}
		if eps <= asc[n-j]*(1+1e-12) && eps >= lower*(1-1e-12) {
			return eps
		}
	}
	return asc[n-1]
}

// naiveProbs recomputes Alg. 2's selection probabilities per task position
// directly from logW — no census, no per-cell sharing, no persistent order.
func naiveProbs(l *LFSC, st *scnState, cover []int, cells []int) []float64 {
	k := len(cover)
	c := l.cfg.Capacity
	out := make([]float64, k)
	if k <= c {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	const minLogDiff = -60.0
	maxLog := math.Inf(-1)
	for _, idx := range cover {
		if lw := st.logW[cells[idx]]; lw > maxLog {
			maxLog = lw
		}
	}
	w := make([]float64, k)
	for i, idx := range cover {
		d := st.logW[cells[idx]] - maxLog
		if d < minLogDiff {
			d = minLogDiff
		}
		w[i] = math.Exp(d)
	}
	sum, maxW := 0.0, 0.0
	for _, wi := range w {
		sum += wi
		if wi > maxW {
			maxW = wi
		}
	}
	tau := (1/float64(c) - l.gamma/float64(k)) / (1 - l.gamma)
	if !l.cfg.DisableCapping && tau > 0 && maxW >= tau*sum {
		eps := solveCap(w, tau)
		for i := range w {
			if w[i] >= eps {
				w[i] = eps
			}
		}
		sum = 0
		for _, wi := range w {
			sum += wi
		}
	}
	for i, wi := range w {
		p := float64(c) * ((1-l.gamma)*wi/sum + l.gamma/float64(k))
		if p > 1 {
			p = 1
		}
		if p < 0 {
			p = 0
		}
		out[i] = p
	}
	return out
}

// TestIncrementalMatchesNaiveRecompute runs twin learners in lockstep over
// 500 slots of each workload generator: one on the incremental path, one
// whose caches are dropped (resetCaches) and whose persistent cap order is
// scrambled before every Decide — the naive full-recompute execution. The
// incremental learner's probability vector is additionally checked, every
// slot and SCN, against a from-scratch positional recomputation. All
// comparisons are exact to the float64 bit.
func TestIncrementalMatchesNaiveRecompute(t *testing.T) {
	base := trace.SyntheticConfig{
		SCNs: 6, MinTasks: 8, MaxTasks: 24,
		Overlap: 0.3, LatencySensitiveFrac: 0.5,
	}
	area := geo.Area{W: 1000, H: 1000}
	gens := []struct {
		name string
		mk   func(r *rng.Stream) (trace.Generator, error)
	}{
		{"synthetic", func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(base, r)
		}},
		{"stress", func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewStress(trace.StressConfig{
				Base: base, Kind: trace.Hotspot, PeriodSlots: 60,
			}, r)
		}},
		{"geo", func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewGeo(trace.GeoConfig{
				Area: area, SCNPositions: geo.PlaceGrid(area, 9),
				RadiusM: 260, WDs: 120, TaskProb: 0.4,
				MinSpeed: 1, MaxSpeed: 10, MaxPause: 3,
				LatencySensitiveFrac: 0.5,
			}, r)
		}},
	}
	for _, g := range gens {
		t.Run(g.name, func(t *testing.T) { runLockstepTwin(t, g.mk) })
	}
}

func runLockstepTwin(t *testing.T, mk func(r *rng.Stream) (trace.Generator, error)) {
	const slots = 500
	gen, err := mk(rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	part := hypercube.MustNew(3, 3)
	cfg := Config{
		SCNs: gen.SCNs(), Capacity: 4, Alpha: 2, Beta: 7,
		Cells: part.Cells(), KMax: gen.MaxPerSCN(), Horizon: slots,
	}
	// Identical seeds: the learners' policy/SCN streams stay in lockstep as
	// long as both make the same decisions. The scramble stream is separate
	// so cache destruction never touches the naive learner's draws.
	inc := MustNew(cfg, rng.New(5))
	naive := MustNew(cfg, rng.New(5))
	scramble := rng.New(99)
	fbRoot := rng.New(123)

	cells := make([]int, 0, 256)
	for ts := 0; ts < slots; ts++ {
		slot := gen.Next(ts)
		cells = cells[:0]
		for _, tk := range slot.Tasks {
			cells = append(cells, part.IndexTask(tk, false))
		}
		view := &policy.SlotView{T: ts, NumTasks: len(slot.Tasks), Cells: cells}
		for _, cov := range slot.Coverage {
			view.SCNs = append(view.SCNs, policy.SCNView{Cover: cov})
		}

		// Cross-check the incremental probability path against the naive
		// positional recomputation before the slot's decision.
		for m := range view.SCNs {
			cover := view.SCNs[m].Cover
			if len(cover) == 0 {
				continue
			}
			want := naiveProbs(inc, inc.scns[m], cover, cells)
			got := inc.probabilities(inc.scns[m], cover, cells)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("slot %d SCN %d task %d: incremental prob %x != naive %x",
						ts, m, i, got[i], want[i])
				}
			}
		}

		// Naive twin: drop every slot-derived cache and scramble the
		// persistent cap order, forcing the next Decide to rebuild all of
		// it from logW alone.
		for _, st := range naive.scns {
			st.resetCaches()
			scramble.Shuffle(len(st.order), func(i, j int) {
				st.order[i], st.order[j] = st.order[j], st.order[i]
			})
		}

		aAssign := inc.Decide(view)
		bAssign := naive.Decide(view)
		for i := range aAssign {
			if aAssign[i] != bAssign[i] {
				t.Fatalf("slot %d task %d: incremental assigned %d, naive %d",
					ts, i, aAssign[i], bAssign[i])
			}
		}

		// One realized outcome set feeds both learners (assignments are
		// equal, so the feedback is valid for either).
		fb := &policy.Feedback{}
		slotFB := fbRoot.Derive(uint64(ts))
		for taskIdx, m := range aAssign {
			if m < 0 {
				continue
			}
			v := 0.0
			if slotFB.Bernoulli(0.8) {
				v = 1
			}
			fb.Execs = append(fb.Execs, policy.Exec{
				SCN: m, Task: taskIdx, Cell: cells[taskIdx],
				U: slotFB.Float64(), V: v, Q: slotFB.Uniform(0.5, 1.5),
			})
		}
		inc.Observe(view, aAssign, fb)
		naive.Observe(view, bAssign, fb)

		for m := 0; m < cfg.SCNs; m++ {
			sa, sb := inc.scns[m], naive.scns[m]
			for f := range sa.logW {
				if math.Float64bits(sa.logW[f]) != math.Float64bits(sb.logW[f]) {
					t.Fatalf("slot %d SCN %d cell %d: incremental logW %x != naive %x",
						ts, m, f, sa.logW[f], sb.logW[f])
				}
			}
			if math.Float64bits(sa.lambda1) != math.Float64bits(sb.lambda1) ||
				math.Float64bits(sa.lambda2) != math.Float64bits(sb.lambda2) {
				t.Fatalf("slot %d SCN %d: multipliers diverged (%x,%x) != (%x,%x)",
					ts, m, sa.lambda1, sa.lambda2, sb.lambda1, sb.lambda2)
			}
		}
	}
}
