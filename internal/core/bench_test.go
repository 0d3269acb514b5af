package core

import (
	"testing"

	"lfsc/internal/env"
	"lfsc/internal/hypercube"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/task"
	"lfsc/internal/trace"
)

// paperBenchConfig is the Sec. 5 evaluation shape: 30 SCNs, c=20, 27 cells,
// |D_{m,t}| ∈ [35,100].
func paperBenchConfig() Config {
	return Config{
		SCNs: 30, Capacity: 20, Alpha: 15, Beta: 27,
		Cells: 27, KMax: 200, Horizon: 10000,
	}
}

// paperBenchView builds one paper-scale slot view.
func paperBenchView(seed uint64) *policy.SlotView {
	r := rng.New(seed)
	cells := make([][]int, 30)
	for m := range cells {
		n := 35 + r.Intn(66)
		cells[m] = make([]int, n)
		for i := range cells[m] {
			cells[m][i] = r.Intn(27)
		}
	}
	return makeView(0, cells)
}

// benchFeedback replays Decide once and synthesises the execution feedback
// the simulator would deliver for the resulting assignment.
func benchFeedback(l *LFSC, view *policy.SlotView) (*policy.Feedback, []int) {
	assigned := l.Decide(view)
	r := rng.New(7)
	fb := &policy.Feedback{}
	for taskIdx, m := range assigned {
		if m < 0 {
			continue
		}
		cell := view.Cells[taskIdx]
		v := 0.0
		if r.Bernoulli(0.7) {
			v = 1
		}
		fb.Execs = append(fb.Execs, policy.Exec{
			SCN: m, Task: taskIdx, Cell: cell,
			U: r.Float64(), V: v, Q: r.Uniform(1, 2),
		})
	}
	return fb, assigned
}

// BenchmarkDecide times steady-state Decide at paper scale (one op = one
// slot, so ns/op is ns/slot). Steady state must be allocation-free — 0
// allocs/op is an acceptance criterion tracked by BENCH_core.json.
func BenchmarkDecide(b *testing.B) {
	l := MustNew(paperBenchConfig(), rng.New(1))
	view := paperBenchView(2)
	l.Decide(view) // warm up the scratch arenas
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Decide(view)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
}

// warmedPaperLearner runs a paper-scale learner through warm realistic
// slots and returns it with the next slot's view. Each slot comes from the
// paper's synthetic workload (30 SCNs, |D| ~ U[35,100]), its cells from
// the 3×3×3 context partition, and the feedback for every assigned task
// from the default environment — the same pieces sim.Run composes, so the
// weights end skewed and capped the way a live run's are. A fresh
// learner's weights are uniform and never capped.
func warmedPaperLearner(tb testing.TB, warm int) (*LFSC, *policy.SlotView) {
	gen, err := trace.NewSynthetic(trace.DefaultSyntheticConfig(), rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	part := hypercube.MustNew(task.ContextDims, 3)
	en := env.MustNew(env.DefaultConfig(gen.SCNs(), part.Cells()), rng.New(2))
	cfg := paperBenchConfig()
	cfg.KMax = gen.MaxPerSCN()
	l := MustNew(cfg, rng.New(3))
	fbR := rng.New(4)
	fb := &policy.Feedback{}
	for t := 0; ; t++ {
		slot := gen.Next(t)
		view := &policy.SlotView{T: t, NumTasks: len(slot.Tasks)}
		for _, tk := range slot.Tasks {
			view.Cells = append(view.Cells, part.IndexTask(tk, false))
		}
		for _, cov := range slot.Coverage {
			view.SCNs = append(view.SCNs, policy.SCNView{Cover: cov})
		}
		if t == warm {
			return l, view
		}
		en.Advance(t)
		assigned := l.Decide(view)
		fb.Execs = fb.Execs[:0]
		for i, m := range assigned {
			if m < 0 {
				continue
			}
			o := en.Draw(m, view.Cells[i], fbR)
			fb.Execs = append(fb.Execs, policy.Exec{
				SCN: m, Task: i, Cell: view.Cells[i], U: o.U, V: o.V(), Q: o.Q,
			})
		}
		l.Observe(view, assigned, fb)
	}
}

// BenchmarkDecideLearned times steady-state Decide on a learner warmed
// through 3,000 realistic slots: skewed weights, capped cells and the
// exploration floor, where BenchmarkDecide's fresh learner is uniform. It
// must be allocation-free too.
func BenchmarkDecideLearned(b *testing.B) {
	l, view := warmedPaperLearner(b, 3000)
	l.Decide(view) // grow the scratch arenas to this view
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Decide(view)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
}

// BenchmarkUpdate times steady-state Observe (Alg. 3) at paper scale; it
// must be allocation-free. Each Observe consumes the scratch of a Decide,
// so the paired Decide runs with the timer stopped.
func BenchmarkUpdate(b *testing.B) {
	l := MustNew(paperBenchConfig(), rng.New(1))
	view := paperBenchView(2)
	fb, assigned := benchFeedback(l, view)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l.Decide(view)
		b.StartTimer()
		l.Observe(view, assigned, fb)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
}

// BenchmarkDecideObserve measures a full policy slot (Decide + Observe),
// the quantity every figure benchmark multiplies by T × replicas.
func BenchmarkDecideObserve(b *testing.B) {
	l := MustNew(paperBenchConfig(), rng.New(1))
	view := paperBenchView(2)
	fb, _ := benchFeedback(l, view)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assigned := l.Decide(view)
		l.Observe(view, assigned, fb)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/slot")
}
