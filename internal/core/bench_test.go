package core

import (
	"testing"

	"lfsc/internal/policy"
	"lfsc/internal/rng"
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
