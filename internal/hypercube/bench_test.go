package hypercube

import (
	"testing"

	"lfsc/internal/rng"
	"lfsc/internal/task"
	"lfsc/internal/trace"
)

// BenchmarkHypercubeIndex measures context→cell mapping at slot granularity:
// one op indexes a full paper-scale slot (2000 contexts) through IndexAll,
// the hot path of Alg. 2 lines 1-5.
func BenchmarkHypercubeIndex(b *testing.B) {
	const numCtx = 2000
	p := MustNew(3, 3)
	r := rng.New(17)
	ctxs := make([]task.Context, numCtx)
	for i := range ctxs {
		ctxs[i] = task.Context{r.Float64(), r.Float64(), r.Float64()}
	}
	into := make([]int, numCtx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		into = p.IndexAll(ctxs, into)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*numCtx), "ns/index")
}

// paperSlotTasks is one slot of the paper's synthetic workload (30 SCNs,
// ~2000 tasks), the batch sim.Run and the serving replayer index per slot.
func paperSlotTasks(tb testing.TB) []*task.Task {
	g, err := trace.NewSynthetic(trace.DefaultSyntheticConfig(), rng.New(17))
	if err != nil {
		tb.Fatal(err)
	}
	return g.Next(0).Tasks
}

// BenchmarkIndexTask indexes one paper-scale slot task by task, as
// sim.Run's view build does; one op is the whole slot.
func BenchmarkIndexTask(b *testing.B) {
	p := MustNew(3, 3)
	tasks := paperSlotTasks(b)
	cells := make([]int, len(tasks))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, tk := range tasks {
			cells[j] = p.IndexTask(tk, false)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tasks)), "ns/index")
}

// IndexTask runs for every task of every slot, so it must stay off the
// heap in both context shapes.
func TestIndexTaskAllocFree(t *testing.T) {
	tasks := paperSlotTasks(t)
	for _, lat := range []bool{false, true} {
		p := MustNew(task.ContextDims, 3)
		if lat {
			p = MustNew(task.ContextDims+1, 3)
		}
		avg := testing.AllocsPerRun(10, func() {
			for _, tk := range tasks {
				_ = p.IndexTask(tk, lat)
			}
		})
		if avg != 0 {
			t.Fatalf("IndexTask (latency=%v) allocates %.1f objects per slot, want 0", lat, avg)
		}
	}
}
