//go:build unix

package serve

import (
	"fmt"
	"syscall"
	"testing"
	"time"
)

// BenchmarkShardedStep is the shard plane's paper-scale figure: one
// lockstep slot of the paper's Sec. 5 shape (~2000 tasks, 30 SCNs)
// through Engine.StepInto, in process, at Shards 1, 2 and 4. Task cohorts
// are generated before the clock starts and replayed in turn, so trace
// generation stays out of the figure; each step reports outcomes for the
// previous slot's assigned tasks. Beside ns/op and allocs/op it reports
// cpu-ns/op, the process's user and system CPU time per step (getrusage),
// which counts every goroutine a step keeps busy, not only the caller's.
func BenchmarkShardedStep(b *testing.B) {
	sc := paperScenario(1<<20, 42)
	cohorts := stepCohorts(b, sc)
	for _, shards := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			cfg, err := sc.EngineConfig()
			if err != nil {
				b.Fatal(err)
			}
			cfg.ReportWait = time.Hour
			cfg.Shards = shards
			eng, err := NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			eng.Start()
			defer eng.Stop()

			var req StepRequest
			var resp StepResponse
			var reports []TaskReport
			step := func(i int) {
				req = StepRequest{Slot: resp.Slot, Reports: reports, Tasks: cohorts[i%len(cohorts)], Close: true}
				if err := eng.StepInto(&req, &resp); err != nil {
					b.Fatal(err)
				}
				reports = reports[:0]
				for idx, m := range resp.Assigned {
					if m >= 0 {
						reports = append(reports, TaskReport{Task: idx, U: 0.5, V: 1, Q: 1.5})
					}
				}
			}
			for i := range 50 {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			cpu0 := cpuTime(b)
			for i := 0; i < b.N; i++ {
				step(i)
			}
			cpu := cpuTime(b) - cpu0
			b.StopTimer()
			b.ReportMetric(float64(cpu.Nanoseconds())/float64(b.N), "cpu-ns/op")
		})
	}
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
