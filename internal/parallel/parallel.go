// Package parallel provides the repository's one fan-out loop, ForDynamic.
// It runs independent whole runs: the policies of sim.RunAll and the
// seeds of sim.RunReplicas. Nothing inside a slot fans out: the LFSC
// learner is serial, and the serving engine runs its shards' legs one
// after another on the slot's goroutine. The loop is
// stdlib-only (sync + runtime) and deterministic in its results:
// parallelism never changes *what* is computed, only *when* — callers
// give each index its own state and RNG stream (rng.Stream.Derive), so
// output is independent of scheduling.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// panicBox captures the first panic raised inside a worker goroutine so
// the coordinating goroutine can re-raise it after Wait — a panic in a
// loop body then unwinds the caller instead of crashing the process from
// an unrelated goroutine.
type panicBox struct {
	val  atomic.Pointer[panicValue]
	once sync.Once
}

type panicValue struct{ v any }

// guard runs fn(i), recording a panic instead of letting it escape the
// worker goroutine.
func (p *panicBox) guard(fn func(int), i int) {
	defer func() {
		if r := recover(); r != nil {
			p.once.Do(func() { p.val.Store(&panicValue{v: r}) })
		}
	}()
	fn(i)
}

// rethrow re-raises the recorded panic, if any, on the caller.
func (p *panicBox) rethrow() {
	if pv := p.val.Load(); pv != nil {
		panic(pv.v)
	}
}

// DefaultWorkers returns the default worker count: GOMAXPROCS clamped to at
// least 1.
func DefaultWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	return n
}

// ForDynamic runs fn(i) for each i in [0,n) with dynamic (work-stealing-ish)
// scheduling: workers pull the next index from a shared counter. Use it when
// iteration costs are highly uneven, e.g. simulation replicas with different
// horizons. With two or more workers, every index still runs exactly once
// even when some panic; the first panic propagates to the caller after all
// workers have stopped. With one worker (workers == 1, or a default or an n
// that clamps it to 1) the loop runs inline on the caller, and a panic
// propagates at once: the indices after it do not run.
func ForDynamic(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var mu sync.Mutex
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= int64(n) {
			return 0, false
		}
		i := int(next)
		next++
		return i, true
	}
	var pb panicBox
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				pb.guard(fn, i)
			}
		}()
	}
	wg.Wait()
	pb.rethrow()
}
