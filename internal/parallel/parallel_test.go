package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForDynamicCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		const n = 500
		var seen [n]int32
		ForDynamic(n, workers, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("workers=%d index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForDynamicFewerItemsThanWorkers(t *testing.T) {
	// n < workers must clamp, run every index exactly once, and not leak
	// idle goroutines that touch the counter after return.
	for _, n := range []int{1, 2, 3} {
		var seen [3]int32
		ForDynamic(n, 16, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i := 0; i < n; i++ {
			if seen[i] != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, seen[i])
			}
		}
		for i := n; i < len(seen); i++ {
			if seen[i] != 0 {
				t.Fatalf("n=%d out-of-range index %d visited", n, i)
			}
		}
	}
}

func TestForDynamicZeroItems(t *testing.T) {
	ForDynamic(0, 8, func(int) { t.Fatal("should not run") })
	ForDynamic(-3, 8, func(int) { t.Fatal("should not run") })
}

// panics reports the recovered value of f, or nil if it returned.
func panics(f func()) (val any) {
	defer func() { val = recover() }()
	f()
	return nil
}

func TestForDynamicPanicPropagates(t *testing.T) {
	// Single worker (inline path) and multi-worker must both surface the
	// panic on the caller, and the remaining indices must still complete
	// so shared state is never left half-processed.
	for _, workers := range []int{1, 4} {
		const n = 100
		var ran int32
		got := panics(func() {
			ForDynamic(n, workers, func(i int) {
				if i == 13 {
					panic("boom 13")
				}
				atomic.AddInt32(&ran, 1)
			})
		})
		if got != "boom 13" {
			t.Fatalf("workers=%d: panic not propagated, recovered %v", workers, got)
		}
		if workers > 1 && atomic.LoadInt32(&ran) != n-1 {
			t.Fatalf("workers=%d: %d of %d non-panicking indices ran", workers, ran, n-1)
		}
	}
}

func TestForDynamicFirstPanicWins(t *testing.T) {
	// Several workers panicking concurrently: exactly one value surfaces
	// and the call still returns (no deadlock, no goroutine crash).
	got := panics(func() {
		ForDynamic(64, 8, func(i int) { panic(i) })
	})
	if _, ok := got.(int); !ok {
		t.Fatalf("recovered %T %v, want an index", got, got)
	}
}

func TestDefaultWorkersPositive(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers < 1")
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ForDynamic(64, 4, func(int) {})
	}
}
