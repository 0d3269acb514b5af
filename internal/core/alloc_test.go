package core

import (
	"testing"

	"lfsc/internal/rng"
)

// TestDecideObserveAllocFree pins the scratch-arena contract: after the
// warm-up slots have grown every buffer to its steady-state size, the
// Decide/Observe loop performs zero heap allocations.
// This is what keeps the T × replicas × scenarios figure benchmarks off the
// allocator and the GC.
func TestDecideObserveAllocFree(t *testing.T) {
	l := MustNew(paperBenchConfig(), rng.New(1))
	view := paperBenchView(2)
	fb, _ := benchFeedback(l, view)
	// Warm up: let every arena reach its high-water mark.
	for i := 0; i < 5; i++ {
		assigned := l.Decide(view)
		l.Observe(view, assigned, fb)
	}
	avg := testing.AllocsPerRun(50, func() {
		assigned := l.Decide(view)
		l.Observe(view, assigned, fb)
	})
	if avg != 0 {
		t.Fatalf("steady-state Decide+Observe allocates %.2f times per slot, want 0", avg)
	}
}

// TestDecideAllocFreeAllModes extends the zero-alloc contract to the Race
// and Deterministic selection ablations.
func TestDecideAllocFreeAllModes(t *testing.T) {
	for _, mode := range []SelectionMode{DepRoundMode, Race, Deterministic} {
		cfg := paperBenchConfig()
		cfg.Mode = mode
		l := MustNew(cfg, rng.New(1))
		view := paperBenchView(2)
		for i := 0; i < 5; i++ {
			l.Decide(view)
		}
		avg := testing.AllocsPerRun(20, func() { l.Decide(view) })
		if avg != 0 {
			t.Fatalf("mode %v: steady-state Decide allocates %.2f times per slot, want 0", mode, avg)
		}
	}
}
