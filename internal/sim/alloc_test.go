package sim

import "testing"

// TestRunSteadyStateAllocs pins the full-loop allocation budget: the
// per-slot cost of Run (generation + view building + Decide + environment
// + Observe + metrics) beyond one-time setup. The seed of this repo spent
// ~2878 allocs/slot; the pooled workload arena and the scratch-buffer
// runtime bring the steady state down to single digits (metrics growth and
// occasional arena high-water bumps). The bound is deliberately loose —
// it exists to catch a reintroduced per-task allocation (which would cost
// thousands per slot), not to freeze the exact figure.
func TestRunSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale horizons")
	}
	run := func(T int) float64 {
		sc := PaperScenario()
		sc.Cfg.T = T
		return testing.AllocsPerRun(1, func() {
			if _, err := Run(sc, LFSCFactory(nil), 42); err != nil {
				t.Fatal(err)
			}
		})
	}
	const tShort, tLong = 100, 500
	short := run(tShort)
	long := run(tLong)
	// Differencing the two horizons cancels the one-time setup allocations
	// (policy construction, arenas, series backing arrays).
	perSlot := (long - short) / float64(tLong-tShort)
	if perSlot > 64 {
		t.Fatalf("steady-state allocations: %.1f/slot (T=%d: %.0f, T=%d: %.0f), want ≤ 64",
			perSlot, tShort, short, tLong, long)
	}
}

// TestRunSteadyStateAllocsMBS extends the budget to the macrocell
// fallback extension: Run pre-allocates the MBS series (EnableMBS) before
// the loop, so RecordMBS never allocates mid-run and the steady state
// stays within the same bound as the base scenario.
func TestRunSteadyStateAllocsMBS(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale horizons")
	}
	run := func(T int) float64 {
		sc := PaperScenario()
		sc.Cfg.T = T
		sc.Cfg.MBS = &MBSConfig{Capacity: 50}
		return testing.AllocsPerRun(1, func() {
			if _, err := Run(sc, LFSCFactory(nil), 42); err != nil {
				t.Fatal(err)
			}
		})
	}
	const tShort, tLong = 100, 500
	short := run(tShort)
	long := run(tLong)
	perSlot := (long - short) / float64(tLong-tShort)
	if perSlot > 64 {
		t.Fatalf("MBS steady-state allocations: %.1f/slot (T=%d: %.0f, T=%d: %.0f), want ≤ 64",
			perSlot, tShort, short, tLong, long)
	}
}
