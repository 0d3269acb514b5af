package sim

import (
	"fmt"
	"testing"

	"lfsc/internal/metrics"
)

// seriesFields enumerates the per-slot series of a run for bit-exact
// comparison. MBSReward is included; it is nil on both sides unless the
// scenario enables the macrocell fallback.
func seriesFields(s *metrics.Series) map[string][]float64 {
	return map[string][]float64{
		"Reward":    s.Reward,
		"V1":        s.V1,
		"V2":        s.V2,
		"Assigned":  s.Assigned,
		"Completed": s.Completed,
		"MBSReward": s.MBSReward,
	}
}

func assertSeriesEqual(t *testing.T, label string, a, b *metrics.Series) {
	t.Helper()
	fa, fb := seriesFields(a), seriesFields(b)
	for name, va := range fa {
		vb := fb[name]
		if len(va) != len(vb) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("%s: %s diverges at slot %d: %x vs %x",
					label, name, i, va[i], vb[i])
			}
		}
	}
}

// TestSharedTraceReplayBitIdentical is the correctness contract of the
// shared-trace substrate: replaying a materialized trace must be
// indistinguishable from generating the workload live inside the run. For
// every standard policy the full per-slot series (reward, violations,
// assignment and completion counts) must match bit for bit, because the
// trace is a pure function of (scenario, seed) and the replay hands the
// policies the exact same slots in the exact same order.
func TestSharedTraceReplayBitIdentical(t *testing.T) {
	const seed = 42
	factories := StandardFactories()

	live := PaperScenario()
	live.Cfg.T = 80

	replay := PaperScenario()
	replay.Cfg.T = 80
	shared, err := NewSharedTrace(replay, seed, len(factories))
	if err != nil {
		t.Fatal(err)
	}
	replay.Shared = shared

	for fi, f := range factories {
		a, err := Run(live, f, seed)
		if err != nil {
			t.Fatalf("live run %d: %v", fi, err)
		}
		b, err := Run(replay, f, seed)
		if err != nil {
			t.Fatalf("replay run %d: %v", fi, err)
		}
		if a.Policy != b.Policy {
			t.Fatalf("policy name mismatch: %q vs %q", a.Policy, b.Policy)
		}
		assertSeriesEqual(t, fmt.Sprintf("policy %s", a.Policy), a, b)
	}
}

// TestSharedTraceSeedMismatchFallsBack pins the fallback contract: a
// Shared trace whose seed differs from the run's seed is ignored and the
// run regenerates the workload live — results must equal a run with no
// shared trace at all.
func TestSharedTraceSeedMismatchFallsBack(t *testing.T) {
	plain := PaperScenario()
	plain.Cfg.T = 40

	mismatched := PaperScenario()
	mismatched.Cfg.T = 40
	shared, err := NewSharedTrace(mismatched, 7, 2)
	if err != nil {
		t.Fatal(err)
	}
	mismatched.Shared = shared

	a, err := Run(plain, LFSCFactory(nil), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mismatched, LFSCFactory(nil), 42)
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, "seed-mismatch fallback", a, b)
}

// TestRunAllSharedReplayConcurrent drives the concurrent replay path:
// RunAll materializes one SharedTrace and several worker goroutines read
// it simultaneously, each at its own position. Results must be
// bit-identical to fully serial runs with live generation — and running
// this test under -race (make test-race / make ci) proves the chunked
// replay window is properly synchronized.
func TestRunAllSharedReplayConcurrent(t *testing.T) {
	const seed = 42
	factories := StandardFactories()
	sc := PaperScenario()
	sc.Cfg.T = 60

	parallelSeries, err := RunAll(sc, factories, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallelSeries) != len(factories) {
		t.Fatalf("got %d series, want %d", len(parallelSeries), len(factories))
	}
	for fi, f := range factories {
		ref, err := Run(PaperScenarioWithT(60), f, seed)
		if err != nil {
			t.Fatalf("serial run %d: %v", fi, err)
		}
		assertSeriesEqual(t, fmt.Sprintf("RunAll[%s]", ref.Policy), ref, parallelSeries[fi])
	}
}

// TestRunAllEagerSharedTraceConcurrent runs two LFSC passes concurrently
// over one eager shared trace, the path that replays pre-realised
// outcomes. Under -race it catches any per-run state kept at package
// level; both passes must still match a serial live run bit for bit.
func TestRunAllEagerSharedTraceConcurrent(t *testing.T) {
	const seed = 42
	sc := PaperScenarioWithT(20)
	shared, err := NewSharedTraceEager(sc, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc.Shared = shared
	factories := []Factory{LFSCFactory(nil), LFSCFactory(nil)}
	got, err := RunAll(sc, factories, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(PaperScenarioWithT(20), LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range got {
		assertSeriesEqual(t, fmt.Sprintf("eager RunAll[%d]", i), ref, s)
	}
}

// PaperScenarioWithT is a test helper: the paper scenario truncated to T
// slots with no shared trace installed.
func PaperScenarioWithT(T int) *Scenario {
	sc := PaperScenario()
	sc.Cfg.T = T
	return sc
}
