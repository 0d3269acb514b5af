package core

import (
	"math"
	"testing"

	"lfsc/internal/obs"
	"lfsc/internal/rng"
)

// TestSnapshotMatchesAccessors: the bulk Snapshot must agree with the
// existing one-SCN accessors (Multipliers, Schedule) and produce bounded
// derived quantities.
func TestSnapshotMatchesAccessors(t *testing.T) {
	cfg := paperBenchConfig()
	l := MustNew(cfg, rng.New(1))
	view := paperBenchView(2)
	fb, _ := benchFeedback(l, view)
	for i := 0; i < 20; i++ {
		assigned := l.Decide(view)
		l.Observe(view, assigned, fb)
	}

	var snap obs.PolicySnapshot
	l.Snapshot(&snap)
	if snap.Policy != "LFSC" {
		t.Fatalf("policy name %q", snap.Policy)
	}
	g, e, d := cfg.Schedule()
	if snap.Gamma != g || snap.Eta != e || snap.Delta != d {
		t.Fatalf("schedule (%v,%v,%v) != config schedule (%v,%v,%v)",
			snap.Gamma, snap.Eta, snap.Delta, g, e, d)
	}
	if len(snap.Lambda1) != cfg.SCNs {
		t.Fatalf("lambda1 length %d, want %d", len(snap.Lambda1), cfg.SCNs)
	}
	for m := 0; m < cfg.SCNs; m++ {
		l1, l2 := l.Multipliers(m)
		if snap.Lambda1[m] != l1 || snap.Lambda2[m] != l2 {
			t.Fatalf("SCN %d multipliers (%v,%v) != accessors (%v,%v)",
				m, snap.Lambda1[m], snap.Lambda2[m], l1, l2)
		}
		if snap.Entropy[m] < 0 || snap.Entropy[m] > 1+1e-12 {
			t.Fatalf("SCN %d entropy %v outside [0,1]", m, snap.Entropy[m])
		}
		if snap.ExplorationMass[m] < 0 || snap.ExplorationMass[m] > 1+1e-12 {
			t.Fatalf("SCN %d exploration mass %v outside [0,1]", m, snap.ExplorationMass[m])
		}
		if snap.CappedCells[m] < 0 || snap.CappedCells[m] > cfg.Cells {
			t.Fatalf("SCN %d capped count %d outside [0,%d]", m, snap.CappedCells[m], cfg.Cells)
		}
	}
}

// TestSnapshotAllocFree: after the first call has grown the buffers,
// repeated sampling into the same snapshot performs no heap allocations —
// the sampling loop must not disturb the run's allocation profile.
func TestSnapshotAllocFree(t *testing.T) {
	l := MustNew(paperBenchConfig(), rng.New(1))
	view := paperBenchView(2)
	l.Decide(view)
	var snap obs.PolicySnapshot
	l.Snapshot(&snap)
	avg := testing.AllocsPerRun(20, func() { l.Snapshot(&snap) })
	if avg != 0 {
		t.Fatalf("Snapshot allocates %.2f times per call after warm-up, want 0", avg)
	}
}

// TestWeightEntropy exercises the entropy/exploration-mass kernel on
// known distributions.
func TestWeightEntropy(t *testing.T) {
	// Uniform weights: entropy 1, and no cell is strictly below 1/F.
	h, low := weightEntropy(make([]float64, 8))
	if math.Abs(h-1) > 1e-12 {
		t.Fatalf("uniform entropy %v, want 1", h)
	}
	if low != 0 {
		t.Fatalf("uniform low mass %v, want 0", low)
	}
	// One dominant cell: entropy near 0, the rest of the mass below 1/F.
	w := make([]float64, 8)
	w[3] = 200
	h, low = weightEntropy(w)
	if h > 1e-6 {
		t.Fatalf("collapsed entropy %v, want ~0", h)
	}
	if low > 1e-6 {
		t.Fatalf("collapsed low mass %v, want ~0 (tail underflows)", low)
	}
	// Two-level distribution: entropy strictly between, low mass positive.
	w = []float64{2, 2, 0, 0}
	h, low = weightEntropy(w)
	if h <= 0 || h >= 1 {
		t.Fatalf("two-level entropy %v, want in (0,1)", h)
	}
	if low <= 0 || low >= 0.5 {
		t.Fatalf("two-level low mass %v, want in (0,0.5)", low)
	}
	// Degenerate sizes.
	if h, low = weightEntropy(nil); h != 0 || low != 0 {
		t.Fatal("nil weights must report zeroes")
	}
	if h, low = weightEntropy([]float64{5}); h != 0 || low != 0 {
		t.Fatal("single cell must report zeroes")
	}
}
