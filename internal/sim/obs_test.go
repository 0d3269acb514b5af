package sim

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"lfsc/internal/obs"
)

// TestObsBitIdentical pins the observability layer's core contract: a run
// with the probe, registry, and snapshot sampling all enabled produces a
// reward/violation series bit-identical to the bare run of the same seed.
// Probes read clocks and copy state; they must never touch an RNG stream.
func TestObsBitIdentical(t *testing.T) {
	sc := PaperScenario()
	sc.Cfg.T = 200
	factory := LFSCFactory(nil)

	bare, err := Run(sc, factory, 42)
	if err != nil {
		t.Fatal(err)
	}

	obsSC := PaperScenario()
	obsSC.Cfg.T = 200
	ring := obs.NewSnapshotRing(16)
	obsSC.Cfg.Obs = &obs.Options{
		Probe:         obs.NewProbe(),
		Registry:      obs.NewRegistry(),
		SnapshotEvery: 25,
		SnapshotSink:  ring,
		SampleRuntime: true,
	}
	probed, err := Run(obsSC, factory, 42)
	if err != nil {
		t.Fatal(err)
	}

	for tt := 0; tt < sc.Cfg.T; tt++ {
		if bare.Reward[tt] != probed.Reward[tt] {
			t.Fatalf("slot %d: probed reward %x != bare %x", tt, probed.Reward[tt], bare.Reward[tt])
		}
		if bare.V1[tt] != probed.V1[tt] || bare.V2[tt] != probed.V2[tt] {
			t.Fatalf("slot %d: probed violations differ from bare run", tt)
		}
	}
	if len(ring.Snapshots()) != 200/25 {
		t.Fatalf("got %d snapshots, want %d", len(ring.Snapshots()), 200/25)
	}
}

// TestObsPhaseSumsCoverWallClock checks the probe's accounting: the sum of
// all phase durations must essentially be the loop's wall time (between
// half and ~105% — the loop also pays setup, clock reads, and scheduler
// noise, but nothing per-slot is outside a phase span).
func TestObsPhaseSumsCoverWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	sc := PaperScenario()
	sc.Cfg.T = 300
	probe := obs.NewProbe()
	sc.Cfg.Obs = &obs.Options{Probe: probe}
	start := time.Now()
	if _, err := Run(sc, LFSCFactory(nil), 42); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	sum := time.Duration(probe.TotalNS())
	if sum > wall+wall/20 {
		t.Fatalf("phase sum %v exceeds wall clock %v", sum, wall)
	}
	if sum < wall/2 {
		t.Fatalf("phase sum %v covers under half the wall clock %v — a probe point is missing", sum, wall)
	}
	if got := probe.Slots(); got != 300 {
		t.Fatalf("probe counted %d slots, want 300", got)
	}
	stats := probe.Stats()
	if len(stats) < 5 {
		t.Fatalf("expected all five loop phases recorded, got %+v", stats)
	}
}

// TestObsSnapshotContent runs LFSC with snapshot sampling and checks the
// sampled introspection state is shaped and bounded as documented.
func TestObsSnapshotContent(t *testing.T) {
	sc := PaperScenario()
	sc.Cfg.T = 120
	ring := obs.NewSnapshotRing(8)
	reg := obs.NewRegistry()
	sc.Cfg.Obs = &obs.Options{Registry: reg, SnapshotEvery: 40, SnapshotSink: ring}
	series, err := Run(sc, LFSCFactory(nil), 7)
	if err != nil {
		t.Fatal(err)
	}
	snaps := ring.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	part, _ := sc.Cfg.Partition()
	for _, s := range snaps {
		if s.Policy != "LFSC" {
			t.Fatalf("snapshot policy %q", s.Policy)
		}
		if len(s.Lambda1) != 30 || len(s.Lambda2) != 30 || len(s.Entropy) != 30 ||
			len(s.ExplorationMass) != 30 || len(s.CappedCells) != 30 {
			t.Fatalf("per-SCN buffers wrong length: %+v", s)
		}
		if s.Gamma <= 0 || s.Eta <= 0 || s.Delta <= 0 {
			t.Fatalf("schedule values missing: γ=%v η=%v δ=%v", s.Gamma, s.Eta, s.Delta)
		}
		for m := 0; m < 30; m++ {
			if s.Lambda1[m] < 0 || s.Lambda2[m] < 0 {
				t.Fatalf("negative multiplier at SCN %d", m)
			}
			if s.Entropy[m] < 0 || s.Entropy[m] > 1+1e-9 {
				t.Fatalf("entropy out of [0,1]: %v", s.Entropy[m])
			}
			if s.ExplorationMass[m] < 0 || s.ExplorationMass[m] > 1+1e-9 {
				t.Fatalf("exploration mass out of [0,1]: %v", s.ExplorationMass[m])
			}
			if s.CappedCells[m] < 0 || s.CappedCells[m] > part.Cells() {
				t.Fatalf("capped-cell count %d outside [0,%d]", s.CappedCells[m], part.Cells())
			}
		}
	}
	// Cumulative reward at the last snapshot (slot 119) must match the
	// series' own accumulation exactly — same additions in the same order.
	want := 0.0
	for tt := 0; tt <= snaps[2].Slot; tt++ {
		want += series.Reward[tt]
	}
	if snaps[2].CumReward != want {
		t.Fatalf("snapshot cum reward %v != series cum %v", snaps[2].CumReward, want)
	}
	// The registry saw the full run.
	runs := reg.Runs()
	if len(runs) != 1 || runs[0].Slots() != 120 || !runs[0].Done() {
		t.Fatalf("registry state: %+v", runs)
	}
	if runs[0].CumReward() != series.TotalReward() {
		t.Fatalf("registry reward %v != series total %v", runs[0].CumReward(), series.TotalReward())
	}
}

// TestObsJSONLFromRun wires a JSONL sink through a real run and re-parses
// every line.
func TestObsJSONLFromRun(t *testing.T) {
	sc := PaperScenario()
	sc.Cfg.T = 90
	var buf bytes.Buffer
	w := obs.NewJSONLWriter(&buf)
	sc.Cfg.Obs = &obs.Options{SnapshotEvery: 30, SnapshotSink: w}
	if _, err := Run(sc, LFSCFactory(nil), 3); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	n := 0
	for dec.More() {
		var ev struct {
			Type string              `json:"type"`
			Data *obs.PolicySnapshot `json:"data"`
		}
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		if ev.Type != "snapshot" || ev.Data == nil || len(ev.Data.Lambda1) != 30 {
			t.Fatalf("line %d malformed: %+v", n, ev)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("got %d snapshot lines, want 3", n)
	}
}

// TestObsNonSnapshotterPolicy: policies without introspection (the
// baselines) run fine with sampling requested — snapshots are skipped.
func TestObsNonSnapshotterPolicy(t *testing.T) {
	sc := PaperScenario()
	sc.Cfg.T = 50
	ring := obs.NewSnapshotRing(4)
	sc.Cfg.Obs = &obs.Options{SnapshotEvery: 10, SnapshotSink: ring}
	if _, err := Run(sc, RandomFactory(), 5); err != nil {
		t.Fatal(err)
	}
	if got := len(ring.Snapshots()); got != 0 {
		t.Fatalf("non-snapshotter produced %d snapshots, want 0", got)
	}
}
