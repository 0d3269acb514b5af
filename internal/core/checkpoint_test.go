package core

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"lfsc/internal/policy"
	"lfsc/internal/rng"
)

// save encodes the full document of the learners' state, as a serving
// checkpoint embeds it.
func save(w io.Writer, learners ...*LFSC) error {
	var cp Checkpoint
	if err := cp.Gather(learners...); err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(&cp)
}

func trainedLFSC(t *testing.T, seed uint64) *LFSC {
	t.Helper()
	cfg := testConfig()
	l := MustNew(cfg, rng.New(seed))
	r := rng.New(seed + 1)
	truth := map[int][3]float64{
		0: {0.9, 0.9, 1.1}, 1: {0.2, 0.4, 1.8},
		2: {0.6, 0.7, 1.3}, 3: {0.4, 0.2, 1.9},
	}
	for t0 := 0; t0 < 100; t0++ {
		view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		runSlot(l, view, truth, r)
	}
	return l
}

func TestCheckpointRoundTrip(t *testing.T) {
	l := trainedLFSC(t, 30)
	var buf bytes.Buffer
	if err := save(&buf, l); err != nil {
		t.Fatal(err)
	}
	fresh := MustNew(testConfig(), rng.New(31))
	if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < testConfig().SCNs; m++ {
		wa, wb := l.Weights(m), fresh.Weights(m)
		for f := range wa {
			if wa[f] != wb[f] {
				t.Fatalf("weight [%d][%d] differs after restore", m, f)
			}
		}
		la1, la2 := l.Multipliers(m)
		lb1, lb2 := fresh.Multipliers(m)
		if la1 != lb1 || la2 != lb2 {
			t.Fatalf("multipliers differ after restore")
		}
	}
}

func TestCheckpointRestoredPolicyBehavesIdentically(t *testing.T) {
	l := trainedLFSC(t, 32)
	var buf bytes.Buffer
	if err := save(&buf, l); err != nil {
		t.Fatal(err)
	}
	// Restore into a policy with the SAME RNG seed as a copy of l would
	// have; decisions must coincide when the streams coincide.
	a := MustNew(testConfig(), rng.New(77))
	b := MustNew(testConfig(), rng.New(77))
	if err := a.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := b.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	view := makeView(0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
	da, db := a.Decide(view), b.Decide(view)
	for i := range da {
		if da[i] != db[i] {
			t.Fatal("restored twins diverged")
		}
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	l := trainedLFSC(t, 33)
	var buf bytes.Buffer
	if err := save(&buf, l); err != nil {
		t.Fatal(err)
	}
	other := testConfig()
	other.SCNs = 3
	wrong := MustNew(other, rng.New(1))
	if err := wrong.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestCheckpointRejectsCorrupt offers an untrained learner documents that
// fail the decode, version, array-length, weight-count and multiplier
// checks; each must be refused with the error of the check it targets,
// and none may touch the weights.
func TestCheckpointRejectsCorrupt(t *testing.T) {
	l := MustNew(testConfig(), rng.New(34))
	cases := []struct{ doc, err string }{
		{"not json", "decode"},
		{`{"version":99}`, "version 99"},
		{`{"version":2,"scns":2,"cells":4,"t":5,"log_weights":[[1,2,3,4]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`, "arrays inconsistent"},
		{`{"version":2,"scns":2,"cells":4,"t":5,"log_weights":[[1,2,3],[1,2,3,4]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`, "has 3 weights"},
		{`{"version":2,"scns":2,"cells":4,"t":5,"log_weights":[[1,2,3,4],[1,2,3,4]],"lambda1":[-1,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`, "invalid multipliers"},
	}
	for i, c := range cases {
		if err := l.Load(strings.NewReader(c.doc)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("corrupt checkpoint %d: error %v, want one containing %q", i, err, c.err)
		}
	}
	// Failed loads must not partially mutate state.
	w := l.Weights(0)
	for _, v := range w {
		if v != 0 {
			t.Fatal("failed load mutated weights")
		}
	}
}

// TestCheckpointRejectsCorruptV2 offers a trained learner v2 documents
// that fail the slot-counter, RNG and decode checks; each must be refused
// with the error of the check it targets and leave the learner as it was.
func TestCheckpointRejectsCorruptV2(t *testing.T) {
	l := trainedLFSC(t, 35)
	before := snapshotState(l)
	cases := []struct{ name, doc, err string }{
		{"negative slot counter",
			`{"version":2,"scns":2,"cells":4,"t":-1,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`,
			"negative slot counter"},
		{"missing RNG states",
			`{"version":2,"scns":2,"cells":4,"t":5,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0]}`,
			"0 RNG states"},
		{"wrong RNG state count",
			`{"version":2,"scns":2,"cells":4,"t":5,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5]]}`,
			"1 RNG states"},
		// A structurally impossible stream state.
		{"even PCG increment",
			`{"version":2,"scns":2,"cells":4,"t":5,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[1,2,5]]}`,
			"even increment"},
		{"out-of-range float literal",
			`{"version":2,"scns":2,"cells":4,"t":5,"log_weights":[[1e999,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`,
			"decode"},
		{"truncated mid-object", `{"version":2,"scns":2,`, "decode"},
	}
	for _, c := range cases {
		if err := l.Load(strings.NewReader(c.doc)); err == nil || !strings.Contains(err.Error(), c.err) {
			t.Fatalf("%s: error %v, want one containing %q", c.name, err, c.err)
		}
		if !statesEqual(before, snapshotState(l)) {
			t.Fatalf("%s: refused checkpoint partially mutated policy state", c.name)
		}
	}
}

// snapshotState captures every externally observable piece of learner
// state touched by Load, for no-partial-mutation assertions.
type lfscState struct {
	weights [][]float64
	lambda1 []float64
	lambda2 []float64
	slots   int
}

func snapshotState(l *LFSC) lfscState {
	var s lfscState
	for m := 0; m < l.cfg.SCNs; m++ {
		s.weights = append(s.weights, append([]float64(nil), l.Weights(m)...))
		l1, l2 := l.Multipliers(m)
		s.lambda1 = append(s.lambda1, l1)
		s.lambda2 = append(s.lambda2, l2)
	}
	s.slots = l.SlotsSeen()
	return s
}

func statesEqual(a, b lfscState) bool {
	if a.slots != b.slots || len(a.weights) != len(b.weights) {
		return false
	}
	for m := range a.weights {
		if a.lambda1[m] != b.lambda1[m] || a.lambda2[m] != b.lambda2[m] {
			return false
		}
		for f := range a.weights[m] {
			if a.weights[m][f] != b.weights[m][f] {
				return false
			}
		}
	}
	return true
}

func TestCheckpointCarriesSlotCounter(t *testing.T) {
	l := trainedLFSC(t, 36)
	if got := l.SlotsSeen(); got != 100 {
		t.Fatalf("trained learner saw %d slots, want 100", got)
	}
	var buf bytes.Buffer
	if err := save(&buf, l); err != nil {
		t.Fatal(err)
	}
	fresh := MustNew(testConfig(), rng.New(999))
	if err := fresh.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.SlotsSeen(); got != 100 {
		t.Fatalf("restored learner reports %d slots, want 100", got)
	}
}

// TestCheckpointRefusesV1 offers a trained learner the v1 shape of a
// genuine checkpoint — the same learned state without the slot counter
// and the RNG streams, which a resumed run cannot do without. Load must
// refuse it on its version and leave the learner exactly as it was.
func TestCheckpointRefusesV1(t *testing.T) {
	var buf bytes.Buffer
	if err := save(&buf, trainedLFSC(t, 37)); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = 1
	delete(m, "t")
	delete(m, "rng")
	v1, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	target := trainedLFSC(t, 38)
	before := snapshotState(target)
	if err := target.Load(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("v1 checkpoint: error %v, want a version refusal", err)
	}
	if !statesEqual(before, snapshotState(target)) {
		t.Fatal("refused v1 checkpoint mutated the learner")
	}
}

// TestCheckpointSerializesOnlyLearnedState pins the checkpoint surface:
// the incremental engine carries derived caches in scnState (per-cell
// census, probability cache, the persistent cap order) that are rebuilt
// from logW on the first Decide after Load and must NEVER travel through a
// checkpoint — a new serialized key here is a format change that breaks
// pre-PR artifacts.
func TestCheckpointSerializesOnlyLearnedState(t *testing.T) {
	l := trainedLFSC(t, 50)
	var buf bytes.Buffer
	if err := save(&buf, l); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		"version": true, "scns": true, "cells": true, "t": true,
		"log_weights": true, "lambda1": true, "lambda2": true, "rng": true,
	}
	for k := range keys {
		if !allowed[k] {
			t.Fatalf("checkpoint serialized unexpected key %q — derived caches must be rebuilt on Load, not stored", k)
		}
	}
}

// preIncrementalV2Checkpoint is a v2 checkpoint literal exactly as the
// engine before the incremental-maintenance rebuild wrote it (same format:
// learned state only). Shape matches testConfig (2 SCNs × 4 cells); the
// RNG triples are structurally valid PCG states (odd increments).
const preIncrementalV2Checkpoint = `{
  "version": 2, "scns": 2, "cells": 4, "t": 57,
  "log_weights": [[0.25, -1.5, 3.0, 0.125], [1.0, 0.5, -0.75, 2.25]],
  "lambda1": [0.1, 0],
  "lambda2": [0, 0.2],
  "rng": [[81985529216486895, 1442695040888963407, 42], [12345678901234567, 99, 7]]
}`

// TestCheckpointPreIncrementalV2Restores guards backward compatibility:
// a checkpoint written before this PR (no cache fields whatsoever) must
// restore into the incremental engine and immediately decide slots — the
// census, probability cache, and persistent cap order are rebuilt from the
// restored logW on the next Decide.
func TestCheckpointPreIncrementalV2Restores(t *testing.T) {
	l := MustNew(testConfig(), rng.New(51))
	// Dirty the engine's caches first so the restore cannot lean on
	// fresh-constructed state.
	r := rng.New(52)
	truth := map[int][3]float64{0: {0.9, 0.9, 1.1}, 1: {0.2, 0.4, 1.8}, 2: {0.6, 0.7, 1.3}, 3: {0.4, 0.2, 1.9}}
	for t0 := 0; t0 < 20; t0++ {
		runSlot(l, makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}}), truth, r)
	}
	if err := l.Load(strings.NewReader(preIncrementalV2Checkpoint)); err != nil {
		t.Fatalf("pre-incremental v2 checkpoint rejected: %v", err)
	}
	if got := l.SlotsSeen(); got != 57 {
		t.Fatalf("restored slot counter %d, want 57", got)
	}
	wantW := [][]float64{{0.25, -1.5, 3.0, 0.125}, {1.0, 0.5, -0.75, 2.25}}
	for m := range wantW {
		got := l.Weights(m)
		for f := range wantW[m] {
			if got[f] != wantW[m][f] {
				t.Fatalf("restored weight [%d][%d] = %x, want %x", m, f, got[f], wantW[m][f])
			}
		}
	}
	// The engine must be immediately usable: a post-restore slot exercises
	// the cache rebuild (census, cap order repair, probabilities).
	view := makeView(57, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
	assigned := runSlot(l, view, truth, r)
	if err := policy.ValidateAssignment(view, assigned, testConfig().Capacity); err != nil {
		t.Fatalf("post-restore decision invalid: %v", err)
	}
}

// driftTruth is a time-varying outcome table: utilities, completion
// probabilities, and costs oscillate slowly so the learner keeps
// re-weighting throughout the run (the "reward drift" regime).
func driftTruth(t0 int) map[int][3]float64 {
	s := 0.5 + 0.4*math.Sin(float64(t0)/17)
	return map[int][3]float64{
		0: {0.9 * s, 0.9, 1.1},
		1: {0.2 + 0.3*s, 0.4, 1.8},
		2: {0.6, 0.5 + 0.4*s, 1.3},
		3: {0.4, 0.2, 1.2 + 0.5*s},
	}
}

// TestCheckpointResumeBitIdenticalUnderDrift is the core determinism
// guarantee the serving daemon's kill-and-resume rests on: checkpoint at slot
// 100, restore into a learner constructed with a DIFFERENT seed, and the
// twin must replay slots 100..159 with the exact same decisions, weights,
// and multipliers as the original that never stopped — under drifting
// rewards, so any state the checkpoint failed to carry would diverge.
func TestCheckpointResumeBitIdenticalUnderDrift(t *testing.T) {
	cfg := testConfig()
	l := MustNew(cfg, rng.New(40))
	fbRoot := rng.New(41)
	var slotR rng.Stream
	slot := func(p *LFSC, t0 int) []int {
		view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		fbRoot.DeriveInto(uint64(t0), &slotR)
		return runSlot(p, view, driftTruth(t0), &slotR)
	}
	for t0 := 0; t0 < 100; t0++ {
		slot(l, t0)
	}
	var buf bytes.Buffer
	if err := save(&buf, l); err != nil {
		t.Fatal(err)
	}

	twin := MustNew(cfg, rng.New(9999))
	if err := twin.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := twin.SlotsSeen(); got != 100 {
		t.Fatalf("twin resumed at slot %d, want 100", got)
	}

	for t0 := 100; t0 < 160; t0++ {
		da := slot(l, t0)
		db := slot(twin, t0)
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("slot %d: decision for task %d diverged (%d vs %d)",
					t0, i, da[i], db[i])
			}
		}
	}
	for m := 0; m < cfg.SCNs; m++ {
		wa, wb := l.Weights(m), twin.Weights(m)
		for f := range wa {
			if wa[f] != wb[f] {
				t.Fatalf("weight [%d][%d] diverged after resume: %x vs %x",
					m, f, wa[f], wb[f])
			}
		}
		la1, la2 := l.Multipliers(m)
		lb1, lb2 := twin.Multipliers(m)
		if la1 != lb1 || la2 != lb2 {
			t.Fatalf("multipliers for SCN %d diverged after resume", m)
		}
	}
	if l.SlotsSeen() != twin.SlotsSeen() {
		t.Fatalf("slot counters diverged: %d vs %d", l.SlotsSeen(), twin.SlotsSeen())
	}
}

// TestCheckpointRestoreIntoDirtyEngineBitIdentical is the incremental-state
// variant of the resume guarantee: the engine receiving the checkpoint has
// already processed a completely different workload, so its derived caches
// — the cell census, probability cache, and in particular the persistent
// logW-sorted cap order — all reflect the WRONG history at Load time.
// Restore must still produce a continuation bit-identical to the original
// learner that never stopped: Load resets the per-slot caches and the next
// Decide's insertion repair absorbs the stale cap order from the restored
// logW alone.
func TestCheckpointRestoreIntoDirtyEngineBitIdentical(t *testing.T) {
	cfg := testConfig()
	l := MustNew(cfg, rng.New(60))
	fbRoot := rng.New(61)
	var slotR rng.Stream
	slot := func(p *LFSC, t0 int) []int {
		view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		fbRoot.DeriveInto(uint64(t0), &slotR)
		return runSlot(p, view, driftTruth(t0), &slotR)
	}
	for t0 := 0; t0 < 100; t0++ {
		slot(l, t0)
	}
	var buf bytes.Buffer
	if err := save(&buf, l); err != nil {
		t.Fatal(err)
	}

	// The dirty twin learns 70 slots of an unrelated workload (different
	// views, different outcomes, different RNG) before the restore, so its
	// weights — and the cap order sorted from them — diverge maximally.
	dirty := MustNew(cfg, rng.New(4242))
	otherR := rng.New(4243)
	otherTruth := map[int][3]float64{0: {0.1, 0.3, 1.9}, 1: {0.95, 0.9, 1.05}, 2: {0.3, 0.2, 1.7}, 3: {0.7, 0.8, 1.2}}
	for t0 := 0; t0 < 70; t0++ {
		runSlot(dirty, makeView(t0, [][]int{{3, 2, 1, 0, 3, 2, 1}, {1, 0, 3, 2}}), otherTruth, otherR)
	}
	if err := dirty.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	for t0 := 100; t0 < 160; t0++ {
		da := slot(l, t0)
		db := slot(dirty, t0)
		for i := range da {
			if da[i] != db[i] {
				t.Fatalf("slot %d: dirty-restored decision for task %d diverged (%d vs %d)",
					t0, i, da[i], db[i])
			}
		}
	}
	for m := 0; m < cfg.SCNs; m++ {
		wa, wb := l.Weights(m), dirty.Weights(m)
		for f := range wa {
			if math.Float64bits(wa[f]) != math.Float64bits(wb[f]) {
				t.Fatalf("weight [%d][%d] diverged after dirty restore: %x vs %x",
					m, f, wa[f], wb[f])
			}
		}
		la1, la2 := l.Multipliers(m)
		lb1, lb2 := dirty.Multipliers(m)
		if math.Float64bits(la1) != math.Float64bits(lb1) ||
			math.Float64bits(la2) != math.Float64bits(lb2) {
			t.Fatalf("multipliers for SCN %d diverged after dirty restore", m)
		}
	}
}
