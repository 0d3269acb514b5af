package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// checkpointVersion guards the on-disk format. v2 carries, beside the
// log-weights and Lagrange multipliers, the slot counter t (so the γ/η/δ
// schedule and the learner's slot clock resume where they left off) and
// the per-SCN RNG stream states (so the DepRound candidate sampling of a
// resumed run is bit-identical to a run that never stopped). Load refuses
// every other version, v1 (weights and multipliers only) included.
const checkpointVersion = 2

// Checkpoint is one learner document, the JSON Gather builds and Load
// reads. Only the learned quantities are stored; the configuration travels
// separately (a checkpoint can only be restored into a policy with a
// compatible shape).
type Checkpoint struct {
	Version int         `json:"version"`
	SCNs    int         `json:"scns"`
	Cells   int         `json:"cells"`
	T       int         `json:"t,omitempty"`
	LogW    [][]float64 `json:"log_weights"`
	Lambda1 []float64   `json:"lambda1"`
	Lambda2 []float64   `json:"lambda2"`
	// Rng holds one (state, inc, root) triple per SCN — the full PCG state
	// of each SCN's private stream (see rng.Stream.State).
	Rng [][3]uint64 `json:"rng,omitempty"`
}

// Gather makes cp the full document of the state the learners hold
// between them: the shared slot counter and, for every SCN in order, its
// hypercube log-weights, Lagrange multipliers and RNG stream state, taken
// from whichever learner materializes it. A sharded deployment thus writes
// the one document an unsharded learner with the same state writes, and a
// restored controller continues the original run bit-identically. The
// learners (nil entries are skipped) must share one shape and slot counter
// and hold every SCN exactly once. The log-weight rows alias learner
// state, so encode cp before the learners move again; cp's slices are
// reused from call to call.
func (cp *Checkpoint) Gather(learners ...*LFSC) error {
	var first *LFSC
	for _, l := range learners {
		if l == nil {
			continue
		}
		if first == nil {
			first = l
		} else if l.cfg.SCNs != first.cfg.SCNs || l.cfg.Cells != first.cfg.Cells || l.slots != first.slots {
			return fmt.Errorf("core: checkpoint learners disagree on shape or slot counter")
		}
	}
	if first == nil {
		return fmt.Errorf("core: checkpoint of no learner")
	}
	*cp = Checkpoint{
		Version: checkpointVersion,
		SCNs:    first.cfg.SCNs,
		Cells:   first.cfg.Cells,
		T:       first.slots,
		LogW:    cp.LogW[:0],
		Lambda1: cp.Lambda1[:0],
		Lambda2: cp.Lambda2[:0],
		Rng:     cp.Rng[:0],
	}
	for m := 0; m < cp.SCNs; m++ {
		var st *scnState
		for _, l := range learners {
			if l == nil || l.scns[m] == nil {
				continue
			}
			if st != nil {
				return fmt.Errorf("core: checkpoint learners hold SCN %d twice", m)
			}
			st = l.scns[m]
		}
		if st == nil {
			return fmt.Errorf("core: checkpoint learners leave SCN %d uncovered", m)
		}
		cp.LogW = append(cp.LogW, st.logW)
		cp.Lambda1 = append(cp.Lambda1, st.lambda1)
		cp.Lambda2 = append(cp.Lambda2, st.lambda2)
		cp.Rng = append(cp.Rng, st.r.State())
	}
	return nil
}

// Load restores learner state from one full document, the one Gather
// builds: its shape must be the policy's exactly, and the learner takes
// the rows of the SCNs it materializes, so state saved at one shard
// layout restores into a learner of any other. Every value of every row
// is validated (finite weights, non-negative finite multipliers, a
// non-negative slot counter, structurally valid RNG triples) BEFORE any
// policy state is touched — a rejected checkpoint, however corrupt,
// truncated, or shape-mismatched, leaves the policy exactly as it was.
func (l *LFSC) Load(r io.Reader) error {
	var cp Checkpoint
	if err := json.NewDecoder(r).Decode(&cp); err != nil {
		return fmt.Errorf("core: decode checkpoint: %w", err)
	}
	if err := l.validate(&cp); err != nil {
		return err
	}
	// All validated; commit the rows this learner materializes.
	for m, st := range l.scns {
		if st == nil {
			continue
		}
		copy(st.logW, cp.LogW[m])
		st.lambda1 = cp.Lambda1[m]
		st.lambda2 = cp.Lambda2[m]
		if !st.r.Restore(cp.Rng[m]) {
			// Unreachable: validated above. Guard anyway so a logic
			// error cannot half-commit.
			return fmt.Errorf("core: SCN %d RNG restore failed", m)
		}
		st.resetCaches() // any in-flight slot cache (census, probabilities, picks) is stale now
	}
	l.slots = cp.T
	return nil
}

// validate checks a decoded document against the policy's shape and
// every value it carries, without touching policy state.
func (l *LFSC) validate(cp *Checkpoint) error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", cp.Version, checkpointVersion)
	}
	if cp.SCNs != l.cfg.SCNs || cp.Cells != l.cfg.Cells {
		return fmt.Errorf("core: checkpoint shape %dx%d, policy %dx%d",
			cp.SCNs, cp.Cells, l.cfg.SCNs, l.cfg.Cells)
	}
	if len(cp.LogW) != cp.SCNs || len(cp.Lambda1) != cp.SCNs || len(cp.Lambda2) != cp.SCNs {
		return fmt.Errorf("core: checkpoint arrays inconsistent with SCN count")
	}
	if cp.T < 0 {
		return fmt.Errorf("core: checkpoint has negative slot counter %d", cp.T)
	}
	// One structurally valid (odd PCG increment) RNG triple per SCN.
	if len(cp.Rng) != cp.SCNs {
		return fmt.Errorf("core: checkpoint has %d RNG states, want %d", len(cp.Rng), cp.SCNs)
	}
	for m, st := range cp.Rng {
		if st[1]&1 == 0 {
			return fmt.Errorf("core: SCN %d has invalid RNG state (even increment)", m)
		}
	}
	for m := range cp.SCNs {
		if len(cp.LogW[m]) != cp.Cells {
			return fmt.Errorf("core: SCN %d has %d weights, want %d", m, len(cp.LogW[m]), cp.Cells)
		}
		for _, v := range cp.LogW[m] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: SCN %d has non-finite weight", m)
			}
		}
		if cp.Lambda1[m] < 0 || cp.Lambda2[m] < 0 ||
			math.IsNaN(cp.Lambda1[m]) || math.IsNaN(cp.Lambda2[m]) ||
			math.IsInf(cp.Lambda1[m], 0) || math.IsInf(cp.Lambda2[m], 0) {
			return fmt.Errorf("core: SCN %d has invalid multipliers", m)
		}
	}
	return nil
}
