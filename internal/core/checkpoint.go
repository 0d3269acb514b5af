package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// checkpointVersion guards the on-disk format.
//
//	v1: log-weights + Lagrange multipliers.
//	v2: adds the slot counter t (so the γ/η/δ schedule and the learner's
//	    slot clock resume where they left off) and the per-SCN RNG stream
//	    states (so the DepRound candidate sampling of a resumed run is
//	    bit-identical to a run that never stopped).
//
// Load accepts both: a v1 checkpoint restores with t = 0 and fresh RNG
// streams — the learned state carries over, the slot clock does not.
const checkpointVersion = 2

// checkpoint is the serialised learner state. Only the learned quantities
// are stored; the configuration travels separately (a checkpoint can only
// be restored into a policy with a compatible shape).
type checkpoint struct {
	Version int `json:"version"`
	SCNs    int `json:"scns"`
	Cells   int `json:"cells"`
	T       int `json:"t,omitempty"`
	// Owned, when present, marks a partial (shard) checkpoint: the arrays
	// below carry one row per entry, row i belonging to SCN Owned[i]
	// (strictly ascending). Absent/empty means the full per-SCN layout —
	// the format every unsharded checkpoint has always used.
	Owned   []int       `json:"owned,omitempty"`
	LogW    [][]float64 `json:"log_weights"`
	Lambda1 []float64   `json:"lambda1"`
	Lambda2 []float64   `json:"lambda2"`
	// Rng holds one (state, inc, root) triple per SCN — the full PCG state
	// of each SCN's private stream (see rng.Stream.State).
	Rng [][3]uint64 `json:"rng,omitempty"`
}

// Save serialises the learner's state (hypercube log-weights, Lagrange
// multipliers, slot counter, and per-SCN RNG streams) to w as JSON. A
// deployment can checkpoint a trained MBS controller and restore it after
// a restart instead of re-exploring; with the v2 fields the restored
// controller continues the original run bit-identically. A partial learner
// (NewPartial) writes only its owned SCNs' rows plus the owned list — one
// shard checkpoint per shard, stitched back together at restore time.
func (l *LFSC) Save(w io.Writer) error {
	rows := l.cfg.SCNs
	if l.owned != nil {
		rows = len(l.owned)
	}
	cp := checkpoint{
		Version: checkpointVersion,
		SCNs:    l.cfg.SCNs,
		Cells:   l.cfg.Cells,
		T:       l.slots,
		Owned:   l.owned,
		LogW:    make([][]float64, rows),
		Lambda1: make([]float64, rows),
		Lambda2: make([]float64, rows),
		Rng:     make([][3]uint64, rows),
	}
	for i := 0; i < rows; i++ {
		m := i
		if l.owned != nil {
			m = l.owned[i]
		}
		st := l.scns[m]
		cp.LogW[i] = append([]float64(nil), st.logW...)
		cp.Lambda1[i] = st.lambda1
		cp.Lambda2[i] = st.lambda2
		cp.Rng[i] = st.r.State()
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&cp)
}

// Load restores learner state previously written by Save, from one
// document or several. The documents — full or partial (one per shard) —
// may cover each SCN at most once, must cover every SCN this learner
// materializes, and must agree on version, shape (the policy's exactly)
// and slot counter; the learner takes each of its rows from whichever
// document carries it, so state saved at one shard layout restores into
// a learner of any other. Every value of every row is validated (finite
// weights, non-negative finite multipliers, a non-negative slot counter,
// structurally valid RNG triples) BEFORE any policy state is touched — a
// rejected checkpoint, however corrupt, truncated, or shape-mismatched,
// leaves the policy exactly as it was.
func (l *LFSC) Load(docs ...io.Reader) error {
	cps := make([]checkpoint, len(docs))
	// src[m] is the document (and row within it) carrying SCN m.
	type row struct {
		cp *checkpoint
		i  int
	}
	src := make([]row, l.cfg.SCNs)
	for d, r := range docs {
		cp := &cps[d]
		if err := json.NewDecoder(r).Decode(cp); err != nil {
			return fmt.Errorf("core: decode checkpoint: %w", err)
		}
		if err := l.validate(cp); err != nil {
			return err
		}
		if cp.Version != cps[0].Version || cp.T != cps[0].T {
			return fmt.Errorf("core: checkpoint documents disagree on version or slot counter")
		}
		for i := range cp.LogW {
			m := cp.rowSCN(i)
			if src[m].cp != nil {
				return fmt.Errorf("core: checkpoint documents cover SCN %d twice", m)
			}
			src[m] = row{cp, i}
		}
	}
	for m, st := range l.scns {
		if st != nil && src[m].cp == nil {
			return fmt.Errorf("core: partial checkpoint leaves SCN %d uncovered", m)
		}
	}
	// All validated; commit the rows this learner materializes.
	for m, st := range l.scns {
		if st == nil {
			continue
		}
		cp, i := src[m].cp, src[m].i
		copy(st.logW, cp.LogW[i])
		st.lambda1 = cp.Lambda1[i]
		st.lambda2 = cp.Lambda2[i]
		if cp.Version >= 2 {
			if !st.r.Restore(cp.Rng[i]) {
				// Unreachable: validated above. Guard anyway so a logic
				// error cannot half-commit.
				return fmt.Errorf("core: SCN %d RNG restore failed", m)
			}
		}
		st.resetCaches() // any in-flight slot cache (census, probabilities, picks) is stale now
	}
	l.slots = 0
	if cps[0].Version >= 2 {
		l.slots = cps[0].T
	}
	return nil
}

// rowSCN maps row i of the document to the SCN it belongs to.
func (cp *checkpoint) rowSCN(i int) int {
	if len(cp.Owned) > 0 {
		return cp.Owned[i]
	}
	return i
}

// validate checks one decoded document against the policy's shape and
// every value it carries, without touching policy state.
func (l *LFSC) validate(cp *checkpoint) error {
	if cp.Version != 1 && cp.Version != checkpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want 1 or %d", cp.Version, checkpointVersion)
	}
	if cp.SCNs != l.cfg.SCNs || cp.Cells != l.cfg.Cells {
		return fmt.Errorf("core: checkpoint shape %dx%d, policy %dx%d",
			cp.SCNs, cp.Cells, l.cfg.SCNs, l.cfg.Cells)
	}
	// A partial (shard) document carries one row per owned SCN; the owned
	// list must be strictly ascending and in range.
	rows := cp.SCNs
	if len(cp.Owned) > 0 {
		if cp.Version < 2 {
			return fmt.Errorf("core: v1 checkpoint cannot be partial")
		}
		rows = len(cp.Owned)
		prev := -1
		for _, m := range cp.Owned {
			if m <= prev || m >= cp.SCNs {
				return fmt.Errorf("core: checkpoint owned list invalid at SCN %d", m)
			}
			prev = m
		}
	}
	if len(cp.LogW) != rows || len(cp.Lambda1) != rows || len(cp.Lambda2) != rows {
		return fmt.Errorf("core: checkpoint arrays inconsistent with SCN count")
	}
	if cp.T < 0 {
		return fmt.Errorf("core: checkpoint has negative slot counter %d", cp.T)
	}
	// v1 checkpoints predate the RNG fields; for v2 the triples must be
	// present for every SCN and structurally valid (odd PCG increments).
	if cp.Version >= 2 {
		if len(cp.Rng) != rows {
			return fmt.Errorf("core: checkpoint has %d RNG states, want %d", len(cp.Rng), rows)
		}
		for i, st := range cp.Rng {
			if st[1]&1 == 0 {
				return fmt.Errorf("core: SCN %d has invalid RNG state (even increment)", cp.rowSCN(i))
			}
		}
	} else if len(cp.Rng) != 0 {
		return fmt.Errorf("core: v1 checkpoint carries RNG states")
	}
	for i := 0; i < rows; i++ {
		m := cp.rowSCN(i)
		if len(cp.LogW[i]) != cp.Cells {
			return fmt.Errorf("core: SCN %d has %d weights, want %d", m, len(cp.LogW[i]), cp.Cells)
		}
		for _, v := range cp.LogW[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("core: SCN %d has non-finite weight", m)
			}
		}
		if cp.Lambda1[i] < 0 || cp.Lambda2[i] < 0 ||
			math.IsNaN(cp.Lambda1[i]) || math.IsNaN(cp.Lambda2[i]) ||
			math.IsInf(cp.Lambda1[i], 0) || math.IsInf(cp.Lambda2[i], 0) {
			return fmt.Errorf("core: SCN %d has invalid multipliers", m)
		}
	}
	return nil
}
