package core

import (
	"fmt"

	"lfsc/internal/assign"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
)

// NewPartial constructs a partial LFSC learner that materializes only the
// SCNs listed in owned (strictly ascending, each in [0, cfg.SCNs)). The
// unowned entries of scns stay nil; DecideLocal and Observe skip them, and
// the cross-SCN resolution must run through a Merger stitched over every
// shard's states.
//
// Each owned SCN's stream is r.Derive(uint64(m)) — Derive is pure (keyed
// on the label, never advancing the parent), so a partial learner's SCN m
// stream is bit-identical to a full learner's built from the same root
// stream. That, plus the shared resolver code path, is the whole Shards=1
// vs Shards=N identity argument.
func NewPartial(cfg Config, r *rng.Stream, owned []int) (*LFSC, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("core: partial learner owns no SCNs")
	}
	l, err := newLFSC(cfg, r)
	if err != nil {
		return nil, err
	}
	prev := -1
	for _, m := range owned {
		if m <= prev || m >= cfg.SCNs {
			return nil, fmt.Errorf("core: invalid owned SCN list %v (must be strictly ascending, in [0,%d))",
				owned, cfg.SCNs)
		}
		prev = m
	}
	l.owned = append([]int(nil), owned...)
	for _, m := range l.owned {
		l.scns[m] = newSCNState(cfg, r.Derive(uint64(m)))
	}
	return l, nil
}

// Owned returns the SCN indices this learner materializes (a copy), or nil
// for a full learner.
func (l *LFSC) Owned() []int {
	if l.owned == nil {
		return nil
	}
	return append([]int(nil), l.owned...)
}

// Merger runs the cross-SCN resolution stage (Alg. 4) over the combined
// per-SCN states of a set of partial learners. It holds its own resolver —
// the identical code a full learner's Decide runs — plus a stitched states
// array pointing at each SCN's owning shard, so resolution over shards is
// bit-for-bit the unsharded computation.
type Merger struct {
	res    resolver
	states []*scnState
}

// NewMerger stitches the merger's state view: owner[m] names the shard
// owning SCN m, and shards[owner[m]] must actually materialize it.
func NewMerger(cfg Config, shards []*LFSC, owner []int) (*Merger, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(owner) != cfg.SCNs {
		return nil, fmt.Errorf("core: owner map has %d entries, want %d", len(owner), cfg.SCNs)
	}
	g := &Merger{res: newResolver(cfg), states: make([]*scnState, cfg.SCNs)}
	for m, k := range owner {
		if k < 0 || k >= len(shards) || shards[k] == nil {
			return nil, fmt.Errorf("core: SCN %d mapped to invalid shard %d", m, k)
		}
		st := shards[k].scns[m]
		if st == nil {
			return nil, fmt.Errorf("core: shard %d does not own SCN %d", k, m)
		}
		g.states[m] = st
	}
	return g, nil
}

// Resolve turns the candidate sets primed by this slot's DecideLocal pass
// on every shard into the global assignment. Single-threaded, like the
// resolution stage of an unsharded Decide; the returned slice aliases
// merger-owned scratch valid until the next call.
func (g *Merger) Resolve(view *policy.SlotView) []int {
	return g.res.resolve(g.states, view)
}

// ExportEdges exposes the per-SCN sorted candidate edge lists the last
// DecideLocal (or Decide) pass left behind, one entry per SCN of the
// topology: unowned SCNs (partial learners) and SCNs whose list was not
// primed this slot are nil. The lists alias learner scratch valid until
// the next decide pass. The merge-order lockstep twins consume these to
// pin that each SCN's list lives on its owning shard and nowhere else.
func (l *LFSC) ExportEdges(dst [][]assign.Edge) [][]assign.Edge {
	for len(dst) < len(l.scns) {
		dst = append(dst, nil)
	}
	dst = dst[:len(l.scns)]
	for m := range dst {
		dst[m] = nil
	}
	export := func(m int) {
		if st := l.scns[m]; st != nil && len(st.edges) > 0 {
			dst[m] = st.edges
		}
	}
	if l.owned == nil {
		for m := range l.scns {
			export(m)
		}
	} else {
		for _, m := range l.owned {
			export(m)
		}
	}
	return dst
}
