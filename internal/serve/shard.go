package serve

import (
	"fmt"
	"sync/atomic"
	"time"

	"lfsc/internal/core"
	"lfsc/internal/obs"
	"lfsc/internal/parallel"
	"lfsc/internal/rng"
)

// engineShard is one learner shard of the engine: a partial LFSC
// learner owning a consistent-hash-assigned SCN group, plus routing
// counters. The shard's learner holds its own weights, multipliers, RNG
// streams, and per-SCN scratch; pol is nil when no SCN hashed to this
// shard (possible when Shards approaches the SCN count).
type engineShard struct {
	id    int
	pol   *core.LFSC
	owned []int

	// Routing accounting (atomics: written under the engine's mu, read by
	// the status handler's goroutine). shedTasks counts tasks shed by the
	// backpressure gates, attributed to the submission's home shard
	// (written on handler goroutines — the shed paths never hold mu).
	routedSubs  atomic.Uint64
	routedTasks atomic.Uint64
	shedTasks   atomic.Uint64

	// Last-slot durations of this shard's DecideLocal and Observe legs
	// (written by the fan-out workers, read by status/metrics/trace): the
	// per-shard view of the two-phase barrier, where a straggling shard
	// shows up as the one entry dominating the slot.
	lastDecideNS  atomic.Uint64
	lastObserveNS atomic.Uint64

	// Staged-ingest timing, traced engines only (cfg.SlotRing != nil):
	// stageAccNS accumulates the staging time of submissions whose home
	// shard (first task's first SCN) is this one, under the engine's mu;
	// decideSlot publishes it into lastStageNS at each close for
	// status/trace readers.
	stageAccNS  uint64
	lastStageNS atomic.Uint64
}

// buildShards constructs the learner plane: a consistent-hash router
// over the given shard count, one partial learner per non-empty shard
// (every shard's learner derives its per-SCN streams from the same root —
// rng Derive is pure, so the streams are bit-identical to an unsharded
// learner's), and the merger stitched over all of them. The engine fans
// out across shards; each learner runs its own SCNs serially.
func buildShards(coreCfg core.Config, seed uint64, shards int) ([]*engineShard, *core.Merger, []int, *Router, error) {
	router := NewRouter(shards)
	owner, ownedOf := router.OwnerMap(coreCfg.SCNs)
	es := make([]*engineShard, shards)
	learners := make([]*core.LFSC, shards)
	for k := 0; k < shards; k++ {
		es[k] = &engineShard{id: k, owned: ownedOf[k]}
		if len(ownedOf[k]) == 0 {
			continue
		}
		pol, err := core.NewPartial(coreCfg, rng.New(seed).Derive(3), ownedOf[k])
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("serve: shard %d learner: %w", k, err)
		}
		es[k].pol = pol
		learners[k] = pol
	}
	merger, err := core.NewMerger(coreCfg, learners, owner)
	if err != nil {
		return nil, nil, nil, nil, fmt.Errorf("serve: merger: %w", err)
	}
	return es, merger, owner, router, nil
}

// slotsSeen returns the learner plane's slot clock. All shards advance
// their clocks in lockstep (every shard Observes every slot), so the
// first non-empty shard speaks for all; restore verifies the invariant.
func (e *Engine) slotsSeen() int {
	for _, sh := range e.shards {
		if sh.pol != nil {
			return sh.pol.SlotsSeen()
		}
	}
	return 0
}

// decide runs the slot's decision across the learner plane as a
// two-phase barrier: every shard computes its SCNs' probabilities,
// candidate samples, and pre-sorted edge lists (phase one, in parallel),
// then the merger's resolution produces the global greedy assignment
// (phase two). The resolver code is the unsharded Decide's own, so the
// assignment is bit-identical at any shard count. ForDynamic runs a lone
// shard inline on the closing goroutine.
func (e *Engine) decide() []int {
	parallel.ForDynamic(len(e.shards), len(e.shards), e.decideLeg)
	t0 := time.Now()
	assigned := e.merger.Resolve(&e.view)
	e.lastMergeNS = uint64(time.Since(t0))
	e.mergeLat.Record(e.lastMergeNS)
	return assigned
}

// decideShard is shard k's phase-one leg over the slot's published view.
func (e *Engine) decideShard(k int) {
	if sh := e.shards[k]; sh.pol != nil {
		t0 := time.Now()
		sh.pol.DecideLocal(&e.view)
		sh.lastDecideNS.Store(uint64(time.Since(t0)))
	}
}

// observe feeds the open slot's realised feedback to the learner plane.
// Each shard updates only its own SCNs' weights and multipliers (fb is
// read-only; every learner buckets it with private scratch), so shards
// run in parallel with no synchronisation beyond the barrier.
func (e *Engine) observe() {
	parallel.ForDynamic(len(e.shards), len(e.shards), e.observeLeg)
}

// observeShard is shard k's Observe leg over the open slot.
func (e *Engine) observeShard(k int) {
	if sh := e.shards[k]; sh.pol != nil {
		t0 := time.Now()
		sh.pol.Observe(e.openView, e.openAssigned, &e.fb)
		sh.lastObserveNS.Store(uint64(time.Since(t0)))
	}
}

// snapshotPolicy aggregates the learner plane into one policy snapshot.
// Each partial learner fills only its owned SCNs' entries of the shared
// per-SCN buffers, so calling every shard in sequence composes the full
// per-SCN view; the owner map is stamped alongside so /lfsc/status and
// snapshot sinks can attribute rows to shards.
func (e *Engine) snapshotPolicy(into *obs.PolicySnapshot) {
	for _, sh := range e.shards {
		if sh.pol != nil {
			sh.pol.Snapshot(into)
		}
	}
	owner := obs.GrowInts(&into.Owner, len(e.owner))
	copy(owner, e.owner)
}

// accountRouting attributes an accepted submission to its home shard (the
// shard owning the first task's first visible SCN — the same key the
// client-side ShardPool routes by). Called once per ingested submission,
// under mu.
func (e *Engine) accountRouting(q *wireReq) {
	if len(q.scns) == 0 {
		return
	}
	sh := e.shards[e.router.Shard(q.scns[0])]
	sh.routedSubs.Add(1)
	sh.routedTasks.Add(uint64(len(q.cells)))
}

// accountShed attributes a shed submission's tasks to its home shard
// (the same first-task first-SCN key accountRouting and the client-side
// ShardPool route by). Called from the shed paths on handler
// goroutines; the router mapping is immutable and the counter atomic,
// so no lock is needed.
func (e *Engine) accountShed(q *wireReq) {
	if len(q.scns) == 0 {
		return
	}
	e.shards[e.router.Shard(q.scns[0])].shedTasks.Add(uint64(len(q.cells)))
}
