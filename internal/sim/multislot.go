package sim

import (
	"sort"

	"lfsc/internal/env"
	"lfsc/internal/task"
	"lfsc/internal/trace"
)

// MultiSlotConfig enables the paper's second future-work extension
// (Sec. 3.3/6): tasks whose DurationSlots exceeds 1 must be executed in
// consecutive slots to finish. Following the paper's own proposal, a task
// in progress "keeps submitting offloading requests in the subsequent time
// slots" — the simulator re-injects it into the next slot, visible to the
// SCN that holds its state — and receives "an extra reward for processed
// tasks, such that they have the priority in future offloading decisions".
//
// Semantics per stage:
//   - every executed stage consumes resources (counts toward β/V2);
//   - a blockage (completion draw fails) at any stage aborts the task,
//     losing all progress;
//   - intermediate completed stages credit a partial compound reward
//     u·(1+StageBonus)·v/q is NOT given — instead the stage credits
//     StageBonus·u·v/q and feeds the boosted reward to the policy;
//   - the final stage credits the full compound reward and counts as a
//     completed task for the QoS floor α;
//   - a task whose continuation is not re-selected is aborted.
type MultiSlotConfig struct {
	// StageBonus is the fraction of the task's reward credited per
	// completed intermediate stage, and the priority boost fed back to the
	// learner (default 0.3 when zero).
	StageBonus float64
}

func (c *MultiSlotConfig) bonus() float64 {
	if c.StageBonus == 0 {
		return 0.3
	}
	return c.StageBonus
}

// msState tracks one in-flight multi-slot task.
type msState struct {
	tk      *task.Task
	scn     int
	stage   int
	touched bool
}

// msTracker carries the in-flight set across slots.
type msTracker struct {
	cfg      *MultiSlotConfig
	inflight map[int64]*msState
}

func newMSTracker(cfg *MultiSlotConfig) *msTracker {
	return &msTracker{cfg: cfg, inflight: make(map[int64]*msState)}
}

// inject returns the slot augmented with continuation requests for every
// in-flight task, each visible to the SCN holding its state. The original
// slot is never mutated (a pooled slot aliases the generator's arena).
func (ms *msTracker) inject(s *trace.Slot) *trace.Slot {
	if len(ms.inflight) == 0 {
		return s
	}
	out := &trace.Slot{
		Tasks:    append([]*task.Task(nil), s.Tasks...),
		Coverage: make([][]int, len(s.Coverage)),
	}
	for m := range s.Coverage {
		out.Coverage[m] = append([]int(nil), s.Coverage[m]...)
	}
	ids := make([]int64, 0, len(ms.inflight))
	for id := range ms.inflight {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		st := ms.inflight[id]
		if st.scn >= len(out.Coverage) {
			continue // defensive: SCN disappeared (cannot happen in practice)
		}
		idx := len(out.Tasks)
		out.Tasks = append(out.Tasks, st.tk)
		out.Coverage[st.scn] = append(out.Coverage[st.scn], idx)
	}
	return out
}

// msResult is the outcome of processing one executed stage.
type msResult struct {
	// reward is the compound reward credited to the metrics this slot.
	reward float64
	// fbU is the (possibly boosted) reward exposed to the policy.
	fbU float64
	// completedFinal reports whether the whole task finished (counts
	// toward the QoS floor).
	completedFinal bool
}

// process advances an executed multi-slot task by one stage.
func (ms *msTracker) process(tk *task.Task, m int, out env.Outcome) msResult {
	st := ms.inflight[tk.ID]
	if st != nil {
		st.touched = true
	}
	if !out.Completed {
		// Blockage aborts the task; progress is lost (paper Sec. 1:
		// "once blockage happens, the execution of a task is interrupted").
		delete(ms.inflight, tk.ID)
		return msResult{fbU: out.U}
	}
	stage := 1
	if st != nil {
		stage = st.stage + 1
	}
	if stage >= tk.Duration() {
		delete(ms.inflight, tk.ID)
		return msResult{reward: out.Compound(), fbU: out.U, completedFinal: true}
	}
	if st == nil {
		// Copy the task into tracker-owned memory: with pooled generation
		// the slot's task structs live in the generator's arena and are
		// overwritten next slot, but this state must survive across slots.
		cp := *tk
		st = &msState{tk: &cp, touched: true}
		ms.inflight[tk.ID] = st
	}
	st.stage = stage
	st.scn = m
	// Intermediate stage: partial credit plus the paper's priority boost
	// in the feedback the learner sees.
	b := ms.cfg.bonus()
	partial := b * out.Compound()
	boosted := out.U * (1 + b)
	if boosted > 1 {
		boosted = 1
	}
	return msResult{reward: partial, fbU: boosted}
}

// sweep aborts in-flight tasks whose continuation was not executed this
// slot (the device gave up or no SCN re-selected it) and re-arms the
// touched flags.
func (ms *msTracker) sweep() {
	for id, st := range ms.inflight {
		if !st.touched {
			delete(ms.inflight, id)
			continue
		}
		st.touched = false
	}
}

// Inflight reports the number of in-progress multi-slot tasks (for tests).
func (ms *msTracker) Inflight() int { return len(ms.inflight) }
