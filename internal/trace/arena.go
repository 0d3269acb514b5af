package trace

import "lfsc/internal/task"

// IntoGenerator is the pooled extension of Generator: NextInto fills a
// caller-provided Slot from backing arrays owned by the generator instead of
// allocating a fresh slot. The filled slot aliases the generator's arena and
// is valid only until the next NextInto call on the same generator — the
// same arena-ownership rule as the policy scratch buffers (DESIGN.md §8).
// Callers that must retain a slot either deep copy it or use the allocating
// Next.
type IntoGenerator interface {
	Generator
	// NextInto fills s with the workload of slot t (0-based, strictly
	// increasing across calls, interleaved with any Next calls).
	NextInto(t int, s *Slot)
}

// slotArena is the reusable backing storage of a pooled generator: one task
// array sized once at construction from the generator's worst-case slot
// (SCNs×MaxTasks for the synthetic models, WDs for the geometric one), the
// parallel pointer slice handed out through Slot.Tasks, and per-SCN coverage
// rows recycled by re-slicing. In steady state NextInto touches the heap
// zero times.
type slotArena struct {
	tasks []task.Task  // fixed backing array
	ptrs  []*task.Task // ptrs[i] == &tasks[i], set up once
	cov   [][]int      // per-SCN coverage rows, grown to their high-water mark
	n     int          // tasks handed out in the current slot
}

func newSlotArena(maxTasks, scns int) *slotArena {
	a := &slotArena{
		tasks: make([]task.Task, maxTasks),
		ptrs:  make([]*task.Task, maxTasks),
		cov:   make([][]int, scns),
	}
	for i := range a.tasks {
		a.ptrs[i] = &a.tasks[i]
	}
	return a
}

// begin resets the arena for a new slot and points s at it. After begin,
// s.Tasks and s.Coverage alias the arena.
func (a *slotArena) begin(s *Slot) {
	a.n = 0
	for m := range a.cov {
		a.cov[m] = a.cov[m][:0]
	}
	s.Tasks = a.ptrs[:0]
	s.Coverage = a.cov
}

// nextTask hands out the next pooled task, zeroed. If the generator's
// declared worst case is exceeded (cannot happen for the in-tree
// generators), it falls back to the heap rather than corrupt earlier tasks.
func (a *slotArena) nextTask() *task.Task {
	var tk *task.Task
	if a.n < len(a.tasks) {
		tk = a.ptrs[a.n]
		*tk = task.Task{}
	} else {
		tk = &task.Task{}
	}
	a.n++
	return tk
}
