// Package queueing models the compute server inside each SCN ("each SCN is
// equipped with a computing server, which can process tasks from WDs" —
// paper Sec. 3.1). The paper abstracts execution as one slot per task; this
// package supplies the discrete-time queueing substrate needed to check
// that abstraction and to study latency: a work-conserving server drained
// at a fixed rate per slot under FIFO or processor-sharing disciplines,
// plus the M/M/1 closed forms used to validate the simulation.
//
// Work units are abstract (e.g. Mbit of input × cycles/bit); a task
// finishes when its remaining work reaches zero, and its sojourn time is
// the number of slots from arrival to completion.
package queueing

import (
	"fmt"
	"math"
	"sort"
)

// Discipline selects the service order.
type Discipline int

const (
	// FIFO serves jobs to completion in arrival order.
	FIFO Discipline = iota
	// PS (processor sharing) splits each slot's capacity equally among
	// all queued jobs — the idealisation of a time-slicing edge server.
	PS
)

// String implements fmt.Stringer.
func (d Discipline) String() string {
	switch d {
	case FIFO:
		return "fifo"
	case PS:
		return "ps"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

// Completion reports one finished job.
type Completion struct {
	// ID identifies the job.
	ID int64
	// Arrived is the slot the job was submitted in.
	Arrived int
	// Finished is the slot the job completed in.
	Finished int
}

// Sojourn returns the job's time in system, in slots (≥ 1).
func (c Completion) Sojourn() int { return c.Finished - c.Arrived + 1 }

type job struct {
	id        int64
	remaining float64
	arrived   int
	seq       int // tie-break for deterministic order
}

// Server is a single work-conserving queueing server. The zero value is
// not usable; construct with NewServer.
type Server struct {
	rate    float64
	disc    Discipline
	jobs    []*job
	nextSeq int
}

// NewServer creates a server draining rate work units per slot.
func NewServer(rate float64, disc Discipline) (*Server, error) {
	if rate <= 0 {
		return nil, fmt.Errorf("queueing: rate must be positive, got %v", rate)
	}
	if disc != FIFO && disc != PS {
		return nil, fmt.Errorf("queueing: unknown discipline %d", disc)
	}
	return &Server{rate: rate, disc: disc}, nil
}

// MustNewServer is NewServer but panics on error.
func MustNewServer(rate float64, disc Discipline) *Server {
	s, err := NewServer(rate, disc)
	if err != nil {
		panic(err)
	}
	return s
}

// Submit enqueues a job with the given amount of work at slot now.
// Zero-work jobs complete in the next Step.
func (s *Server) Submit(id int64, work float64, now int) error {
	if work < 0 {
		return fmt.Errorf("queueing: negative work %v for job %d", work, id)
	}
	s.jobs = append(s.jobs, &job{id: id, remaining: work, arrived: now, seq: s.nextSeq})
	s.nextSeq++
	return nil
}

// QueueLength returns the number of jobs in the system.
func (s *Server) QueueLength() int { return len(s.jobs) }

// Backlog returns the total remaining work in the system.
func (s *Server) Backlog() float64 {
	total := 0.0
	for _, j := range s.jobs {
		total += j.remaining
	}
	return total
}

// Step advances one slot ending at time now, returning jobs that completed
// during it, ordered by (finish priority, arrival) deterministically.
func (s *Server) Step(now int) []Completion {
	if len(s.jobs) == 0 {
		return nil
	}
	var done []Completion
	switch s.disc {
	case FIFO:
		budget := s.rate
		keep := s.jobs[:0]
		for _, j := range s.jobs {
			if budget > 0 && j.remaining <= budget {
				budget -= j.remaining
				done = append(done, Completion{ID: j.id, Arrived: j.arrived, Finished: now})
				continue
			}
			if budget > 0 {
				j.remaining -= budget
				budget = 0
			}
			keep = append(keep, j)
		}
		s.jobs = keep
	case PS:
		// Iteratively grant equal shares; jobs needing less than their
		// share finish and release capacity to the rest within the slot.
		budget := s.rate
		for budget > 1e-12 && len(s.jobs) > 0 {
			share := budget / float64(len(s.jobs))
			finishedAny := false
			keep := s.jobs[:0]
			for _, j := range s.jobs {
				if j.remaining <= share {
					budget -= j.remaining
					done = append(done, Completion{ID: j.id, Arrived: j.arrived, Finished: now})
					finishedAny = true
					continue
				}
				keep = append(keep, j)
			}
			s.jobs = keep
			if !finishedAny {
				for _, j := range s.jobs {
					j.remaining -= share
				}
				budget = 0
			}
		}
	}
	sort.Slice(done, func(a, b int) bool {
		if done[a].Arrived != done[b].Arrived {
			return done[a].Arrived < done[b].Arrived
		}
		return done[a].ID < done[b].ID
	})
	return done
}

// --- analytical M/M/1 helpers ------------------------------------------------

// Utilization returns ρ = λ/μ.
func Utilization(lambda, mu float64) float64 {
	if mu <= 0 {
		return 0
	}
	return lambda / mu
}

// MM1MeanSojourn returns the expected time in system E[T] = 1/(μ−λ) of an
// M/M/1 queue; +Inf when unstable (λ ≥ μ).
func MM1MeanSojourn(lambda, mu float64) float64 {
	if lambda >= mu {
		return math.Inf(1)
	}
	return 1 / (mu - lambda)
}
