package serve

import (
	"sync"
	"testing"
	"time"

	"lfsc/internal/obs"
	"lfsc/internal/task"
)

// TestStagingRouterBoundary pins the ingest staging contract at the
// Router boundary: a submission whose tasks span SCNs owned by different
// shards lands whole — every visible SCN's coverage row gets the task —
// and arrival-ordered in every row, with the hypercube cells riding along
// exactly as the acceptor computed them.
func TestStagingRouterBoundary(t *testing.T) {
	cfg := Config{
		SCNs: 8, Capacity: 3, Alpha: 1, Beta: 5,
		H: 3, KMax: 50, Horizon: 100, Seed: 42,
		Shards: 2,
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find one SCN per shard so every task can straddle the boundary.
	scnOf := [2]int{-1, -1}
	for m, k := range eng.owner {
		if scnOf[k] == -1 {
			scnOf[k] = m
		}
	}
	if scnOf[0] == -1 || scnOf[1] == -1 {
		t.Fatalf("ring left a shard empty at 8 SCNs: owner=%v", eng.owner)
	}

	// Two submissions, admitted in order; every task covers both shards,
	// plus a shard-local SCN to vary the rows.
	subs := [][]TaskSpec{
		{
			{Ctx: []float64{0.1, 0.2, 0.3}, SCNs: []int{scnOf[0], scnOf[1]}},
			{Ctx: []float64{0.4, 0.5, 0.6}, SCNs: []int{scnOf[1], scnOf[0]}},
		},
		{
			{Ctx: []float64{0.7, 0.8, 0.9}, SCNs: []int{scnOf[0], scnOf[1]}},
		},
	}
	total := 0
	for _, tasks := range subs {
		q := eng.getReq()
		if err := q.acceptSpecs(tasks); err != nil {
			t.Fatal(err)
		}
		eng.mu.Lock()
		eng.admit(q)
		eng.mu.Unlock()
		total += len(tasks)
	}

	eng.mu.Lock()
	defer eng.mu.Unlock()
	st := &eng.stages[eng.cur]
	if st.n != total {
		t.Fatalf("staged %d tasks, want %d", st.n, total)
	}

	// The cells must reproduce the submissions in arrival order.
	idx := 0
	for _, tasks := range subs {
		for i := range tasks {
			if want := eng.shape.part.Index(task.Context(tasks[i].Ctx)); st.cells[idx] != want {
				t.Fatalf("task %d cell staged as %d, want %d", idx, st.cells[idx], want)
			}
			idx++
		}
	}

	// Each straddling task must appear in BOTH shards' blocks (whole, not
	// split), in its covered SCNs' rows only, and every row must be in
	// arrival (= slot) order.
	covCount := make([]int, total)
	for m := 0; m < cfg.SCNs; m++ {
		row := st.cov[m]
		prev := -1
		for _, taskIdx := range row {
			if taskIdx <= prev {
				t.Fatalf("SCN %d (shard %d) row out of arrival order: %v", m, eng.owner[m], row)
			}
			prev = taskIdx
			covCount[taskIdx]++
		}
		switch m {
		case scnOf[0], scnOf[1]:
			if len(row) != total {
				t.Fatalf("SCN %d (shard %d) row has %d tasks, want %d: %v",
					m, eng.owner[m], len(row), total, row)
			}
		default:
			if len(row) != 0 {
				t.Fatalf("uncovered SCN %d has a non-empty row: %v", m, row)
			}
		}
	}
	for i, c := range covCount {
		if c != 2 {
			t.Fatalf("task %d staged into %d rows, want 2 (one per covered SCN)", i, c)
		}
	}

	// The sequencer must agree with the arena — it owns boundaries, not
	// tasks.
	if eng.batch.n != total {
		t.Fatalf("sequencer counts %d tasks, arena holds %d", eng.batch.n, total)
	}
	if len(eng.batch.subs) != len(subs) {
		t.Fatalf("sequencer tracks %d submissions, want %d", len(eng.batch.subs), len(subs))
	}
}

// TestConcurrentIngestStaging hammers the staged-ingest path from many
// connections while slots close underneath it: a fast slot clock, a tiny
// batch bound, and a short report wait keep the engine in a rolling
// decide/observe cycle while handlers decode the next slot's traffic on
// their own goroutines and stage it between transitions. Run under -race
// (the serve package is in RACE_PKGS), this is the data-race pin for the
// ping-pong arenas; the traced engine variant also drives the
// stage-timing words.
func TestConcurrentIngestStaging(t *testing.T) {
	sc := testScenario(1_000_000, 13)
	ring := obs.NewSlotRing(64, 2)
	eng, srv, client := bootDaemon(t, sc, func(c *Config) {
		c.Shards = 2
		c.SlotEvery = time.Millisecond
		c.MaxBatch = 6
		c.QueueCap = 48
		c.ReportWait = time.Millisecond
		c.SlotRing = ring
	})
	defer srv.Close()

	const workers, perWorker = 8, 40
	var wg sync.WaitGroup
	var okCount, shedCount, otherErr atomic64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := &SubmitRequest{
					Tasks: []TaskSpec{
						{Ctx: []float64{0.1, 0.5, 0.3}, SCNs: []int{w % 4, (w + 1) % 4}},
						{Ctx: []float64{0.9, 0.2, 0.7}, SCNs: []int{(w + 2) % 4}},
					},
					// A third of the traffic demands an immediate close, so
					// decide/observe cycles interleave densely with staging.
					Close: i%3 == 0,
				}
				_, err := client.Submit(req)
				switch {
				case err == nil:
					okCount.add(1)
				default:
					if _, shed := err.(*ErrShed); shed {
						shedCount.add(1)
					} else {
						otherErr.add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	eng.Stop()

	if otherErr.load() != 0 {
		t.Fatalf("concurrent staging produced %d non-shed errors", otherErr.load())
	}
	if okCount.load() == 0 {
		t.Fatal("no submission survived — nothing was staged")
	}
	if eng.Slot() == 0 {
		t.Fatal("no slot closed under concurrent ingest")
	}
	if ring.Published() == 0 {
		t.Fatal("traced engine closed slots but published no spans")
	}
	// Every decided task was staged exactly once: the pipeline counters
	// must balance despite the arena ping-pong.
	st := eng.Stats()
	if st.DecidedTasks != 2*okCount.load() {
		t.Fatalf("decided %d tasks, want %d (2 per accepted submission)",
			st.DecidedTasks, 2*okCount.load())
	}
}
