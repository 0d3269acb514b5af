package queueing

import (
	"math"
	"testing"

	"lfsc/internal/rng"
	"lfsc/internal/stats"
)

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(0, FIFO); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := NewServer(1, Discipline(7)); err == nil {
		t.Fatal("unknown discipline accepted")
	}
	if _, err := NewServer(2, PS); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewServer did not panic")
		}
	}()
	MustNewServer(-1, FIFO)
}

func TestFIFOOrderAndTiming(t *testing.T) {
	s := MustNewServer(1.0, FIFO)
	// Three unit jobs submitted at slot 0: finish at 0, 1, 2.
	for i := int64(0); i < 3; i++ {
		if err := s.Submit(i, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	var all []Completion
	for now := 0; now < 5; now++ {
		all = append(all, s.Step(now)...)
	}
	if len(all) != 3 {
		t.Fatalf("completed %d jobs", len(all))
	}
	for i, c := range all {
		if c.ID != int64(i) || c.Finished != i {
			t.Fatalf("job %d finished at %d (completion %+v)", c.ID, c.Finished, c)
		}
		if c.Sojourn() != i+1 {
			t.Fatalf("job %d sojourn %d", c.ID, c.Sojourn())
		}
	}
}

func TestFIFOPartialService(t *testing.T) {
	s := MustNewServer(0.5, FIFO)
	s.Submit(1, 1.2, 0)
	if len(s.Step(0)) != 0 || len(s.Step(1)) != 0 {
		t.Fatal("finished too early")
	}
	done := s.Step(2) // 3 × 0.5 = 1.5 ≥ 1.2
	if len(done) != 1 || done[0].Sojourn() != 3 {
		t.Fatalf("done = %+v", done)
	}
	if s.QueueLength() != 0 || s.Backlog() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestPSFairness(t *testing.T) {
	// Two equal jobs share the slot: both finish together, later than a
	// lone job would.
	s := MustNewServer(1.0, PS)
	s.Submit(1, 0.9, 0)
	s.Submit(2, 0.9, 0)
	if done := s.Step(0); len(done) != 0 {
		t.Fatal("PS finished 1.8 work in a 1.0 slot")
	}
	done := s.Step(1)
	if len(done) != 2 {
		t.Fatalf("PS pair: %d done", len(done))
	}
}

func TestPSShortJobNotBlocked(t *testing.T) {
	// Under FIFO a huge head-of-line job delays the short one; under PS the
	// short job slips through.
	mkDone := func(d Discipline) int {
		s := MustNewServer(1.0, d)
		s.Submit(1, 10, 0)  // elephant
		s.Submit(2, 0.4, 0) // mouse
		for now := 0; now < 3; now++ {
			for _, c := range s.Step(now) {
				if c.ID == 2 {
					return c.Finished
				}
			}
		}
		return -1
	}
	psFinish := mkDone(PS)
	fifoFinish := mkDone(FIFO)
	if psFinish == -1 {
		t.Fatal("PS mouse never finished in 3 slots")
	}
	if fifoFinish != -1 && fifoFinish <= psFinish {
		t.Fatalf("FIFO mouse (%d) not slower than PS (%d)", fifoFinish, psFinish)
	}
}

func TestWorkConservation(t *testing.T) {
	r := rng.New(1)
	for _, d := range []Discipline{FIFO, PS} {
		s := MustNewServer(2.0, d)
		submitted := 0.0
		completedJobs := 0
		totalJobs := 0
		for now := 0; now < 500; now++ {
			if r.Bernoulli(0.7) {
				w := r.Uniform(0.1, 3)
				s.Submit(int64(totalJobs), w, now)
				submitted += w
				totalJobs++
			}
			completedJobs += len(s.Step(now))
		}
		// Drain.
		for now := 500; now < 1000 && s.QueueLength() > 0; now++ {
			completedJobs += len(s.Step(now))
		}
		if completedJobs != totalJobs {
			t.Fatalf("%v: %d/%d jobs completed", d, completedJobs, totalJobs)
		}
		if s.Backlog() > 1e-9 {
			t.Fatalf("%v: backlog %v after drain", d, s.Backlog())
		}
	}
}

func TestZeroWorkJob(t *testing.T) {
	s := MustNewServer(1, FIFO)
	s.Submit(1, 0, 5)
	done := s.Step(5)
	if len(done) != 1 || done[0].Sojourn() != 1 {
		t.Fatalf("zero-work job: %+v", done)
	}
	if err := s.Submit(2, -1, 0); err == nil {
		t.Fatal("negative work accepted")
	}
}

func TestMM1AgainstSimulation(t *testing.T) {
	// Discrete-time approximation of M/M/1: Bernoulli arrivals at rate λ,
	// exponential job sizes with mean 1, service rate μ per slot. The mean
	// sojourn should track 1/(μ−λ) within discretisation error.
	const lambda, mu = 0.3, 1.0
	r := rng.New(2)
	s := MustNewServer(mu, FIFO)
	var sojourns stats.Summary
	id := int64(0)
	for now := 0; now < 200000; now++ {
		if r.Bernoulli(lambda) {
			s.Submit(id, r.Exponential(1), now)
			id++
		}
		for _, c := range s.Step(now) {
			sojourns.Add(float64(c.Sojourn()))
		}
	}
	want := MM1MeanSojourn(lambda, mu)
	got := sojourns.Mean()
	// Discrete slots quantise sojourns upward by up to one slot.
	if got < want-0.2 || got > want+1.2 {
		t.Fatalf("simulated sojourn %v vs M/M/1 %v", got, want)
	}
}

func TestLittlesLaw(t *testing.T) {
	// L = λW on a long stable run (PS this time).
	const lambda, mu = 0.4, 1.0
	r := rng.New(3)
	s := MustNewServer(mu, PS)
	var sojourns stats.Summary
	var lSum float64
	const T = 100000
	id := int64(0)
	for now := 0; now < T; now++ {
		if r.Bernoulli(lambda) {
			s.Submit(id, r.Exponential(1), now)
			id++
		}
		// Sample L after arrivals but before service, matching the sojourn
		// convention that counts the arrival slot (Sojourn ≥ 1).
		lSum += float64(s.QueueLength())
		for _, c := range s.Step(now) {
			sojourns.Add(float64(c.Sojourn()))
		}
	}
	L := lSum / T
	lamEff := float64(sojourns.N()) / T
	W := sojourns.Mean()
	if math.Abs(L-lamEff*W) > 0.15*(1+L) {
		t.Fatalf("Little's law violated: L=%v λW=%v", L, lamEff*W)
	}
}

func TestAnalyticalHelpers(t *testing.T) {
	if got := MM1MeanSojourn(0.5, 1); math.Abs(got-2) > 1e-12 {
		t.Fatalf("E[T] = %v", got)
	}
	if !math.IsInf(MM1MeanSojourn(1, 1), 1) {
		t.Fatal("unstable queue should report +Inf")
	}
	if Utilization(1, 2) != 0.5 || Utilization(1, 0) != 0 {
		t.Fatal("utilization")
	}
}

func TestDisciplineString(t *testing.T) {
	for _, d := range []Discipline{FIFO, PS, Discipline(9)} {
		if d.String() == "" {
			t.Fatal("empty discipline string")
		}
	}
}

func BenchmarkPSStep(b *testing.B) {
	s := MustNewServer(20, PS)
	r := rng.New(4)
	for i := 0; i < 100; i++ {
		s.Submit(int64(i), r.Uniform(0.5, 2), 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(i)
		if s.QueueLength() < 50 {
			s.Submit(int64(1000+i), 1.5, i)
			s.Submit(int64(2000+i), 1.5, i)
		}
	}
}
