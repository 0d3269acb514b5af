package env

import (
	"math"
	"testing"

	"lfsc/internal/rng"
)

func newEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	e, err := New(cfg, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(30, 27)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.SCNs = 0 },
		func(c *Config) { c.Cells = -1 },
		func(c *Config) { c.URange = [2]float64{0.5, 0.2} },
		func(c *Config) { c.URange = [2]float64{0, 1.5} },
		func(c *Config) { c.VRange = [2]float64{-0.1, 1} },
		func(c *Config) { c.QRange = [2]float64{0, 2} },
		func(c *Config) { c.UNoise = -1 },
		func(c *Config) { c.Mode = Piecewise; c.SwitchEvery = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig(30, 27)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestMeansInRange(t *testing.T) {
	cfg := DefaultConfig(10, 27)
	cfg.VRange = [2]float64{0.3, 0.9}
	e := newEnv(t, cfg)
	for m := 0; m < cfg.SCNs; m++ {
		for f := 0; f < cfg.Cells; f++ {
			if u := e.MeanReward(m, f); u < 0 || u > 1 {
				t.Fatalf("uMean[%d][%d] = %v", m, f, u)
			}
			if v := e.MeanLikelihood(m, f); v < 0.3 || v > 0.9 {
				t.Fatalf("vMean[%d][%d] = %v outside configured range", m, f, v)
			}
			if q := e.MeanConsumption(m, f); q < 1 || q > 2 {
				t.Fatalf("qMean[%d][%d] = %v", m, f, q)
			}
		}
	}
}

func TestDeterministicConstruction(t *testing.T) {
	cfg := DefaultConfig(5, 9)
	a, _ := New(cfg, rng.New(7))
	b, _ := New(cfg, rng.New(7))
	for m := 0; m < 5; m++ {
		for f := 0; f < 9; f++ {
			if a.MeanReward(m, f) != b.MeanReward(m, f) {
				t.Fatal("same seed produced different environments")
			}
		}
	}
}

func TestDrawStatistics(t *testing.T) {
	cfg := DefaultConfig(2, 4)
	e := newEnv(t, cfg)
	r := rng.New(9)
	const n = 30000
	var sumU, sumV, sumQ float64
	for i := 0; i < n; i++ {
		o := e.Draw(1, 2, r)
		if o.U < 0 || o.U > 1 {
			t.Fatalf("U realisation %v out of [0,1]", o.U)
		}
		if o.Q < 1 || o.Q > 2 {
			t.Fatalf("Q realisation %v out of [1,2]", o.Q)
		}
		sumU += o.U
		sumV += o.V()
		sumQ += o.Q
	}
	if got, want := sumU/n, e.MeanReward(1, 2); math.Abs(got-want) > 0.03 {
		t.Fatalf("empirical U mean %v vs %v", got, want)
	}
	if got, want := sumV/n, e.MeanLikelihood(1, 2); math.Abs(got-want) > 0.02 {
		t.Fatalf("empirical completion rate %v vs %v", got, want)
	}
	if got, want := sumQ/n, e.MeanConsumption(1, 2); math.Abs(got-want) > 0.03 {
		t.Fatalf("empirical Q mean %v vs %v", got, want)
	}
}

func TestOutcomeCompound(t *testing.T) {
	o := Outcome{U: 0.8, Completed: true, Q: 1.6}
	if g := o.Compound(); math.Abs(g-0.5) > 1e-12 {
		t.Fatalf("compound = %v", g)
	}
	o.Completed = false
	if o.Compound() != 0 {
		t.Fatal("failed task should yield zero compound reward")
	}
	if o.V() != 0 || (Outcome{Completed: true}).V() != 1 {
		t.Fatal("V indicator wrong")
	}
	if (Outcome{U: 1, Completed: true, Q: 0}).Compound() != 0 {
		t.Fatal("zero consumption should not divide by zero")
	}
}

func TestExpectedCompoundMatchesMonteCarlo(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	e := newEnv(t, cfg)
	r := rng.New(11)
	const n = 400000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += e.Draw(0, 0, r).Compound()
	}
	mc := sum / n
	want := e.ExpectedCompound(0, 0)
	if math.Abs(mc-want) > 0.01 {
		t.Fatalf("Monte-Carlo compound %v vs analytic %v", mc, want)
	}
}

func TestDrawWithLikelihoodOverride(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	e := newEnv(t, cfg)
	r := rng.New(12)
	done := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if e.DrawWithLikelihood(0, 0, 0.25, r).Completed {
			done++
		}
	}
	p := float64(done) / n
	if math.Abs(p-0.25) > 0.02 {
		t.Fatalf("override completion rate %v, want 0.25", p)
	}
	// Out-of-range override is clamped, not propagated.
	if e.DrawWithLikelihood(0, 0, 5, r); false {
		t.Fatal()
	}
	if !e.DrawWithLikelihood(0, 0, 5, r).Completed && !e.DrawWithLikelihood(0, 0, 5, r).Completed {
		t.Fatal("likelihood > 1 should clamp to certain completion")
	}
}

func TestStationaryAdvanceIsNoop(t *testing.T) {
	cfg := DefaultConfig(3, 9)
	e := newEnv(t, cfg)
	before := e.MeanReward(1, 4)
	for s := 1; s <= 100; s++ {
		e.Advance(s)
	}
	if e.MeanReward(1, 4) != before {
		t.Fatal("stationary environment drifted")
	}
}

func TestDriftingStaysBoundedAndMoves(t *testing.T) {
	cfg := DefaultConfig(2, 4)
	cfg.Mode = Drifting
	cfg.DriftStd = 0.05
	e := newEnv(t, cfg)
	before := e.MeanReward(0, 0)
	for s := 1; s <= 500; s++ {
		e.Advance(s)
		for m := 0; m < 2; m++ {
			for f := 0; f < 4; f++ {
				if u := e.MeanReward(m, f); u < 0 || u > 1 {
					t.Fatalf("drifting mean escaped [0,1]: %v", u)
				}
			}
		}
	}
	if e.MeanReward(0, 0) == before {
		t.Fatal("drifting environment never moved")
	}
}

func TestPiecewiseSwitches(t *testing.T) {
	cfg := DefaultConfig(1, 8)
	cfg.Mode = Piecewise
	cfg.SwitchEvery = 50
	e := newEnv(t, cfg)
	before := make([]float64, 8)
	for f := range before {
		before[f] = e.MeanReward(0, f)
	}
	for s := 1; s < 50; s++ {
		e.Advance(s)
		if e.MeanReward(0, 0) != before[0] {
			t.Fatalf("piecewise switched early at slot %d", s)
		}
	}
	e.Advance(50)
	changed := 0
	for f := range before {
		if e.MeanReward(0, f) != before[f] {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("piecewise never switched at the boundary")
	}
}

func TestBestExpectedCompound(t *testing.T) {
	cfg := DefaultConfig(2, 16)
	e := newEnv(t, cfg)
	best := e.BestExpectedCompound(0)
	for f := 0; f < 16; f++ {
		if e.ExpectedCompound(0, f) > best {
			t.Fatal("BestExpectedCompound not the max")
		}
	}
	if best <= 0 || best > 1 {
		t.Fatalf("best compound %v implausible", best)
	}
}

func TestZeroNoiseDrawsAreMeans(t *testing.T) {
	cfg := DefaultConfig(1, 1)
	cfg.UNoise = 0
	cfg.QNoise = 0
	e := newEnv(t, cfg)
	r := rng.New(13)
	o := e.Draw(0, 0, r)
	if o.U != e.MeanReward(0, 0) {
		t.Fatalf("zero-noise U %v != mean %v", o.U, e.MeanReward(0, 0))
	}
	if math.Abs(o.Q-e.MeanConsumption(0, 0)) > 1e-12 {
		t.Fatalf("zero-noise Q %v != mean %v", o.Q, e.MeanConsumption(0, 0))
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{Stationary, Drifting, Piecewise, Mode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}

// BenchmarkDraw times one outcome draw at the paper's shape (30 SCNs, 27
// cells): a truncated-normal reward, a uniform consumption and a
// Bernoulli completion. It allocates nothing.
func BenchmarkDraw(b *testing.B) {
	e := MustNew(DefaultConfig(30, 27), rng.New(1))
	r := rng.New(2)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += e.Draw(i%30, i%27, r).Q
	}
	drawSink = sink
}

var drawSink float64

// Draw is called for every executed task of every slot, so it must stay
// off the heap.
func TestDrawAllocFree(t *testing.T) {
	e := MustNew(DefaultConfig(30, 27), rng.New(1))
	root := rng.New(2)
	var r rng.Stream
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		root.DeriveInto(uint64(i), &r)
		_ = e.Draw(i%30, i%27, &r)
		i++
	})
	if avg != 0 {
		t.Fatalf("Draw allocates %.1f objects per call, want 0", avg)
	}
}

func TestDrawMBS(t *testing.T) {
	cfg := DefaultConfig(2, 4)
	e := newEnv(t, cfg)
	r := rng.New(21)
	const n = 30000
	var sumU, done float64
	for i := 0; i < n; i++ {
		o := e.DrawMBS(1, 0.9, 1.0, r)
		if o.U < 0 || o.U > 1 || o.Q < 1 || o.Q > 2 {
			t.Fatalf("MBS outcome out of range: %+v", o)
		}
		sumU += o.U
		done += o.V()
	}
	if got, want := sumU/n, e.MeanRewardMBS(1); math.Abs(got-want) > 0.03 {
		t.Fatalf("MBS reward mean %v vs %v", got, want)
	}
	if got := done / n; math.Abs(got-0.9) > 0.02 {
		t.Fatalf("MBS completion rate %v, want 0.9", got)
	}
}

func TestDrawMBSPenalty(t *testing.T) {
	cfg := DefaultConfig(1, 2)
	cfg.UNoise = 0
	e := newEnv(t, cfg)
	r := rng.New(22)
	full := e.DrawMBS(0, 1, 1.0, r)
	half := e.DrawMBS(0, 1, 0.5, r)
	if math.Abs(half.U-full.U/2) > 1e-12 {
		t.Fatalf("penalty not applied: %v vs %v", half.U, full.U)
	}
	// Penalty outside [0,1] clamps.
	over := e.DrawMBS(0, 1, 5, r)
	if over.U > e.MeanRewardMBS(0)+1e-12 {
		t.Fatal("penalty > 1 must clamp")
	}
}

func TestMBSIndependentOfSCNMeans(t *testing.T) {
	// Two environments differing only in the derivation labels would be
	// hard to build; instead check the MBS profile is not simply a copy of
	// any SCN row.
	cfg := DefaultConfig(3, 16)
	e := newEnv(t, cfg)
	for m := 0; m < 3; m++ {
		same := 0
		for f := 0; f < 16; f++ {
			if e.MeanRewardMBS(f) == e.MeanReward(m, f) {
				same++
			}
		}
		if same == 16 {
			t.Fatalf("MBS reward profile identical to SCN %d", m)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on bad config")
		}
	}()
	MustNew(Config{}, rng.New(1))
}

func TestExpectedCompoundWithLikelihood(t *testing.T) {
	e := newEnv(t, DefaultConfig(1, 2))
	base := e.ExpectedCompoundWithLikelihood(0, 0, 1)
	half := e.ExpectedCompoundWithLikelihood(0, 0, 0.5)
	if math.Abs(half-base/2) > 1e-12 {
		t.Fatalf("likelihood scaling wrong: %v vs %v", half, base)
	}
	// Clamped outside [0,1].
	if e.ExpectedCompoundWithLikelihood(0, 0, 7) != base {
		t.Fatal("likelihood > 1 should clamp")
	}
}
