package main

import (
	"math"
	"sync"
	"testing"

	"lfsc/internal/env"
	"lfsc/internal/obs"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

func smallScenario(T int) *sim.Scenario {
	cfg := trace.SyntheticConfig{SCNs: 4, MinTasks: 2, MaxTasks: 5, Overlap: 0.3, LatencySensitiveFrac: 0.5}
	return &sim.Scenario{
		Cfg: sim.Config{T: T, Capacity: 3, Alpha: 1, Beta: 5, H: 3},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(cfg, r)
		},
		EnvCfg: env.DefaultConfig(4, 27),
	}
}

func paperScenario(T int) *sim.Scenario {
	sc := sim.PaperScenario()
	sc.Cfg.T = T
	return sc
}

// countSink counts policy snapshots.
type countSink struct {
	mu sync.Mutex
	n  int
}

func (s *countSink) OnSnapshot(*obs.PolicySnapshot) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
}

// TestDecoratedRunIsBitIdentical pins that the traced run measures the
// same program: wrapping the generator and the policy changes neither
// the reward nor the path sim.Run takes (pooled generation, snapshot
// sampling).
func TestDecoratedRunIsBitIdentical(t *testing.T) {
	const T, seed = 300, 7
	for name, mk := range map[string]func(int) *sim.Scenario{"small": smallScenario, "paper": paperScenario} {
		plain, err := sim.Run(mk(T), sim.LFSCFactory(nil), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, layers := range []bool{false, true} {
			var sink countSink
			base := mk(T)
			base.Cfg.Obs = &obs.Options{SnapshotEvery: 50, SnapshotSink: &sink}
			c := newSimClock(layers, base.Cfg.Capacity, T, &hostClock{})
			sc, f := clocked(base, sim.LFSCFactory(nil), c)
			got, err := sim.Run(sc, f, seed)
			if err != nil {
				t.Fatal(err)
			}
			c.finish()
			if a, b := sum(got.Reward), sum(plain.Reward); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s layers=%v: decorated reward %x != plain %x", name, layers, a, b)
			}
			if c.nextIntoCalls != T || c.nextCalls != 0 {
				t.Errorf("%s layers=%v: %d NextInto / %d Next calls, want %d / 0", name, layers, c.nextIntoCalls, c.nextCalls, T)
			}
			if sink.n != T/50 {
				t.Errorf("%s layers=%v: %d snapshots reached the sink, want %d", name, layers, sink.n, T/50)
			}
			if len(c.slotNS) != T || c.setup() <= 0 {
				t.Errorf("%s layers=%v: %d slot times, setup %v", name, layers, len(c.slotNS), c.setup())
			}
			if layers {
				if len(c.decideNS) != T || len(c.observeNS) != T || len(c.nextNS) != T {
					t.Errorf("%s: layer samples %d/%d/%d, want %d", name, len(c.nextNS), len(c.decideNS), len(c.observeNS), T)
				}
				for i, r := range c.restNS() {
					if r < 0 {
						t.Fatalf("%s: slot %d has negative residual %v", name, i, r)
					}
				}
				if c.assigned == 0 || c.assigned > c.capSum {
					t.Errorf("%s: assigned %v of capacity %v", name, c.assigned, c.capSum)
				}
			}
		}
	}
}

// plainGen hides the pooled interface of the generator it wraps.
type plainGen struct{ trace.Generator }

// plainPolicy hides the optional interfaces of the policy it wraps.
type plainPolicy struct{ policy.Policy }

func TestWrappersKeepOptionalInterfaces(t *testing.T) {
	g, err := trace.NewSynthetic(trace.DefaultSyntheticConfig(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	c := newSimClock(true, 20, 0, nil)
	if _, ok := wrapGen(g, c).(trace.IntoGenerator); !ok {
		t.Error("wrapped pooled generator lost trace.IntoGenerator")
	}
	if _, ok := wrapGen(plainGen{g}, c).(trace.IntoGenerator); ok {
		t.Error("wrapped plain generator gained trace.IntoGenerator")
	}

	var pol policy.Policy
	sc := paperScenario(10)
	f := sim.LFSCFactory(nil)
	capture := func(rc *sim.RunContext) (policy.Policy, error) {
		p, err := f(rc)
		pol = p
		return p, err
	}
	if _, err := sim.Run(sc, capture, 1); err != nil {
		t.Fatal(err)
	}
	if _, ok := pol.(obs.Snapshotter); !ok {
		t.Fatal("LFSC is expected to implement obs.Snapshotter")
	}
	if _, ok := wrapPolicy(pol, c).(obs.Snapshotter); !ok {
		t.Error("wrapped LFSC lost obs.Snapshotter")
	}
	if _, ok := wrapPolicy(plainPolicy{pol}, c).(obs.Snapshotter); ok {
		t.Error("wrapped plain policy gained obs.Snapshotter")
	}
}

// TestTruncatedRunKeepsPrefix pins the offline reference of a served
// run: cutting the workload after n slots leaves the first n slots'
// rewards bit-identical to a full run at the same horizon.
func TestTruncatedRunKeepsPrefix(t *testing.T) {
	const T, n, seed = 400, 150, 3
	full, err := sim.Run(smallScenario(T), sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	cut := smallScenario(T)
	newGen := cut.NewGenerator
	cut.NewGenerator = func(r *rng.Stream) (trace.Generator, error) {
		g, err := newGen(r)
		if err != nil {
			return nil, err
		}
		return truncate(g.(trace.IntoGenerator), n), nil
	}
	got, err := sim.Run(cut, sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := sum(got.Reward[:n]), sum(full.Reward[:n]); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("truncated prefix reward %x != full run's %x", a, b)
	}
	if rest := sum(got.Reward[n:]); rest != 0 {
		t.Fatalf("empty slots earned reward %v", rest)
	}
}
