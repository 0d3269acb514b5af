package main

import (
	"time"

	"lfsc/internal/obs"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// simClock records one sim.Run from outside, through decorators on the
// trace.Generator and policy.Policy the run is built with. The slot
// boundary is the generator call: the time from one slot's generator
// call to the next is that slot's wall time, and the first call marks
// the end of set-up. With layers on, it also times the generator,
// Decide and Observe calls and counts tasks and assignments; the rest of
// each slot (view build, environment realisation, metrics) is sim's own.
type simClock struct {
	layers   bool
	capacity int
	host     *hostClock // nil: no reference samples

	start, first, prev time.Time
	slotNS             []float64 // per-slot wall, slot t = index t

	nextNS, decideNS, observeNS []float64 // per slot, layers only
	tasks, assigned, capSum     float64   // sums over slots, layers only
	nextCalls, nextIntoCalls    int
}

// newSimClock starts a clock for one run; call before sim.Run. A non-nil
// host takes its reference samples at slot boundaries, outside every
// measured interval.
func newSimClock(layers bool, capacity, slots int, host *hostClock) *simClock {
	c := &simClock{layers: layers, capacity: capacity, host: host, slotNS: make([]float64, 0, slots)}
	if layers {
		c.nextNS = make([]float64, 0, slots)
		c.decideNS = make([]float64, 0, slots)
		c.observeNS = make([]float64, 0, slots)
	}
	c.start = time.Now()
	return c
}

// slotStart marks a slot boundary at now and returns the time the slot
// starts: now, or the end of a reference sample taken in between.
func (c *simClock) slotStart(now time.Time) time.Time {
	if c.first.IsZero() {
		c.first = now
	} else {
		c.slotNS = append(c.slotNS, float64(now.Sub(c.prev)))
	}
	c.prev = c.host.tick(now)
	return c.prev
}

// finish closes the last slot; call when sim.Run returns.
func (c *simClock) finish() time.Time {
	end := time.Now()
	if !c.first.IsZero() {
		c.slotNS = append(c.slotNS, float64(end.Sub(c.prev)))
	}
	return end
}

// setup is the time from newSimClock to the first slot.
func (c *simClock) setup() time.Duration { return c.first.Sub(c.start) }

// restNS returns each slot's time outside the generator, Decide and
// Observe calls (layers only).
func (c *simClock) restNS() []float64 {
	out := make([]float64, len(c.slotNS))
	for t := range out {
		out[t] = c.slotNS[t] - c.nextNS[t] - c.decideNS[t] - c.observeNS[t]
	}
	return out
}

// clockedGen decorates a trace.Generator with the slot clock.
type clockedGen struct {
	inner trace.Generator
	c     *simClock
}

func (g *clockedGen) SCNs() int      { return g.inner.SCNs() }
func (g *clockedGen) MaxPerSCN() int { return g.inner.MaxPerSCN() }

func (g *clockedGen) Next(t int) *trace.Slot {
	g.c.nextCalls++
	now := g.c.slotStart(time.Now())
	s := g.inner.Next(t)
	if g.c.layers {
		g.c.nextNS = append(g.c.nextNS, float64(time.Since(now)))
	}
	return s
}

// clockedIntoGen is clockedGen over a pooled generator. It exists so the
// decorator keeps trace.IntoGenerator: without it sim.Run would fall
// back to the allocating Next path and the benchmark would measure a
// different program.
type clockedIntoGen struct {
	clockedGen
	into trace.IntoGenerator
}

func (g *clockedIntoGen) NextInto(t int, s *trace.Slot) {
	g.c.nextIntoCalls++
	now := g.c.slotStart(time.Now())
	g.into.NextInto(t, s)
	if g.c.layers {
		g.c.nextNS = append(g.c.nextNS, float64(time.Since(now)))
	}
}

// wrapGen decorates gen, keeping its optional pooled interface.
func wrapGen(gen trace.Generator, c *simClock) trace.Generator {
	base := clockedGen{inner: gen, c: c}
	if into, ok := gen.(trace.IntoGenerator); ok {
		return &clockedIntoGen{clockedGen: base, into: into}
	}
	return &base
}

// clockedPolicy decorates a policy.Policy with Decide/Observe timers and
// the per-slot task, assignment and capacity counts.
type clockedPolicy struct {
	inner policy.Policy
	c     *simClock
}

func (p *clockedPolicy) Name() string { return p.inner.Name() }

func (p *clockedPolicy) Decide(view *policy.SlotView) []int {
	t0 := time.Now()
	a := p.inner.Decide(view)
	p.c.decideNS = append(p.c.decideNS, float64(time.Since(t0)))
	p.c.tasks += float64(view.NumTasks)
	for _, m := range a {
		if m >= 0 {
			p.c.assigned++
		}
	}
	for m := range view.SCNs {
		if len(view.SCNs[m].Cover) > 0 {
			p.c.capSum += float64(view.CapAt(m, p.c.capacity))
		}
	}
	return a
}

func (p *clockedPolicy) Observe(view *policy.SlotView, assigned []int, fb *policy.Feedback) {
	t0 := time.Now()
	p.inner.Observe(view, assigned, fb)
	p.c.observeNS = append(p.c.observeNS, float64(time.Since(t0)))
}

// clockedSnapPolicy keeps obs.Snapshotter, so snapshot sampling still
// reaches a decorated learner.
type clockedSnapPolicy struct {
	clockedPolicy
	snap obs.Snapshotter
}

func (p *clockedSnapPolicy) Snapshot(into *obs.PolicySnapshot) { p.snap.Snapshot(into) }

// wrapPolicy decorates pol, keeping its optional Snapshotter interface.
func wrapPolicy(pol policy.Policy, c *simClock) policy.Policy {
	base := clockedPolicy{inner: pol, c: c}
	if sn, ok := pol.(obs.Snapshotter); ok {
		return &clockedSnapPolicy{clockedPolicy: base, snap: sn}
	}
	return &base
}

// clocked returns a copy of sc whose generator reports to c, and (when
// c records layers) a factory whose policy does too.
func clocked(sc *sim.Scenario, factory sim.Factory, c *simClock) (*sim.Scenario, sim.Factory) {
	cp := *sc
	newGen := sc.NewGenerator
	cp.NewGenerator = func(r *rng.Stream) (trace.Generator, error) {
		g, err := newGen(r)
		if err != nil {
			return nil, err
		}
		return wrapGen(g, c), nil
	}
	if !c.layers {
		return &cp, factory
	}
	return &cp, func(rc *sim.RunContext) (policy.Policy, error) {
		p, err := factory(rc)
		if err != nil {
			return nil, err
		}
		return wrapPolicy(p, c), nil
	}
}

// truncatedGen serves its inner generator's first limit slots and empty
// slots after that. A sim.Run over it at the daemon's horizon reproduces
// a served run of limit slots without paying for the unserved remainder.
type truncatedGen struct {
	inner trace.IntoGenerator
	limit int
	empty [][]int
}

func (g *truncatedGen) SCNs() int      { return g.inner.SCNs() }
func (g *truncatedGen) MaxPerSCN() int { return g.inner.MaxPerSCN() }

func (g *truncatedGen) Next(t int) *trace.Slot {
	s := &trace.Slot{}
	g.NextInto(t, s)
	return s
}

func (g *truncatedGen) NextInto(t int, s *trace.Slot) {
	if t < g.limit {
		g.inner.NextInto(t, s)
		return
	}
	s.Tasks = s.Tasks[:0]
	s.Coverage = g.empty
}

func truncate(gen trace.IntoGenerator, limit int) *truncatedGen {
	return &truncatedGen{inner: gen, limit: limit, empty: make([][]int, gen.SCNs())}
}
