// Latency: feed LFSC's offloading decisions into a per-SCN queueing model
// of the edge server (internal/queueing) to study the latency the paper
// abstracts away ("we assume all tasks can be processed in one time slot").
// The example compares FIFO vs processor-sharing service at the same load
// and checks the single-slot abstraction: how often does a task's sojourn
// actually exceed one slot at the paper's operating point? It exits 1
// when, under either discipline, maxOverShare or more of the tasks take
// longer than one slot.
//
//	go run ./examples/latency
package main

import (
	"fmt"
	"log"
	"os"

	"lfsc"

	"lfsc/internal/env"
	"lfsc/internal/policy"
	"lfsc/internal/queueing"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/stats"
	"lfsc/internal/trace"
)

const (
	numSCNs  = 8
	capacity = 5
	horizon  = 600
	// serviceRate is the per-slot work each SCN server drains. Accepted
	// tasks bring work proportional to their input size; the rate is set
	// so the server runs at ~80% utilisation at full beam usage.
	serviceRate = 75.0
	// maxOverShare is the verdict's bound: the one-slot abstraction holds
	// for the bulk of tasks only while fewer than this share of them take
	// longer than one slot.
	maxOverShare = 0.10
)

func main() {
	var failed []queueing.Discipline
	for _, disc := range []queueing.Discipline{queueing.FIFO, queueing.PS} {
		vals, over := run(disc)
		fmt.Printf("%-5s service: mean sojourn %.2f slots, p95 %.2f, >1 slot: %.1f%%\n",
			disc, vals.summary.Mean(), p95(vals), 100*over)
		if over >= maxOverShare {
			failed = append(failed, disc)
		}
	}
	lam, mu := 0.8*serviceRate, serviceRate
	fmt.Printf("\nM/M/1 reference at ρ=0.8 (work units): E[T] = %.2f slots\n",
		queueing.MM1MeanSojourn(lam/12.5, mu/12.5)) // per-task units: mean work 12.5
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "latency: %v put %.0f%% or more of the tasks over one slot; "+
			"the one-slot abstraction does not hold at this operating point\n", failed, 100*maxOverShare)
		os.Exit(1)
	}
	fmt.Printf("\nThe paper's one-slot-per-task abstraction holds for the bulk of\n")
	fmt.Printf("tasks at this operating point (under %.0f%% over one slot with either\n", 100*maxOverShare)
	fmt.Println("discipline); the tail above one slot is what the multi-slot")
	fmt.Println("extension (Config.MultiSlot) models explicitly.")
}

type probeValues struct {
	summary *stats.Summary
	raw     []float64
	over    int
	total   int
}

func run(disc queueing.Discipline) (*probeValues, float64) {
	sc := &lfsc.Scenario{
		Cfg: lfsc.Config{T: horizon, Capacity: capacity, Alpha: 2, Beta: 8, H: 3},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(trace.SyntheticConfig{
				SCNs: numSCNs, MinTasks: 8, MaxTasks: 20, Overlap: 0.3,
			}, r)
		},
		EnvCfg: env.DefaultConfig(numSCNs, 27),
	}
	servers := make([]*queueing.Server, numSCNs)
	for m := range servers {
		servers[m] = queueing.MustNewServer(serviceRate, disc)
	}
	vals := &probeValues{summary: &stats.Summary{}}
	factory := func(rc *sim.RunContext) (policy.Policy, error) {
		inner, err := sim.LFSCFactory(nil)(rc)
		if err != nil {
			return nil, err
		}
		return &probePolicy{inner: inner, servers: servers, vals: vals}, nil
	}
	if _, err := sim.Run(sc, factory, 42); err != nil {
		log.Fatal(err)
	}
	return vals, float64(vals.over) / float64(vals.total)
}

// probePolicy forwards decisions and mirrors accepted tasks into queues.
type probePolicy struct {
	inner   policy.Policy
	servers []*queueing.Server
	vals    *probeValues
	now     int
}

func (p *probePolicy) Name() string { return p.inner.Name() }

func (p *probePolicy) Decide(view *policy.SlotView) []int {
	assigned := p.inner.Decide(view)
	// Mirror: each accepted task submits work ∝ its context's input-size
	// coordinate (5..20 Mbit mapped back from [0,1]).
	ctxs := view.Ctxs()
	for m := range view.SCNs {
		for _, idx := range view.SCNs[m].Cover {
			if assigned[idx] != m {
				continue
			}
			work := 5 + 15*ctxs[idx][0]
			_ = p.servers[m].Submit(int64(p.now)<<20|int64(idx), work, p.now)
		}
	}
	for m := range p.servers {
		for _, c := range p.servers[m].Step(p.now) {
			s := float64(c.Sojourn())
			p.vals.summary.Add(s)
			p.vals.total++
			if c.Sojourn() > 1 {
				p.vals.over++
			}
			p.vals.raw = append(p.vals.raw, s)
		}
	}
	p.now++
	return assigned
}

func (p *probePolicy) Observe(view *policy.SlotView, assigned []int, fb *policy.Feedback) {
	p.inner.Observe(view, assigned, fb)
}

func p95(v *probeValues) float64 { return stats.Quantile(v.raw, 0.95) }
