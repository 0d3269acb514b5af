package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// setupProbes is how many extra set-up-only runs paper-sim makes per
// invocation (workload cut to empty slots), so setup_s is a median of
// enough samples to be steady.
const setupProbes = 15

// ratioSlots is the prefix of each paper-sim run that reward_ratio
// compares against the oracle.
const ratioSlots = 2000

// simRun is everything one paper-sim invocation measured: repeated
// sim.Run calls of LFSC on sim.PaperScenario() with live generation.
type simRun struct {
	host        hostClock
	setupS      []float64
	stolen      time.Duration // by the host, over the repetitions
	slotNS      []float64     // per-slot wall, all repetitions pooled
	reward      float64       // cumulative reward, identical for every repetition
	prefix      float64       // cumulative reward of the first ratioSlots slots
	oracle      float64       // the oracle's over the same slots
	reps, slots int
	cpuUS       float64 // process CPU over the repetitions, reference samples excluded
	p1          procSnap
	wallNS      float64 // Σ sim.Run wall (set-up included) over repetitions

	nextNS, decideNS, observeNS, restNS []float64 // layers only
	tasks, assigned, capSum             float64
}

// runSim makes the set-up probes, then repeats full runs while another
// would still end within the budget (at least two, so the reward can be
// checked to repeat exactly). With layers on, every call the run makes
// into the generator and the policy is timed.
func runSim(seed uint64, budget time.Duration, layers bool) (*simRun, error) {
	r := &simRun{}
	for i := 0; i < setupProbes; i++ {
		// Every set-up starts from a collected heap, so the figure does
		// not depend on what earlier runs left behind.
		runtime.GC()
		c := newSimClock(false, 0, 0, &r.host)
		sc, f := clocked(emptyPaperScenario(), sim.LFSCFactory(nil), c)
		if _, err := sim.Run(sc, f, seed); err != nil {
			return nil, err
		}
		c.finish()
		r.setupS = append(r.setupS, c.setup().Seconds())
	}

	p0, err := readProc(0)
	if err != nil {
		return nil, err
	}
	stolen0, err := readStolen()
	if err != nil {
		return nil, err
	}
	paused := r.host.spent
	var elapsed, last time.Duration
	for r.reps < 2 || elapsed+last <= budget {
		runtime.GC()
		base := sim.PaperScenario()
		repPaused := r.host.spent
		c := newSimClock(layers, base.Cfg.Capacity, base.Cfg.T, &r.host)
		sc, f := clocked(base, sim.LFSCFactory(nil), c)
		series, err := sim.Run(sc, f, seed)
		if err != nil {
			return nil, err
		}
		end := c.finish()
		if c.nextIntoCalls != base.Cfg.T || c.nextCalls != 0 {
			return nil, fmt.Errorf("sim.Run left the pooled generator path (%d NextInto, %d Next calls)", c.nextIntoCalls, c.nextCalls)
		}
		reward := sum(series.Reward)
		if r.reps > 0 && math.Float64bits(reward) != math.Float64bits(r.reward) {
			return nil, fmt.Errorf("paper-sim reward did not repeat: run %d %x, run 1 %x", r.reps+1, reward, r.reward)
		}
		r.reward = reward
		r.prefix = sum(series.Reward[:ratioSlots])
		r.reps++
		r.slots += base.Cfg.T
		r.setupS = append(r.setupS, c.setup().Seconds())
		r.slotNS = append(r.slotNS, c.slotNS...)
		r.wallNS += float64(end.Sub(c.start) - (r.host.spent - repPaused))
		if layers {
			r.nextNS = append(r.nextNS, c.nextNS...)
			r.decideNS = append(r.decideNS, c.decideNS...)
			r.observeNS = append(r.observeNS, c.observeNS...)
			r.restNS = append(r.restNS, c.restNS()...)
			r.tasks += c.tasks
			r.assigned += c.assigned
			r.capSum += c.capSum
		}
		last = end.Sub(c.start)
		elapsed += last
	}
	if r.p1, err = readProc(0); err != nil {
		return nil, err
	}
	stolen1, err := readStolen()
	if err != nil {
		return nil, err
	}
	r.stolen = stolen1 - stolen0
	r.cpuUS = r.p1.cpuUS() - p0.cpuUS() - float64((r.host.spent - paused).Microseconds())
	return r, nil
}

// oracleReward is the ground-truth oracle's cumulative reward over the
// first slots slots of sc at seed: the reference reward_ratio divides
// by, which takes the seeded environment's own reward level out of the
// figure.
func oracleReward(sc *sim.Scenario, slots int, seed uint64) (float64, error) {
	cp := *sc
	cp.Cfg.T = slots
	series, err := sim.Run(&cp, sim.OracleFactory(false), seed)
	if err != nil {
		return 0, fmt.Errorf("oracle sim.Run: %w", err)
	}
	return sum(series.Reward), nil
}

// emptyPaperScenario is the paper scenario with its workload cut to
// empty slots: a run over it pays the full set-up and almost nothing
// else.
func emptyPaperScenario() *sim.Scenario {
	sc := sim.PaperScenario()
	newGen := sc.NewGenerator
	sc.NewGenerator = func(r *rng.Stream) (trace.Generator, error) {
		g, err := newGen(r)
		if err != nil {
			return nil, err
		}
		into, ok := g.(trace.IntoGenerator)
		if !ok {
			return nil, fmt.Errorf("paper generator is not pooled")
		}
		return truncate(into, 0), nil
	}
	return sc
}

// endToEnd derives the end-to-end metrics of an untraced run (and the
// step p99) at host scale s. A "step" of the offline simulator is one
// simulated slot.
func (r *simRun) endToEnd(f float64) map[string]float64 {
	slot := sortedCopy(r.slotNS)
	return map[string]float64{
		"setup_s":         median(r.setupS) * f,
		"slots_per_s":     1e9 / r.medianSlotNS(f),
		"step_p50_ms":     percentile(slot, p50) / 1e6 * f,
		"step_p99_ms":     percentile(slot, p99) / 1e6 * f,
		"reward_ratio":    r.prefix / r.oracle,
		"cpu_us_per_slot": r.cpuUS / float64(r.slots) * f,
		"peak_rss_mb":     float64(r.p1.HWMKB) / 1024,
	}
}

// medianSlotNS is the median slot's wall time at host speed factor f.
func (r *simRun) medianSlotNS(f float64) float64 { return median(r.slotNS) * f }

// layers derives the per-layer metrics and table of a traced run.
func (r *simRun) layers(m map[string]float64) []layerRow {
	wall := r.wallNS / float64(r.slots)
	rows := []layerRow{
		newRow("trace.next", r.nextNS, wall, true),
		newRow("core.decide", r.decideNS, wall, true),
		newRow("core.observe", r.observeNS, wall, true),
		newRow("sim.rest", r.restNS, wall, true),
	}
	m["trace.next_us"] = rows[0].s.Mean / 1e3
	m["core.decide_us"] = rows[1].s.Mean / 1e3
	m["core.decide_p99_us"] = rows[1].s.P99 / 1e3
	m["core.observe_us"] = rows[2].s.Mean / 1e3
	m["core.observe_p99_us"] = rows[2].s.P99 / 1e3
	m["sim.rest_us"] = rows[3].s.Mean / 1e3
	m["core.tasks_per_slot"] = r.tasks / float64(r.slots)
	m["core.assigned_per_slot"] = r.assigned / float64(r.slots)
	m["core.fill_ratio"] = r.assigned / r.capSum
	m["attributed_share"] = attributed(rows) / wall
	return rows
}
