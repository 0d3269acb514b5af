package serve

import (
	"fmt"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/hypercube"
	"lfsc/internal/obs"
	"lfsc/internal/rng"
	"lfsc/internal/scenario"
	"lfsc/internal/task"
	"lfsc/internal/trace"
)

// ReplayScenario pins the (workload, environment, partition, seed) tuple
// a load generator replays against a daemon. It deliberately mirrors the
// offline simulator's stream derivation — generator from Derive(1),
// environment from Derive(2), policy from Derive(3), realisation root
// from Derive(4) of the same master seed — so a daemon configured with
// EngineConfig and driven by a Replayer produces decisions and rewards
// bit-identical to sim.Run on the same scenario (see the serve tests).
type ReplayScenario struct {
	// Synthetic is the workload model (the paper's generative trace).
	Synthetic trace.SyntheticConfig
	// EnvCfg is the environment recipe; Cells and SCNs are overwritten
	// from the partition and generator, as the simulator does.
	EnvCfg env.Config
	// Capacity, Alpha, Beta, H, T mirror sim.Config.
	Capacity int
	Alpha    float64
	Beta     float64
	H        int
	T        int
	// UseLatencyContext selects the 4-D context.
	UseLatencyContext bool
	// Seed is the master seed shared by daemon and replayer.
	Seed uint64
	// Scenario, when set, is the timeline of SCN dynamics the daemon
	// serves under (EngineConfig forwards it). The replayer itself never
	// masks: clients submit full specs and the daemon masks at its view
	// boundary, exactly as sim.Run does — so the client-side reward
	// (drawn per returned assignment) still matches daemon and sim.
	Scenario *scenario.Timeline
}

func (sc *ReplayScenario) dims() int {
	if sc.UseLatencyContext {
		return task.ContextDims + 1
	}
	return task.ContextDims
}

// EngineConfig derives the daemon configuration that matches this
// scenario: same learner shape, same schedule inputs, same seed. The
// serving knobs (queues, slot clock, checkpointing) are left zero for
// the caller to fill.
func (sc *ReplayScenario) EngineConfig() (Config, error) {
	if err := sc.Synthetic.Validate(); err != nil {
		return Config{}, fmt.Errorf("serve: scenario: %w", err)
	}
	gen, err := trace.NewSynthetic(sc.Synthetic, rng.New(sc.Seed).Derive(1))
	if err != nil {
		return Config{}, fmt.Errorf("serve: scenario: %w", err)
	}
	return Config{
		SCNs:     gen.SCNs(),
		Capacity: sc.Capacity,
		Alpha:    sc.Alpha,
		Beta:     sc.Beta,
		Dims:     sc.dims(),
		H:        sc.H,
		KMax:     gen.MaxPerSCN(),
		Horizon:  sc.T,
		Seed:     sc.Seed,
		Scenario: sc.Scenario,
	}, nil
}

// Replayer drives a daemon through a seeded trace in lockstep: it
// regenerates the workload slot by slot, submits each slot as one
// closing request, computes the realised outcomes for the returned
// assignment with the simulator's exact common-random-number scheme, and
// reports them back. It also accumulates the client-side cumulative
// reward, which must match both the daemon's accumulator and an offline
// sim.Run — the three-way equivalence the serve tests pin.
//
// By default the replayer rides the batched /v1/step endpoint: slot t's
// outcome reports travel with slot t+1's submission, one HTTP round trip
// per slot, with the final slot's reports delivered by Flush (Run calls
// it). SetUseStep(false) selects the classic two-request protocol
// (/v1/submit + /v1/report); both paths are bit-identical.
type Replayer struct {
	sc       ReplayScenario
	gen      *trace.Synthetic
	env      *env.Env
	part     *hypercube.Partition
	realRoot *rng.Stream

	next      int
	cumReward float64
	noStep    bool

	slotBuf  trace.Slot
	ctxBuf   []float64
	specs    []TaskSpec
	scnLists [][]int
	cells    []int

	// pendReports holds the realised outcomes of the last decided slot
	// (pendSlot), awaiting delivery on the next step or Flush.
	pendReports []TaskReport
	pendSlot    int

	stepResp StepResponse
	subResp  SubmitResponse

	// Latency is the client-observed request latency histogram (submit,
	// step, and report round-trips), reusing the obs log₂ buckets.
	Latency obs.Histogram
}

// NewReplayer builds the replayer's generator, environment, and
// partition from the scenario, mirroring sim.Run's construction.
func NewReplayer(sc ReplayScenario) (*Replayer, error) {
	master := rng.New(sc.Seed)
	gen, err := trace.NewSynthetic(sc.Synthetic, master.Derive(1))
	if err != nil {
		return nil, fmt.Errorf("serve: replay generator: %w", err)
	}
	part, err := hypercube.New(sc.dims(), sc.H)
	if err != nil {
		return nil, fmt.Errorf("serve: replay partition: %w", err)
	}
	envCfg := sc.EnvCfg
	envCfg.Cells = part.Cells()
	envCfg.SCNs = gen.SCNs()
	e, err := env.New(envCfg, master.Derive(2))
	if err != nil {
		return nil, fmt.Errorf("serve: replay environment: %w", err)
	}
	return &Replayer{
		sc:       sc,
		gen:      gen,
		env:      e,
		part:     part,
		realRoot: master.Derive(4),
	}, nil
}

// SetUseStep selects between the batched /v1/step protocol (true, the
// default) and the classic submit-then-report pair per slot.
func (r *Replayer) SetUseStep(use bool) { r.noStep = !use }

// Slot returns the next slot index the replayer will submit.
func (r *Replayer) Slot() int { return r.next }

// CumReward returns the client-side cumulative compound reward over the
// slots this replayer submitted (skipped slots contribute nothing).
func (r *Replayer) CumReward() float64 { return r.cumReward }

// SkipTo advances the workload and environment through slots
// [next, t) without submitting them — the resume path: a daemon
// restored at slot t needs the replayer's streams positioned exactly
// where an uninterrupted replay would have them.
func (r *Replayer) SkipTo(t int) {
	for ; r.next < t; r.next++ {
		r.env.Advance(r.next)
		r.gen.NextInto(r.next, &r.slotBuf)
	}
}

// SlotResult summarises one replayed slot.
type SlotResult struct {
	Slot     int
	Tasks    int
	Assigned int
	Reward   float64
	Shed     bool
}

// Step replays one slot against the daemon: generate, submit (closing
// the slot, carrying the previous slot's reports on the batched path),
// realise outcomes for the returned assignment, and queue them for the
// next step. A shed submission consumes the slot's draws but teaches the
// daemon nothing (the arrivals were refused — though a piggy-backed
// report part is still absorbed); it is returned with Shed set.
func (r *Replayer) Step(c Conn) (SlotResult, error) {
	t := r.next
	r.next++
	r.env.Advance(t)
	r.gen.NextInto(t, &r.slotBuf)
	n := len(r.slotBuf.Tasks)
	res := SlotResult{Slot: t, Tasks: n}
	if n == 0 {
		return res, nil
	}
	r.buildSpecs()

	var slot, base int
	var assigned []int
	if r.noStep {
		if err := r.Flush(c); err != nil {
			return res, fmt.Errorf("serve: replay slot %d: %w", t, err)
		}
		start := time.Now()
		err := c.SubmitInto(&SubmitRequest{Tasks: r.specs, Close: true}, &r.subResp)
		r.Latency.Observe(start)
		if err != nil {
			if _, shed := err.(*ErrShed); shed {
				res.Shed = true
				return res, nil
			}
			return res, err
		}
		slot, base, assigned = r.subResp.Slot, r.subResp.Base, r.subResp.Assigned
	} else {
		start := time.Now()
		err := c.StepInto(r.pendSlot, r.pendReports, r.specs, true, &r.stepResp)
		r.Latency.Observe(start)
		if err != nil {
			if serr, shed := err.(*ErrShed); shed {
				// The daemon still absorbed the report part (serr.Accepted
				// says how much); either way those reports are spent.
				_ = serr
				r.pendReports = r.pendReports[:0]
				res.Shed = true
				return res, nil
			}
			return res, err
		}
		if len(r.pendReports) > 0 && r.stepResp.ReportError != "" {
			return res, fmt.Errorf("serve: replay slot %d: report part rejected: %s", t, r.stepResp.ReportError)
		}
		r.pendReports = r.pendReports[:0]
		slot, base, assigned = r.stepResp.Slot, r.stepResp.Base, r.stepResp.Assigned
	}
	if len(assigned) != n || base != 0 {
		return res, fmt.Errorf("serve: replay slot %d: daemon returned %d assignments at base %d for %d tasks",
			t, len(assigned), base, n)
	}

	// Realise outcomes with the simulator's derivation: per-slot stream
	// from the realisation root, per-(SCN,task) streams labelled m<<32|i,
	// rewards summed in ascending task order. The reports queue for the
	// next step (or Flush) on the batched path.
	var slotReal, taskReal rng.Stream
	r.realRoot.DeriveInto(uint64(t), &slotReal)
	r.pendReports = r.pendReports[:0]
	r.pendSlot = slot
	slotReward := 0.0
	for idx, m := range assigned {
		if m < 0 {
			continue
		}
		res.Assigned++
		slotReal.DeriveInto(uint64(m)<<32|uint64(idx), &taskReal)
		out := r.env.Draw(m, r.cells[idx], &taskReal)
		slotReward += out.Compound()
		r.pendReports = append(r.pendReports, TaskReport{
			Task: idx, U: out.U, V: out.V(), Q: out.Q,
		})
	}
	r.cumReward += slotReward
	res.Reward = slotReward
	return res, nil
}

// Flush delivers any outcome reports still queued from the last decided
// slot via /v1/report. Run calls it after the final step; long-lived
// callers driving Step directly should Flush before pausing, or the
// daemon's last slot times out waiting.
func (r *Replayer) Flush(c Conn) error {
	if len(r.pendReports) == 0 {
		return nil
	}
	start := time.Now()
	_, err := c.Report(&ReportRequest{Slot: r.pendSlot, Reports: r.pendReports})
	r.Latency.Observe(start)
	if err != nil {
		return err
	}
	r.pendReports = r.pendReports[:0]
	return nil
}

// buildSpecs converts the generated slot into wire specs: packed
// contexts (the same AppendContext packing the simulator uses), per-task
// visible-SCN lists inverted from the coverage rows, and client-side
// cells for outcome draws (Partition.IndexTask, as sim.Run indexes).
func (r *Replayer) buildSpecs() {
	n := len(r.slotBuf.Tasks)
	dims := r.sc.dims()
	lat := r.sc.UseLatencyContext
	if cap(r.specs) < n {
		r.specs = make([]TaskSpec, n)
		r.cells = make([]int, n)
	}
	r.specs = r.specs[:n]
	r.cells = r.cells[:n]
	r.ctxBuf = r.ctxBuf[:0]
	for i, tk := range r.slotBuf.Tasks {
		r.ctxBuf = tk.AppendContext(r.ctxBuf, lat)
		r.cells[i] = r.part.IndexTask(tk, lat)
	}
	for len(r.scnLists) < n {
		r.scnLists = append(r.scnLists, nil)
	}
	for i := 0; i < n; i++ {
		r.scnLists[i] = r.scnLists[i][:0]
	}
	for m, cov := range r.slotBuf.Coverage {
		for _, idx := range cov {
			r.scnLists[idx] = append(r.scnLists[idx], m)
		}
	}
	for i := 0; i < n; i++ {
		ctx := r.ctxBuf[i*dims : (i+1)*dims : (i+1)*dims]
		r.specs[i] = TaskSpec{Ctx: ctx, SCNs: r.scnLists[i]}
	}
}

// ReplayStats aggregates a replay run.
type ReplayStats struct {
	Slots     int
	Tasks     int
	Assigned  int
	ShedSlots int
	CumReward float64
}

// Run replays slots [from, to) in lockstep, skipping up to from first
// and flushing the final slot's reports at the end. onSlot (optional)
// observes each slot's result.
func (r *Replayer) Run(c Conn, from, to int, onSlot func(SlotResult)) (ReplayStats, error) {
	var st ReplayStats
	if from > r.next {
		r.SkipTo(from)
	}
	for t := r.next; t < to; t++ {
		res, err := r.Step(c)
		if err != nil {
			return st, err
		}
		st.Slots++
		st.Tasks += res.Tasks
		st.Assigned += res.Assigned
		if res.Shed {
			st.ShedSlots++
		}
		st.CumReward += res.Reward
		if onSlot != nil {
			onSlot(res)
		}
	}
	if err := r.Flush(c); err != nil {
		return st, fmt.Errorf("serve: replay flush: %w", err)
	}
	return st, nil
}
