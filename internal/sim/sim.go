// Package sim is the time-slotted simulation engine of the reproduction:
// it advances the environment, draws the workload, presents each policy
// with a SlotView, executes the returned assignment against the hidden
// ground truth, measures the paper's metrics, and feeds realised outcomes
// back to the policy (bandit feedback).
//
// Comparability across policies uses common random numbers: the outcome of
// "SCN m executes task i in slot t" is drawn from a stream derived from
// (seed, t, m, i), so two policies making the same decision observe the
// same realisation — the variance-reduction the paper's Fig. 2(b)
// comparison implicitly relies on.
package sim

import (
	"fmt"

	"lfsc/internal/baselines"
	"lfsc/internal/core"
	"lfsc/internal/env"
	"lfsc/internal/hypercube"
	"lfsc/internal/metrics"
	"lfsc/internal/obs"
	"lfsc/internal/parallel"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/scenario"
	"lfsc/internal/task"
	"lfsc/internal/trace"
)

// Config is the system configuration of a simulation scenario.
type Config struct {
	// T is the horizon (number of time slots).
	T int
	// Capacity is c, the per-SCN beam budget per slot (paper: 20).
	Capacity int
	// Alpha is the per-SCN QoS floor (paper: 15).
	Alpha float64
	// Beta is the per-SCN resource ceiling (paper: 27).
	Beta float64
	// H is the hypercube partition granularity h_T (paper: 3).
	H int
	// UseLatencyContext switches to the 4-D context including the latency
	// class (default: the paper's 3-D context).
	UseLatencyContext bool
	// Strict re-validates every assignment a policy returns (useful in
	// tests and when developing custom policies; modest overhead).
	Strict bool
	// MBS enables the paper's future-work extension (Sec. 6): tasks that
	// no SCN selects are offloaded to the macrocell base station instead
	// of being dropped. Nil disables the extension.
	MBS *MBSConfig
	// MultiSlot enables the multi-slot execution extension for tasks with
	// DurationSlots > 1 (see MultiSlotConfig). Nil treats every task as
	// single-slot, the paper's base model.
	MultiSlot *MultiSlotConfig
	// Obs wires the observability layer into the run: per-phase timing,
	// policy-state snapshots, and live run telemetry (see obs.Options).
	// Nil disables everything; the per-slot cost of the disabled path is
	// a handful of nil checks, and an enabled probe never perturbs
	// results — probed runs are bit-identical to unprobed ones.
	Obs *obs.Options
}

// MBSConfig parameterises the macrocell fallback extension. The MBS sits
// behind fibre (no mmWave blockage) but farther from the devices, so
// latency-sensitive tasks lose part of their reward there — the paper's
// motivation for preferring SCNs and sending "tasks that do not restrict
// the latency but consume large amounts of computing resources" to the MBS.
type MBSConfig struct {
	// Capacity bounds fallback executions per slot (backhaul/compute
	// budget); <= 0 means unlimited.
	Capacity int
	// Likelihood is the wired-path completion probability (default 0.98
	// when zero).
	Likelihood float64
	// LatencyPenalty multiplies the reward of latency-sensitive tasks
	// executed at the MBS (default 0.3 when zero; 1 disables the penalty).
	LatencyPenalty float64
}

func (m *MBSConfig) likelihood() float64 {
	if m.Likelihood == 0 {
		return 0.98
	}
	return m.Likelihood
}

func (m *MBSConfig) penalty() float64 {
	if m.LatencyPenalty == 0 {
		return 0.3
	}
	return m.LatencyPenalty
}

// DefaultConfig returns the paper's evaluation configuration.
func DefaultConfig() Config {
	return Config{T: 10000, Capacity: 20, Alpha: 15, Beta: 27, H: 3}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.T <= 0:
		return fmt.Errorf("sim: T must be positive, got %d", c.T)
	case c.Capacity <= 0:
		return fmt.Errorf("sim: capacity must be positive, got %d", c.Capacity)
	case c.Alpha < 0 || c.Beta < 0:
		return fmt.Errorf("sim: alpha/beta must be non-negative")
	case c.H <= 0:
		return fmt.Errorf("sim: H must be positive, got %d", c.H)
	}
	return nil
}

// contextDims returns the context dimensionality implied by the config.
func (c Config) contextDims() int {
	if c.UseLatencyContext {
		return task.ContextDims + 1
	}
	return task.ContextDims
}

// Partition builds the hypercube partition implied by the config.
func (c Config) Partition() (*hypercube.Partition, error) {
	return hypercube.New(c.contextDims(), c.H)
}

// Scenario bundles the configuration with the workload and environment
// recipes. Recipes (not instances) so each run can rebuild identical
// workload/environment from the seed — policies are compared on exactly
// the same draws.
type Scenario struct {
	Cfg Config
	// NewGenerator builds the workload source from a derived stream.
	NewGenerator func(r *rng.Stream) (trace.Generator, error)
	// EnvCfg is the environment configuration; Cells is overwritten with
	// the partition size and SCNs with the generator's SCN count.
	EnvCfg env.Config
	// Dyn optionally imposes a scenario timeline (SCN availability,
	// capacity c_n(t), and α/β budget dynamics — see internal/scenario)
	// on the run. The timeline is consulted at the view-build layer, so
	// every policy sees identical dynamics: a down SCN's coverage row is
	// masked to empty (no edges, frozen learner state) and the per-SCN
	// capacity/budget vectors ride on the SlotView. The timeline is
	// read-only and safe to share across RunAll/RunReplicas goroutines.
	// Nil keeps the static topology, bit-identical to previous releases.
	Dyn *scenario.Timeline
}

// PaperScenario returns the full evaluation setup of Sec. 5: 30 SCNs,
// |D_{m,t}| ∈ [35,100], U,V ~ U[0,1], Q ~ U[1,2], c=20, α=15, β=27, h=3.
func PaperScenario() *Scenario {
	return &Scenario{
		Cfg: DefaultConfig(),
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(trace.DefaultSyntheticConfig(), r)
		},
		EnvCfg: env.DefaultConfig(30, 27),
	}
}

// RunContext is handed to policy factories: everything a policy
// constructor may need.
type RunContext struct {
	Cfg       Config
	Partition *hypercube.Partition
	Gen       trace.Generator
	Env       *env.Env
	Rng       *rng.Stream
}

// Factory constructs a fresh policy for one run.
type Factory func(rc *RunContext) (policy.Policy, error)

// LFSCFactory builds the paper's algorithm with the Theorem-1 schedule;
// mutate is optional and may adjust the config (ablations, overrides).
func LFSCFactory(mutate func(*core.Config)) Factory {
	return func(rc *RunContext) (policy.Policy, error) {
		cfg := core.Config{
			SCNs:     rc.Gen.SCNs(),
			Capacity: rc.Cfg.Capacity,
			Alpha:    rc.Cfg.Alpha,
			Beta:     rc.Cfg.Beta,
			Cells:    rc.Partition.Cells(),
			KMax:     rc.Gen.MaxPerSCN(),
			Horizon:  rc.Cfg.T,
		}
		if mutate != nil {
			mutate(&cfg)
		}
		return core.New(cfg, rc.Rng)
	}
}

// OracleFactory builds the ground-truth oracle.
func OracleFactory(exact bool) Factory {
	return func(rc *RunContext) (policy.Policy, error) {
		return baselines.NewOracle(baselines.OracleConfig{
			Capacity:    rc.Cfg.Capacity,
			Alpha:       rc.Cfg.Alpha,
			Beta:        rc.Cfg.Beta,
			ExactAssign: exact,
		}, rc.Env)
	}
}

// VUCBFactory builds the vUCB benchmark.
func VUCBFactory() Factory {
	return func(rc *RunContext) (policy.Policy, error) {
		return baselines.NewVUCB(rc.Gen.SCNs(), rc.Cfg.Capacity, rc.Partition.Cells()), nil
	}
}

// FMLFactory builds the FML benchmark (z <= 0 uses the default exponent).
func FMLFactory(z float64) Factory {
	return func(rc *RunContext) (policy.Policy, error) {
		return baselines.NewFML(rc.Gen.SCNs(), rc.Cfg.Capacity, rc.Partition.Cells(), z), nil
	}
}

// RandomFactory builds the random benchmark.
func RandomFactory() Factory {
	return func(rc *RunContext) (policy.Policy, error) {
		return baselines.NewRandom(rc.Gen.SCNs(), rc.Cfg.Capacity, rc.Rng), nil
	}
}

// ThompsonFactory builds the Gaussian Thompson-sampling comparator.
func ThompsonFactory() Factory {
	return func(rc *RunContext) (policy.Policy, error) {
		return baselines.NewThompson(rc.Gen.SCNs(), rc.Cfg.Capacity, rc.Partition.Cells(), rc.Rng), nil
	}
}

// LinUCBFactory builds the contextual linear bandit comparator
// (alpha <= 0 uses the canonical exploration weight).
func LinUCBFactory(alpha float64) Factory {
	return func(rc *RunContext) (policy.Policy, error) {
		return baselines.NewLinUCB(rc.Gen.SCNs(), rc.Cfg.Capacity, rc.Partition.Dims(), alpha), nil
	}
}

// StandardFactories returns the paper's five policies in evaluation order.
func StandardFactories() []Factory {
	return []Factory{
		OracleFactory(false),
		LFSCFactory(nil),
		VUCBFactory(),
		FMLFactory(0),
		RandomFactory(),
	}
}

// Run simulates one policy over the scenario with the given master seed
// and returns its metric series.
func Run(sc *Scenario, factory Factory, seed uint64) (*metrics.Series, error) {
	if err := sc.Cfg.Validate(); err != nil {
		return nil, err
	}
	part, err := sc.Cfg.Partition()
	if err != nil {
		return nil, err
	}
	master := rng.New(seed)
	gen, err := sc.NewGenerator(master.Derive(1))
	if err != nil {
		return nil, fmt.Errorf("sim: generator: %w", err)
	}
	envCfg := sc.EnvCfg
	envCfg.Cells = part.Cells()
	envCfg.SCNs = gen.SCNs()
	e, err := env.New(envCfg, master.Derive(2))
	if err != nil {
		return nil, fmt.Errorf("sim: environment: %w", err)
	}
	rc := &RunContext{Cfg: sc.Cfg, Partition: part, Gen: gen, Env: e, Rng: master.Derive(3)}
	pol, err := factory(rc)
	if err != nil {
		return nil, fmt.Errorf("sim: policy: %w", err)
	}
	realRoot := master.Derive(4)

	series := metrics.NewSeries(pol.Name(), sc.Cfg.T)
	numSCNs := gen.SCNs()
	if sc.Dyn != nil && sc.Dyn.SCNs() != numSCNs {
		return nil, fmt.Errorf("sim: scenario timeline covers %d SCNs, workload has %d", sc.Dyn.SCNs(), numSCNs)
	}
	var ms *msTracker
	if sc.Cfg.MultiSlot != nil {
		ms = newMSTracker(sc.Cfg.MultiSlot)
	}
	// Per-slot buffers are reused across the horizon: the slot protocol
	// (Decide → execute → Observe) guarantees policies do not retain the
	// view or feedback beyond the slot, so Run recycles them instead of
	// allocating T times.
	var scratch slotScratch
	fb := &policy.Feedback{}
	completed := make([]float64, numSCNs)
	consumed := make([]float64, numSCNs)
	if sc.Cfg.MBS != nil {
		series.EnableMBS()
	}
	// Observability wiring: every hook below is nil-safe, so the disabled
	// path (cfg.Obs == nil, the default) costs one nil check per probe
	// point and nothing else. Probes never touch an RNG stream, so a
	// probed run stays bit-identical to an unprobed one (see obs_test.go).
	var (
		probe     *obs.Probe
		rs        *obs.RunStatus
		snapper   obs.Snapshotter
		snapSink  obs.SnapshotSink
		snapEvery int
		sampleRT  bool
		snap      obs.PolicySnapshot
		cumReward float64
	)
	if o := sc.Cfg.Obs; o != nil {
		probe = o.Probe
		if o.Registry != nil {
			rs = o.Registry.NewRun(pol.Name(), sc.Cfg.T)
			defer rs.Finish()
		}
		if o.SnapshotEvery > 0 && o.SnapshotSink != nil {
			if sn, ok := pol.(obs.Snapshotter); ok {
				snapper, snapSink = sn, o.SnapshotSink
				snapEvery, sampleRT = o.SnapshotEvery, o.SampleRuntime
			}
		}
	}
	// Pooled generation and stack-derived RNG streams: the slot buffer is
	// refilled in place when the generator supports it, and the per-slot /
	// per-task streams are derived into stack values instead of allocating
	// a child stream per draw. Draw consumption is identical either way.
	into, pooled := gen.(trace.IntoGenerator)
	var slotBuf trace.Slot
	var slotReal rng.Stream
	var taskReal rng.Stream
	var scen scenario.View
	var scenp *scenario.View
	for t := 0; t < sc.Cfg.T; t++ {
		span := probe.Start()
		e.Advance(t)
		var slot *trace.Slot
		if pooled {
			into.NextInto(t, &slotBuf)
			slot = &slotBuf
		} else {
			slot = gen.Next(t)
		}
		if ms != nil {
			slot = ms.inject(slot)
		}
		span = probe.Lap(obs.PhaseGen, span)
		if sc.Dyn != nil {
			sc.Dyn.ViewInto(t, &scen)
			scenp = &scen
		}
		view, cells := scratch.buildView(t, slot, part, sc.Cfg.UseLatencyContext, scenp)
		span = probe.Lap(obs.PhaseView, span)
		assigned := pol.Decide(view)
		if sc.Cfg.Strict {
			if err := policy.ValidateAssignment(view, assigned, sc.Cfg.Capacity); err != nil {
				return nil, fmt.Errorf("sim: slot %d: policy %q: %w", t, pol.Name(), err)
			}
		} else if len(assigned) != view.NumTasks {
			return nil, fmt.Errorf("sim: slot %d: policy %q returned %d assignments for %d tasks",
				t, pol.Name(), len(assigned), view.NumTasks)
		}
		span = probe.Lap(obs.PhaseDecide, span)
		// Execute against ground truth with common random numbers.
		realRoot.DeriveInto(uint64(t), &slotReal)
		fb.Execs = fb.Execs[:0]
		reward := 0.0
		for m := 0; m < numSCNs; m++ {
			completed[m], consumed[m] = 0, 0
		}
		totalAssigned, totalCompleted := 0, 0
		for taskIdx, m := range assigned {
			if m < 0 {
				continue
			}
			cell := cells[taskIdx]
			slotReal.DeriveInto(uint64(m)<<32|uint64(taskIdx), &taskReal)
			out := e.Draw(m, cell, &taskReal)
			fbU := out.U
			totalAssigned++
			consumed[m] += out.Q
			// The task pointer is only needed on the multislot path; the
			// common path skips the dereference.
			if ms != nil && slot.Tasks[taskIdx].Duration() > 1 {
				res := ms.process(slot.Tasks[taskIdx], m, out)
				reward += res.reward
				fbU = res.fbU
				if res.completedFinal {
					completed[m]++
					totalCompleted++
				}
			} else {
				reward += out.Compound()
				completed[m] += out.V()
				if out.Completed {
					totalCompleted++
				}
			}
			fb.Execs = append(fb.Execs, policy.Exec{
				SCN: m, Task: taskIdx, Cell: cell,
				U: fbU, V: out.V(), Q: out.Q,
			})
		}
		if ms != nil {
			ms.sweep()
		}
		v1, v2 := 0.0, 0.0
		if scenp == nil {
			for m := 0; m < numSCNs; m++ {
				if d := sc.Cfg.Alpha - completed[m]; d > 0 {
					v1 += d
				}
				if d := consumed[m] - sc.Cfg.Beta; d > 0 {
					v2 += d
				}
			}
		} else {
			// Down SCNs owe no QoS floor and consume nothing; up SCNs are
			// measured against their scenario-scaled budgets, matching the
			// multiplier updates inside the policies.
			for m := 0; m < numSCNs; m++ {
				if !scenp.Up[m] {
					continue
				}
				alpha, beta := sc.Cfg.Alpha, sc.Cfg.Beta
				if scenp.AlphaMul != nil {
					alpha *= scenp.AlphaMul[m]
				}
				if scenp.BetaMul != nil {
					beta *= scenp.BetaMul[m]
				}
				if d := alpha - completed[m]; d > 0 {
					v1 += d
				}
				if d := consumed[m] - beta; d > 0 {
					v2 += d
				}
			}
		}
		series.Record(t, reward, v1, v2, totalAssigned, totalCompleted)
		if sc.Cfg.MBS != nil {
			series.RecordMBS(t, runMBSFallback(sc.Cfg.MBS, slot, assigned, cells, e, &slotReal, ms != nil))
		}
		span = probe.Lap(obs.PhaseRealize, span)
		pol.Observe(view, assigned, fb)
		probe.Lap(obs.PhaseObserve, span)
		probe.EndSlot()
		if rs != nil || snapEvery > 0 {
			cumReward += reward
			rs.RecordSlot(reward)
		}
		if snapEvery > 0 && (t+1)%snapEvery == 0 {
			span = probe.Start()
			snap.Slot = t
			snap.CumReward = cumReward
			snapper.Snapshot(&snap)
			if sampleRT {
				obs.SampleRuntime(&snap.Runtime)
			}
			snapSink.OnSnapshot(&snap)
			probe.Lap(obs.PhaseSnapshot, span)
		}
	}
	return series, nil
}

// runMBSFallback executes unselected tasks at the macrocell base station
// and returns the slot's fallback compound reward. Tasks are taken in slot
// order up to the backhaul capacity; latency-sensitive tasks have their
// reward discounted by the configured penalty.
// skipMulti excludes multi-slot tasks from the fallback when the multi-slot
// extension is active — their lifecycle is owned by the SCN re-selection
// protocol, not the MBS.
func runMBSFallback(cfg *MBSConfig, slot *trace.Slot, assigned, cells []int,
	e *env.Env, slotReal *rng.Stream, skipMulti bool) float64 {
	// Labels for MBS draws live in a disjoint space from the SCN draws
	// (which use m<<32|task), keeping common random numbers intact.
	const mbsLabel = uint64(1) << 62
	reward := 0.0
	used := 0
	var taskReal rng.Stream
	for taskIdx, m := range assigned {
		if m != -1 {
			continue
		}
		if cfg.Capacity > 0 && used >= cfg.Capacity {
			break
		}
		if skipMulti && slot.Tasks[taskIdx].Duration() > 1 {
			continue
		}
		used++
		penalty := 1.0
		if slot.Tasks[taskIdx].LatencySensitive {
			penalty = cfg.penalty()
		}
		slotReal.DeriveInto(mbsLabel|uint64(taskIdx), &taskReal)
		out := e.DrawMBS(cells[taskIdx], cfg.likelihood(), penalty, &taskReal)
		reward += out.Compound()
	}
	return reward
}

// slotScratch holds the reusable per-slot buffers of one Run loop: hypercube
// indices, the policy-facing view, and (materialized only on demand) the
// context vectors. Buffers grow to the workload's high-water mark and are
// then recycled every slot; everything handed to the policy is only valid
// for the current slot.
//
// slotScratch is the view's policy.CtxSource: the context vectors are built
// lazily, the first time a policy calls SlotView.Ctxs. Cell-driven policies
// (LFSC and the tabular baselines) never ask, so the common path skips the
// context packing entirely — cells come from Partition.IndexTask, which
// indexes straight from the task's fields without materializing the vector.
type slotScratch struct {
	cells   []int
	ctxBuf  []float64
	ctxs    []task.Context
	view    policy.SlotView
	curSlot *trace.Slot
	latency bool
}

// MaterializeCtxs implements policy.CtxSource: it packs every task's context
// into one backing array and returns the per-task sub-slices. Called at most
// once per slot, and only by context-driven policies (e.g. LinUCB).
func (s *slotScratch) MaterializeCtxs() []task.Context {
	slot := s.curSlot
	n := len(slot.Tasks)
	dims := task.ContextDims
	if s.latency {
		dims++
	}
	if cap(s.ctxs) < n {
		s.ctxs = make([]task.Context, n)
	}
	s.ctxs = s.ctxs[:n]
	// Pack all contexts into one backing array first (appends may grow the
	// buffer, so sub-slices are taken only after the loop).
	s.ctxBuf = s.ctxBuf[:0]
	for i := range slot.Tasks {
		s.ctxBuf = slot.Tasks[i].AppendContext(s.ctxBuf, s.latency)
	}
	for i := 0; i < n; i++ {
		s.ctxs[i] = task.Context(s.ctxBuf[i*dims : (i+1)*dims : (i+1)*dims])
	}
	return s.ctxs
}

// buildView converts a workload slot into the policy-facing view, indexing
// every task's context exactly once. The returned view and cell slice alias
// the scratch and are valid until the next buildView call; the coverage rows
// are aliased directly from the slot.
func (s *slotScratch) buildView(t int, slot *trace.Slot, part *hypercube.Partition, latencyCtx bool, dyn *scenario.View) (*policy.SlotView, []int) {
	n := len(slot.Tasks)
	if cap(s.cells) < n {
		s.cells = make([]int, n)
	}
	cells := s.cells[:n]
	s.cells = cells
	for i, tk := range slot.Tasks {
		cells[i] = part.IndexTask(tk, latencyCtx)
	}
	numSCNs := len(slot.Coverage)
	if cap(s.view.SCNs) < numSCNs {
		s.view.SCNs = make([]policy.SCNView, numSCNs)
	}
	s.view.SCNs = s.view.SCNs[:numSCNs]
	// Scenario masking happens here, at the view boundary, so every policy
	// sees the identical dynamics: a down SCN's coverage row is emptied
	// (no edges this slot — learner state freezes, see core.LFSC), and the
	// per-SCN capacity/budget vectors ride along on the view. With no
	// timeline the fields stay nil and the static path is untouched.
	if dyn == nil {
		for m, cov := range slot.Coverage {
			s.view.SCNs[m].Cover = cov
		}
		s.view.Caps, s.view.AlphaMul, s.view.BetaMul = nil, nil, nil
	} else {
		for m, cov := range slot.Coverage {
			if dyn.Up[m] {
				s.view.SCNs[m].Cover = cov
			} else {
				s.view.SCNs[m].Cover = nil
			}
		}
		s.view.Caps, s.view.AlphaMul, s.view.BetaMul = dyn.Caps, dyn.AlphaMul, dyn.BetaMul
	}
	s.view.T = t
	s.view.NumTasks = n
	s.view.Cells = cells
	s.curSlot = slot
	s.latency = latencyCtx
	s.view.SetCtxSource(s)
	return &s.view, cells
}

// RunAll simulates several policies on the identical scenario and seed.
// Policies run in parallel — each run rebuilds its own workload generator,
// environment and RNG streams from the shared seed, so every policy sees the
// same task sequence (common random numbers) and results are independent of
// scheduling.
func RunAll(sc *Scenario, factories []Factory, seed uint64, workers int) ([]*metrics.Series, error) {
	out := make([]*metrics.Series, len(factories))
	errs := make([]error, len(factories))
	parallel.ForDynamic(len(factories), workers, func(i int) {
		out[i], errs[i] = Run(sc, factories[i], seed)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunReplicas simulates one policy across independent seeds in parallel
// and returns the per-seed series.
func RunReplicas(sc *Scenario, factory Factory, seeds []uint64, workers int) ([]*metrics.Series, error) {
	out := make([]*metrics.Series, len(seeds))
	errs := make([]error, len(seeds))
	parallel.ForDynamic(len(seeds), workers, func(i int) {
		out[i], errs[i] = Run(sc, factory, seeds[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Seeds derives n well-separated seeds from a base seed.
func Seeds(base uint64, n int) []uint64 {
	r := rng.New(base)
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.Uint64()
	}
	return out
}
