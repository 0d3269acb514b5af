// Package lfsc is a from-scratch Go reproduction of "An Online
// Learning-Based Task Offloading Framework for 5G Small Cell Networks"
// (Zhang, Zhou, Zhou, Lui, Li — ICPP 2020).
//
// It provides the LFSC algorithm (a constrained contextual multiple-play
// bandit with greedy multi-SCN coordination), a full small-cell simulation
// substrate (workload, mmWave channel, stochastic environment), the paper's
// benchmark policies (Oracle, vUCB, FML, Random), and an experiment harness
// that regenerates every figure of the paper's evaluation.
//
// This root package is the stable facade: it re-exports the types most
// users need so that downstream code imports a single package.
//
//	sc := lfsc.PaperScenario()
//	sc.Cfg.T = 1000
//	series, err := lfsc.RunAll(sc, lfsc.StandardFactories(), 42, 0)
//
// For custom policies implement lfsc.Policy and wrap it in a Factory; see
// examples/custompolicy.
package lfsc

import (
	"lfsc/internal/baselines"
	"lfsc/internal/core"
	"lfsc/internal/env"
	"lfsc/internal/experiments"
	"lfsc/internal/metrics"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// Core algorithm (paper Alg. 1-4).
type (
	// LFSC is the paper's online learning policy.
	LFSC = core.LFSC
	// LFSCConfig parameterises LFSC (schedule, constraints, ablations).
	LFSCConfig = core.Config
	// SelectionMode picks how selection probabilities drive assignment.
	SelectionMode = core.SelectionMode
)

// Selection modes.
const (
	DepRoundMode  = core.DepRoundMode
	Race          = core.Race
	Deterministic = core.Deterministic
)

// NewLFSC constructs the LFSC policy.
func NewLFSC(cfg LFSCConfig, r *Stream) (*LFSC, error) { return core.New(cfg, r) }

// Simulation engine.
type (
	// Config is the scenario system configuration (T, c, α, β, h).
	Config = sim.Config
	// Scenario bundles configuration with workload/environment recipes.
	Scenario = sim.Scenario
	// Factory constructs a fresh policy for one simulation run.
	Factory = sim.Factory
	// RunContext is handed to factories.
	RunContext = sim.RunContext
	// MBSConfig enables the macrocell-fallback extension (paper Sec. 6
	// future work) via Config.MBS.
	MBSConfig = sim.MBSConfig
	// MultiSlotConfig enables the multi-slot execution extension (paper
	// Sec. 3.3/6 future work) via Config.MultiSlot.
	MultiSlotConfig = sim.MultiSlotConfig
)

// Policy contract (implement this to plug in your own algorithm).
type (
	// Policy is a task offloading decision algorithm.
	Policy = policy.Policy
	// SlotView is what a policy observes at the start of a slot.
	SlotView = policy.SlotView
	// SCNView is the per-SCN coverage view.
	SCNView = policy.SCNView
	// Feedback delivers realised outcomes of executed tasks.
	Feedback = policy.Feedback
	// Exec is the realised feedback for one executed (SCN, task) pair.
	Exec = policy.Exec
)

// Metrics.
type (
	// Series is the per-slot metric record of one run.
	Series = metrics.Series
	// FinalSummary condenses replicas into scalar means with CIs.
	FinalSummary = metrics.FinalSummary
)

// Environment and workload.
type (
	// Env is the hidden stochastic ground truth (U, V, Q processes).
	Env = env.Env
	// EnvConfig parameterises the environment.
	EnvConfig = env.Config
	// Generator yields the per-slot workload.
	Generator = trace.Generator
	// Slot is one slot of workload (tasks + coverage).
	Slot = trace.Slot
	// Stream is the deterministic random stream used everywhere.
	Stream = rng.Stream
)

// Experiments.
type (
	// ExperimentOptions configures a harness run.
	ExperimentOptions = experiments.Options
	// ExperimentResult is a reproduced figure/table with shape checks.
	ExperimentResult = experiments.Result
)

// OracleConfig parameterises the ground-truth oracle baseline.
type OracleConfig = baselines.OracleConfig

// NewStream returns a deterministic random stream for the given seed.
func NewStream(seed uint64) *Stream { return rng.New(seed) }

// PaperScenario returns the paper's Sec. 5 evaluation setup (30 SCNs,
// |D_{m,t}| ∈ [35,100], c=20, α=15, β=27, U,V ~ U[0,1], Q ~ U[1,2], h=3).
func PaperScenario() *Scenario { return sim.PaperScenario() }

// DefaultConfig returns the paper's system configuration.
func DefaultConfig() Config { return sim.DefaultConfig() }

// Run simulates one policy over a scenario with the given seed.
func Run(sc *Scenario, factory Factory, seed uint64) (*Series, error) {
	return sim.Run(sc, factory, seed)
}

// RunAll simulates several policies on identical workload/environment: each
// run regenerates both from the seed.
func RunAll(sc *Scenario, factories []Factory, seed uint64, workers int) ([]*Series, error) {
	return sim.RunAll(sc, factories, seed, workers)
}

// RunReplicas simulates one policy across independent seeds in parallel.
func RunReplicas(sc *Scenario, factory Factory, seeds []uint64, workers int) ([]*Series, error) {
	return sim.RunReplicas(sc, factory, seeds, workers)
}

// Seeds derives n well-separated seeds from a base seed.
func Seeds(base uint64, n int) []uint64 { return sim.Seeds(base, n) }

// Policy factories for the paper's five policies.
var (
	// LFSCFactory builds the paper's algorithm (mutate may adjust config).
	LFSCFactory = sim.LFSCFactory
	// OracleFactory builds the ground-truth oracle.
	OracleFactory = sim.OracleFactory
	// VUCBFactory builds the vUCB benchmark.
	VUCBFactory = sim.VUCBFactory
	// FMLFactory builds the FML benchmark.
	FMLFactory = sim.FMLFactory
	// RandomFactory builds the random benchmark.
	RandomFactory = sim.RandomFactory
	// ThompsonFactory builds the Thompson-sampling comparator.
	ThompsonFactory = sim.ThompsonFactory
	// LinUCBFactory builds the contextual linear bandit comparator.
	LinUCBFactory = sim.LinUCBFactory
)

// StandardFactories returns the five policies in evaluation order.
func StandardFactories() []Factory { return sim.StandardFactories() }

// MeanSeries aggregates replicas point-wise.
func MeanSeries(replicas []*Series) *Series { return metrics.Mean(replicas) }

// SummarizeSeries condenses replicas into scalar means with CIs.
func SummarizeSeries(replicas []*Series) FinalSummary { return metrics.Summarize(replicas) }

// Experiments returns the registry of reproducible paper artifacts.
func Experiments() map[string]experiments.Runner { return experiments.Registry() }

// ExperimentOrder lists experiment ids in presentation order.
func ExperimentOrder() []string { return experiments.Order() }
