package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"lfsc/internal/core"
	"lfsc/internal/obs"
	"lfsc/internal/serve"
	"lfsc/internal/sim"
)

// benchResult is the schema of the -benchjson artifact (BENCH_core.json):
// one steady-state figure per commit so the perf trajectory of the hot
// path can be tracked across the repo's history.
type benchResult struct {
	Name      string `json:"name"`
	Timestamp string `json:"timestamp"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	TSlots int    `json:"t_slots"`
	Seed   uint64 `json:"seed"`
	// Workers is the worker count of the headline run — always 1: the
	// serial kernel is the deterministic baseline every other figure is
	// measured against (see CoreWorkersSpeedup for the parallel path).
	Workers int `json:"workers"`

	// NsPerSlot is wall time of the LFSC replay loop (Decide + environment
	// + Observe) divided by T. Workload generation and context indexing
	// happen once, up front, in an eagerly materialized shared trace
	// (sim.NewSharedTraceEager) and are excluded from the timed region —
	// the figure is the decision kernel, not the workload source.
	NsPerSlot float64 `json:"ns_per_slot"`
	// AllocsPerSlot is the heap-allocation count of the same loop divided
	// by T. The policy hot path itself is allocation-free in steady state
	// (see internal/core/alloc_test.go); what remains is trace replay
	// bookkeeping and the metrics series.
	AllocsPerSlot float64 `json:"allocs_per_slot"`
	// CoreWorkersSpeedup is headline (Workers=1) ns/slot divided by the
	// same replay at Workers=NumCPU: >1 means the parallel per-SCN path
	// pays off on this machine. On a single-core box it hovers around 1.
	CoreWorkersSpeedup float64 `json:"core_workers_speedup"`

	LFSCTotalReward   float64 `json:"lfsc_total_reward"`
	OracleTotalReward float64 `json:"oracle_total_reward"`
	// LFSCOracleRatio is achieved reward relative to the ground-truth
	// oracle on the identical task sequence (the paper's headline
	// competitiveness signal; measured 0.8427 at T=10000, seed 42).
	LFSCOracleRatio float64 `json:"lfsc_oracle_ratio"`
}

// runBenchJSON measures the paper scenario against an eagerly materialized
// shared trace: the workload (and its hypercube context indexing) is
// generated once before any clock starts, then replayed three times — the
// headline LFSC run at Workers=1, the same run at Workers=NumCPU for the
// speedup figure, and the oracle for the reward ratio. The two LFSC runs
// must earn bit-identical reward (the Workers=1-vs-N determinism contract);
// a mismatch fails the bench. obsOpts (from -observe) is plumbed into every
// run so a paper-horizon benchmark can be watched live; it is nil in the
// default measurement configuration — the numbers BENCH_core.json pins are
// taken with the probe's nil fast path, like every production run. The
// -workers flag does not apply here: the worker counts are fixed by the
// measurement design.
func runBenchJSON(path string, horizon int, seed uint64, obsOpts *obs.Options) error {
	sc := sim.PaperScenario()
	sc.Cfg.T = horizon
	sc.Cfg.Obs = obsOpts

	// Each LFSC configuration is replayed benchReps times and scored by its
	// fastest pass (the standard guard against scheduler interference); the
	// oracle needs one more replay pass.
	const benchReps = 5
	fmt.Printf("bench: materializing workload trace (T=%d, seed=%d)...\n", horizon, seed)
	shared, err := sim.NewSharedTraceEager(sc, seed, 2*benchReps+1)
	if err != nil {
		return fmt.Errorf("shared trace: %w", err)
	}
	sc.Shared = shared

	// timedRun replays the shared trace under LFSC at the given worker
	// count and reports (total reward, ns/slot, allocs/slot). The collector
	// is paused for the timed region: the resident trace is a large
	// pointer-dense heap the GC would otherwise rescan mid-measurement,
	// charging the workload source's memory to the kernel's clock. The
	// replay loop itself allocates almost nothing (allocs/slot ≪ 1), so
	// the heap barely moves while the GC is off.
	timedRun := func(w int) (float64, float64, float64, error) {
		factory := sim.LFSCFactory(func(c *core.Config) { c.Workers = w })
		runtime.GC()
		gcPct := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		series, err := sim.Run(sc, factory, seed)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gcPct)
		if err != nil {
			return 0, 0, 0, err
		}
		return series.TotalReward(),
			float64(elapsed.Nanoseconds()) / float64(horizon),
			float64(after.Mallocs-before.Mallocs) / float64(horizon), nil
	}
	// bestOf replays reps times and keeps the fastest pass; every pass of
	// every configuration must earn the identical reward (replays are
	// deterministic in the seed, and Workers must not change decisions).
	bestOf := func(w, reps int) (float64, float64, float64, error) {
		var reward, bestNs, allocs float64
		for i := 0; i < reps; i++ {
			r, ns, al, err := timedRun(w)
			if err != nil {
				return 0, 0, 0, err
			}
			if i == 0 {
				reward, bestNs, allocs = r, ns, al
				continue
			}
			if r != reward {
				return 0, 0, 0, fmt.Errorf("replay %d at workers=%d earned %v, first pass %v (determinism broken)",
					i, w, r, reward)
			}
			if ns < bestNs {
				bestNs, allocs = ns, al
			}
		}
		return reward, bestNs, allocs, nil
	}

	fmt.Printf("bench: LFSC replay x%d (workers=1)...\n", benchReps)
	reward1, ns1, allocs1, err := bestOf(1, benchReps)
	if err != nil {
		return fmt.Errorf("lfsc run (workers=1): %w", err)
	}

	numCPU := runtime.NumCPU()
	fmt.Printf("bench: LFSC replay x%d (workers=%d)...\n", benchReps, numCPU)
	rewardN, nsN, _, err := bestOf(numCPU, benchReps)
	if err != nil {
		return fmt.Errorf("lfsc run (workers=%d): %w", numCPU, err)
	}
	if rewardN != reward1 {
		return fmt.Errorf("bench: workers=%d reward %v != workers=1 reward %v (determinism broken)",
			numCPU, rewardN, reward1)
	}

	fmt.Printf("bench: oracle reference run...\n")
	oracleSeries, err := sim.Run(sc, sim.OracleFactory(false), seed)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}

	res := benchResult{
		Name:               "lfsc-core",
		Timestamp:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:          runtime.Version(),
		GOOS:               runtime.GOOS,
		GOARCH:             runtime.GOARCH,
		NumCPU:             numCPU,
		TSlots:             horizon,
		Seed:               seed,
		Workers:            1,
		NsPerSlot:          ns1,
		AllocsPerSlot:      allocs1,
		CoreWorkersSpeedup: ns1 / nsN,
		LFSCTotalReward:    reward1,
		OracleTotalReward:  oracleSeries.TotalReward(),
	}
	if res.OracleTotalReward != 0 {
		res.LFSCOracleRatio = res.LFSCTotalReward / res.OracleTotalReward
	}

	if err := mergeBenchJSON(path, &res); err != nil {
		return err
	}
	fmt.Printf("bench: %.0f ns/slot, %.2f allocs/slot, %.2fx workers speedup, LFSC/Oracle reward ratio %.4f\n",
		res.NsPerSlot, res.AllocsPerSlot, res.CoreWorkersSpeedup, res.LFSCOracleRatio)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// serveBenchResult is the serve-layer block of the artifact (-benchserve):
// the daemon data plane measured at the serve tests' scenario scale. It
// shares BENCH_core.json with the core block via mergeBenchJSON.
type serveBenchResult struct {
	// Workers overlays the artifact's workers key with the shard/worker
	// count the headline ServeHTTPRps run actually used (previously the
	// key was hardcoded from the core run and silently claimed to describe
	// the serve figures too).
	Workers int `json:"workers"`
	// NumCPU is re-stamped at serve measurement time so the shard scaling
	// curve below is interpretable on the machine that produced it.
	NumCPU int `json:"num_cpu"`
	// ServeNsPerSlot is wall time per full slot on the in-process batched
	// /v1/step handler loop (decode → Decide → encode plus the client-side
	// generation and outcome realisation around it).
	ServeNsPerSlot float64 `json:"serve_ns_per_slot"`
	// ServeNsPerSlotProbe is the same loop at the shipped lfscd default:
	// the slot-phase probe on (the daemon constructs it unconditionally),
	// everything the fleet-observability flags control off. The
	// metrics-off baseline for the obs gate.
	ServeNsPerSlotProbe float64 `json:"serve_ns_per_slot_probe"`
	// ServeNsPerSlotObs is the same loop with the full observability stack
	// enabled (metrics, slot-trace ring, SLO tracker, probe); benchdiff
	// pins it at ≤5% over ServeNsPerSlotProbe.
	ServeNsPerSlotObs float64 `json:"serve_ns_per_slot_obs"`
	// ServeAllocsPerSlot is the heap-allocation count of that loop per slot.
	ServeAllocsPerSlot float64 `json:"serve_allocs_per_slot"`
	// ServeAllocsPerReq is the allocation count attributed to the handler
	// invocation alone — 0 in steady state (TestServeWireZeroAlloc).
	ServeAllocsPerReq float64 `json:"serve_allocs_per_req"`
	// ServeHTTPRps is end-to-end /v1/step round trips per second over real
	// loopback HTTP.
	ServeHTTPRps float64 `json:"serve_http_rps"`
	// ServeShardRps1/2/4 are the shard scaling curve: loopback /v1/step
	// throughput on the SAME scenario as ServeHTTPRps at Shards = 1, 2, 4.
	// Expected roughly flat when NumCPU = 1 and monotone non-decreasing
	// with shard count on multi-core machines; benchdiff gates both
	// properties num_cpu-aware.
	ServeShardRps1 float64 `json:"serve_shard_rps_1"`
	ServeShardRps2 float64 `json:"serve_shard_rps_2"`
	ServeShardRps4 float64 `json:"serve_shard_rps_4"`
}

// runBenchServe runs the serve-layer harness (internal/serve RunBench
// plus the RunShardBench scaling curve) and merges its figures into the
// artifact at path, preserving the core block already there.
func runBenchServe(path string, slots, httpSlots int, seed uint64) error {
	fmt.Printf("bench: serve data plane (slots=%d, httpSlots=%d, seed=%d)...\n",
		slots, httpSlots, seed)
	r, err := serve.RunBench(slots, httpSlots, seed)
	if err != nil {
		return fmt.Errorf("serve bench: %w", err)
	}
	fmt.Printf("bench: shard scaling curve (httpSlots=%d x shards 1/2/4)...\n", httpSlots)
	sh, err := serve.RunShardBench(httpSlots, seed)
	if err != nil {
		return fmt.Errorf("serve bench: %w", err)
	}
	res := serveBenchResult{
		Workers:             r.Shards,
		NumCPU:              runtime.NumCPU(),
		ServeNsPerSlot:      r.NsPerSlot,
		ServeNsPerSlotProbe: r.NsPerSlotProbe,
		ServeNsPerSlotObs:   r.NsPerSlotObs,
		ServeAllocsPerSlot:  r.AllocsPerSlot,
		ServeAllocsPerReq:   r.AllocsPerReq,
		ServeHTTPRps:        r.HTTPRps,
		ServeShardRps1:      sh.Rps1,
		ServeShardRps2:      sh.Rps2,
		ServeShardRps4:      sh.Rps4,
	}
	if err := mergeBenchJSON(path, &res); err != nil {
		return err
	}
	fmt.Printf("bench: serve %.0f ns/slot (%.0f probe-only, %.0f full obs), %.2f allocs/slot, %.2f allocs/req, %.0f http rps\n",
		res.ServeNsPerSlot, res.ServeNsPerSlotProbe, res.ServeNsPerSlotObs, res.ServeAllocsPerSlot, res.ServeAllocsPerReq, res.ServeHTTPRps)
	fmt.Printf("bench: shard rps %.0f / %.0f / %.0f (shards 1/2/4, num_cpu %d)\n",
		res.ServeShardRps1, res.ServeShardRps2, res.ServeShardRps4, res.NumCPU)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// shardCurveResult is the standalone -benchshards block: just the shard
// scaling keys plus the CPU count they were measured on, merged into an
// artifact (or a throwaway smoke file) without touching the rest.
type shardCurveResult struct {
	NumCPU         int     `json:"num_cpu"`
	ServeShardRps1 float64 `json:"serve_shard_rps_1"`
	ServeShardRps2 float64 `json:"serve_shard_rps_2"`
	ServeShardRps4 float64 `json:"serve_shard_rps_4"`
}

// runBenchShards runs only the shard scaling curve (serve.RunShardBench)
// and merges its keys into the JSON at path. The fast path for iterating
// on the sharded serving plane, and what `make bench-serve-shards` runs
// as a CI smoke: a few hundred slots keep it seconds-cheap while still
// covering the 1/2/4-shard engines end-to-end over real HTTP.
func runBenchShards(path string, httpSlots int, seed uint64) error {
	fmt.Printf("bench: shard scaling curve (httpSlots=%d x shards 1/2/4, seed=%d)...\n", httpSlots, seed)
	sh, err := serve.RunShardBench(httpSlots, seed)
	if err != nil {
		return fmt.Errorf("serve bench: %w", err)
	}
	res := shardCurveResult{
		NumCPU:         runtime.NumCPU(),
		ServeShardRps1: sh.Rps1,
		ServeShardRps2: sh.Rps2,
		ServeShardRps4: sh.Rps4,
	}
	if err := mergeBenchJSON(path, &res); err != nil {
		return err
	}
	fmt.Printf("bench: shard rps %.0f / %.0f / %.0f (shards 1/2/4, num_cpu %d)\n",
		res.ServeShardRps1, res.ServeShardRps2, res.ServeShardRps4, res.NumCPU)
	fmt.Printf("wrote %s\n", path)
	return nil
}

// mergeBenchJSON overlays block's fields onto the JSON object already at
// path (if any) and writes the result back. The core harness and the
// serve harness each own a disjoint set of keys in the shared
// BENCH_core.json; merging keeps one from clobbering the other's block.
func mergeBenchJSON(path string, block any) error {
	merged := map[string]json.RawMessage{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &merged); err != nil {
			return fmt.Errorf("bench: existing %s is not a JSON object: %w", path, err)
		}
	}
	blockBuf, err := json.Marshal(block)
	if err != nil {
		return err
	}
	updates := map[string]json.RawMessage{}
	if err := json.Unmarshal(blockBuf, &updates); err != nil {
		return err
	}
	for k, v := range updates {
		merged[k] = v
	}
	buf, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
