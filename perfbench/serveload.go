package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/obs"
	"lfsc/internal/rng"
	"lfsc/internal/scenario"
	"lfsc/internal/serve"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// setupBoots is how many times a serve run boots the daemon to measure
// set-up; the last boot serves the run and setup_s is the median.
const setupBoots = 11

// serveWorkload is a lockstep replay of a seeded trace against an lfscd
// child over loopback HTTP, from one goroutine: each /v1/step carries
// slot t-1's outcome reports and slot t's tasks, so the single caller
// always waits for its reply (a closed loop, one request in flight).
type serveWorkload struct {
	replay func(seed uint64) serve.ReplayScenario
	// scenario is a scenario file relative to the repository root; empty
	// serves the static topology.
	scenario string
	shards   int
	// checkpointEvery > 0 runs the daemon with a checkpoint in a fresh
	// directory, written every checkpointEvery slots.
	checkpointEvery int
	// warmup slots run before the timed window; rewardSlots is the
	// prefix reward_ratio is taken over (the run always reaches it).
	warmup, rewardSlots int
}

// paperReplay is the paper's Sec. 5 setting: 30 SCNs, |D_{m,t}| ~
// U[35,100], c=20, α=15, β=27, h=3.
func paperReplay(T int) func(seed uint64) serve.ReplayScenario {
	return func(seed uint64) serve.ReplayScenario {
		return serve.ReplayScenario{
			Synthetic: trace.DefaultSyntheticConfig(),
			EnvCfg:    env.DefaultConfig(30, 27),
			Capacity:  20, Alpha: 15, Beta: 27, H: 3, T: T,
			Seed: seed,
		}
	}
}

// smallReplay is the 4-SCN serving bench shape: 2-5 tasks per SCN, c=3,
// α=1, β=5.
func smallReplay(T int) func(seed uint64) serve.ReplayScenario {
	return func(seed uint64) serve.ReplayScenario {
		return serve.ReplayScenario{
			Synthetic: trace.SyntheticConfig{
				SCNs: 4, MinTasks: 2, MaxTasks: 5, Overlap: 0.3, LatencySensitiveFrac: 0.5,
			},
			EnvCfg:   env.DefaultConfig(4, 27),
			Capacity: 3, Alpha: 1, Beta: 5, H: 3, T: T,
			Seed: seed,
		}
	}
}

// loadConn is the replay transport plus its connection-reuse counters:
// *serve.Client or *serve.ShardPool.
type loadConn interface {
	serve.Conn
	ConnStats() (created, reused uint64)
}

// timedConn times each /v1/step round trip: from encoding the request to
// the parsed reply.
type timedConn struct {
	serve.Conn
	rtt time.Duration
}

func (c *timedConn) StepInto(repSlot int, reports []serve.TaskReport, tasks []serve.TaskSpec, close bool, resp *serve.StepResponse) error {
	t0 := time.Now()
	err := c.Conn.StepInto(repSlot, reports, tasks, close, resp)
	c.rtt = time.Since(t0)
	return err
}

// serveRun is everything one served run measured.
type serveRun struct {
	setupS []float64
	host   hostClock

	attempted, failed int
	slots             int // slots served in total
	firstTimed        int // slot index of the first timed sample
	window            time.Duration
	stolen            time.Duration // by the host, during the window
	stepNS, rttNS     []float64     // per timed slot: Replayer.Step, /v1/step
	tasks, assigned   []float64     // per timed slot
	capSum            float64       // Σ effective capacity over timed slots

	rewardPrefix            float64 // client cum reward after rewardSlots
	oracleReward            float64 // the oracle's over the same slots
	clientReward, simReward float64
	daemonReward            float64
	p0, p1                  procSnap
	mem0, mem1              memStats
	connCreated, connReused uint64
	spans                   map[int]obs.SlotSpan // traced runs only
}

// daemonArgs are lfscd's flags for a run: the learner shape from the
// replay scenario, the lockstep slot clock, and per-run files under dir.
// Everything else stays at the shipped defaults (probe, /metrics, the
// 256-entry slot ring and the 60 s SLO window all on).
func (w *serveWorkload) daemonArgs(cfg serve.Config, root, dir string, traced bool) []string {
	args := []string{
		"-addr", "127.0.0.1:0", "-slot-every", "0",
		"-scns", strconv.Itoa(cfg.SCNs), "-c", strconv.Itoa(cfg.Capacity),
		"-alpha", strconv.FormatFloat(cfg.Alpha, 'g', -1, 64),
		"-beta", strconv.FormatFloat(cfg.Beta, 'g', -1, 64),
		"-h", strconv.Itoa(cfg.H), "-kmax", strconv.Itoa(cfg.KMax),
		"-T", strconv.Itoa(cfg.Horizon), "-seed", strconv.FormatUint(cfg.Seed, 10),
	}
	if w.scenario != "" {
		args = append(args, "-scenario", filepath.Join(root, w.scenario))
	}
	if w.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(w.shards))
	}
	if w.checkpointEvery > 0 {
		args = append(args, "-checkpoint", filepath.Join(dir, "lfscd.ckpt"),
			"-checkpoint-every", strconv.Itoa(w.checkpointEvery))
	}
	if traced {
		args = append(args, "-slot-trace-jsonl", filepath.Join(dir, "slots.jsonl"))
	}
	return args
}

// timeline builds the scenario timeline the daemon derives from the same
// file, shape and seed (nil for the static topology).
func (w *serveWorkload) timeline(root string, sc serve.ReplayScenario) (*scenario.Timeline, error) {
	if w.scenario == "" {
		return nil, nil
	}
	cfg, err := scenario.ParseFile(filepath.Join(root, w.scenario))
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return scenario.Build(cfg, sc.Synthetic.SCNs, sc.T, sc.Capacity, sc.Seed)
}

// run boots the daemon (setupBoots times), replays warmup slots, times
// the window, finishes the reward prefix, and checks the run: client,
// daemon and an offline sim.Run must agree bit for bit.
func (w *serveWorkload) run(b *bench, traced bool) (*serveRun, error) {
	sc := w.replay(b.seed)
	tl, err := w.timeline(b.root, sc)
	if err != nil {
		return nil, err
	}
	sc.Scenario = tl
	cfg, err := sc.EngineConfig()
	if err != nil {
		return nil, err
	}

	r := &serveRun{}
	var d *daemon
	var dir string
	for i := 0; i < setupBoots; i++ {
		if dir, err = b.freshDir(); err != nil {
			return nil, err
		}
		dd, took, err := b.sup.start(b.daemonBin, w.daemonArgs(cfg, b.root, dir, traced), b.hc)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, took.Seconds())
		if i < setupBoots-1 {
			dd.kill()
		} else {
			d = dd
		}
		r.host.sample()
	}
	defer d.kill()

	rep, err := serve.NewReplayer(sc)
	if err != nil {
		return nil, err
	}
	var conn loadConn = serve.NewClient(d.addr)
	if w.shards > 1 {
		conn = serve.NewShardPool(d.addr, w.shards)
	}
	tc := &timedConn{Conn: conn}
	step := func() (serve.SlotResult, error) {
		tc.rtt = 0
		r.attempted++
		res, err := rep.Step(tc)
		switch {
		case err != nil:
			r.failed++
			return res, err
		case res.Shed:
			r.failed++
			return res, fmt.Errorf("slot %d was shed", res.Slot)
		}
		if rep.Slot() == w.rewardSlots {
			r.rewardPrefix = rep.CumReward()
		}
		return res, nil
	}

	for rep.Slot() < w.warmup {
		if _, err := step(); err != nil {
			return r, err
		}
	}

	if r.mem0, err = fetchMemstats(b.hc, d.addr); err != nil {
		return r, err
	}
	if r.p0, err = readProc(d.pid()); err != nil {
		return r, err
	}
	var upView scenario.View
	stolen0, err := readStolen()
	if err != nil {
		return r, err
	}
	r.firstTimed = rep.Slot()
	start, paused := time.Now(), r.host.spent
	for {
		t := rep.Slot()
		t0 := time.Now()
		res, err := step()
		t1 := time.Now()
		if err != nil {
			return r, err
		}
		r.stepNS = append(r.stepNS, float64(t1.Sub(t0)))
		r.rttNS = append(r.rttNS, float64(tc.rtt))
		r.tasks = append(r.tasks, float64(res.Tasks))
		r.assigned = append(r.assigned, float64(res.Assigned))
		r.capSum += effectiveCapacity(tl, t, cfg.SCNs, cfg.Capacity, &upView)
		r.window = r.host.tick(t1).Sub(start) - (r.host.spent - paused)
		// The window also runs until the step p99 has minBeyond samples
		// above it.
		if (r.window >= b.seconds && supported(p99, len(r.rttNS))) || rep.Slot() >= sc.T {
			break
		}
	}
	if r.p1, err = readProc(d.pid()); err != nil {
		return r, err
	}
	stolen1, err := readStolen()
	if err != nil {
		return r, err
	}
	r.stolen = stolen1 - stolen0
	if r.mem1, err = fetchMemstats(b.hc, d.addr); err != nil {
		return r, err
	}

	for rep.Slot() < w.rewardSlots && rep.Slot() < sc.T {
		if _, err := step(); err != nil {
			return r, err
		}
	}
	if rep.Slot() < w.rewardSlots {
		return r, fmt.Errorf("run ended at slot %d before the reward prefix of %d slots", rep.Slot(), w.rewardSlots)
	}
	if err := rep.Flush(tc); err != nil {
		return r, fmt.Errorf("flush: %w", err)
	}
	r.slots = rep.Slot()
	r.clientReward = rep.CumReward()
	r.connCreated, r.connReused = conn.ConnStats()
	st, err := statsAt(b.hc, d.addr, r.slots)
	if err != nil {
		return r, err
	}
	r.daemonReward = st.CumReward
	if st.ShedRequests != 0 || st.LateSlots != 0 {
		return r, fmt.Errorf("daemon shed %d requests and timed out %d slots in a lockstep run", st.ShedRequests, st.LateSlots)
	}
	d.stop()
	if traced {
		if r.spans, err = readSlotTrace(filepath.Join(dir, "slots.jsonl")); err != nil {
			return r, err
		}
	}
	simSc := offlineScenario(sc, tl, r.slots)
	if r.simReward, err = offlineReward(simSc, r.slots, sc.Seed); err != nil {
		return r, err
	}
	if r.oracleReward, err = oracleReward(simSc, w.rewardSlots, sc.Seed); err != nil {
		return r, err
	}
	return r, r.check()
}

// check is the per-run correctness gate: the client's cumulative reward
// must equal the daemon's and the offline simulator's, bit for bit.
func (r *serveRun) check() error {
	c, d, s := r.clientReward, r.daemonReward, r.simReward
	if math.Float64bits(c) != math.Float64bits(d) || math.Float64bits(c) != math.Float64bits(s) {
		return fmt.Errorf("reward mismatch after %d slots: client %x, daemon %x, offline sim.Run %x", r.slots, c, d, s)
	}
	return nil
}

// effectiveCapacity is Σ_m c_m(t) over the SCNs up at slot t.
func effectiveCapacity(tl *scenario.Timeline, t, scns, capacity int, v *scenario.View) float64 {
	if tl == nil {
		return float64(scns * capacity)
	}
	tl.ViewInto(t, v)
	total := 0
	for m := 0; m < scns; m++ {
		if !v.Up[m] {
			continue
		}
		c := capacity
		if v.Caps != nil && v.Caps[m] < c {
			c = v.Caps[m]
		}
		total += c
	}
	return float64(total)
}

// offlineScenario is the served run as a sim.Scenario: the same seeded
// workload, environment, horizon and scenario timeline, with the
// workload stopped after slots slots so a run pays nothing for the
// slots the daemon never served.
func offlineScenario(sc serve.ReplayScenario, tl *scenario.Timeline, slots int) *sim.Scenario {
	return &sim.Scenario{
		Cfg: sim.Config{T: sc.T, Capacity: sc.Capacity, Alpha: sc.Alpha, Beta: sc.Beta, H: sc.H},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			g, err := trace.NewSynthetic(sc.Synthetic, r)
			if err != nil {
				return nil, err
			}
			return truncate(g, slots), nil
		},
		EnvCfg: sc.EnvCfg,
		Dyn:    tl,
	}
}

// offlineReward is LFSC's cumulative reward over the first slots slots
// of an offline sim.Run.
func offlineReward(sc *sim.Scenario, slots int, seed uint64) (float64, error) {
	series, err := sim.Run(sc, sim.LFSCFactory(nil), seed)
	if err != nil {
		return 0, fmt.Errorf("offline sim.Run: %w", err)
	}
	return sum(series.Reward[:slots]), nil
}

// readSlotTrace loads the daemon's -slot-trace-jsonl stream, keyed by
// slot.
func readSlotTrace(path string) (map[int]obs.SlotSpan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("slot trace: %w", err)
	}
	defer f.Close()
	spans := map[int]obs.SlotSpan{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type string       `json:"type"`
			Data obs.SlotSpan `json:"data"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("slot trace: %w", err)
		}
		if ev.Type == "slot" {
			spans[ev.Data.Slot] = ev.Data
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("slot trace: %w", err)
	}
	return spans, nil
}

// endToEnd derives the end-to-end metrics of an untraced run (and the
// step p99) at host speed factor f. With one slot in flight, the slot
// rate is the reciprocal of the median slot's wall time.
func (r *serveRun) endToEnd(f float64) map[string]float64 {
	n := float64(len(r.rttNS))
	rtt := sortedCopy(r.rttNS)
	return map[string]float64{
		"setup_s":         median(r.setupS) * f,
		"slots_per_s":     1e9 / r.slotNS(f),
		"step_p50_ms":     percentile(rtt, p50) / 1e6 * f,
		"step_p99_ms":     percentile(rtt, p99) / 1e6 * f,
		"reward_ratio":    r.rewardPrefix / r.oracleReward,
		"cpu_us_per_slot": (r.p1.cpuUS() - r.p0.cpuUS()) / n * f,
		"peak_rss_mb":     float64(r.p1.HWMKB) / 1024,
	}
}

// slotNS is the median timed slot's wall time at host speed factor f.
func (r *serveRun) slotNS(f float64) float64 { return median(r.stepNS) * f }

// wallPerSlotNS is the timed window's wall time per slot, as measured.
func (r *serveRun) wallPerSlotNS() float64 { return float64(r.window) / float64(len(r.rttNS)) }

// processLayers derives the per-slot process counters of a run, read
// from outside the daemon.
func (r *serveRun) processLayers(m map[string]float64) {
	n := float64(len(r.rttNS))
	m["serve.rx_bytes_per_slot"] = float64(r.p1.RChar-r.p0.RChar) / n
	m["serve.tx_bytes_per_slot"] = float64(r.p1.WChar-r.p0.WChar) / n
	m["serve.syscalls_per_slot"] = float64(r.p1.SyscR+r.p1.SyscW-r.p0.SyscR-r.p0.SyscW) / n
	if cpu := r.p1.UTime + r.p1.STime - r.p0.UTime - r.p0.STime; cpu > 0 {
		m["serve.cpu_sys_share"] = float64(r.p1.STime-r.p0.STime) / float64(cpu)
	}
	m["serve.mallocs_per_slot"] = float64(r.mem1.Mallocs-r.mem0.Mallocs) / n
	m["serve.gc_pause_us_per_slot"] = float64(r.mem1.PauseTotalNs-r.mem0.PauseTotalNs) / 1e3 / n
	if total := r.connCreated + r.connReused; total > 0 {
		m["serve.conn_reuse_ratio"] = float64(r.connReused) / float64(total)
	}
}

// engineLayers splits each timed slot of a traced run into the client's
// own work, the engine stages on the step's critical path, and the wire
// residual. Step t's request carries slot t-1's reports, so it runs slot
// t-1's Observe (and checkpoint) before staging and deciding slot t.
func (r *serveRun) engineLayers(m map[string]float64) ([]layerRow, error) {
	n := len(r.rttNS)
	var prep, wire, stage, view, decide, merge, observe, ckpt, skew []float64
	for i := 0; i < n; i++ {
		t := r.firstTimed + i
		cur, ok1 := r.spans[t]
		prev, ok2 := r.spans[t-1]
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("slot trace lacks slot %d or %d", t-1, t)
		}
		obsNS := float64(prev.ObserveNS) - float64(prev.ObserveOverlapNS)
		crit := float64(cur.StageNS+cur.ViewNS+cur.DecideNS+prev.CheckpointNS) + obsNS
		prep = append(prep, r.stepNS[i]-r.rttNS[i])
		wire = append(wire, math.Max(0, r.rttNS[i]-crit))
		stage = append(stage, float64(cur.StageNS))
		view = append(view, float64(cur.ViewNS))
		decide = append(decide, float64(cur.DecideNS))
		merge = append(merge, float64(cur.MergeNS))
		observe = append(observe, obsNS)
		ckpt = append(ckpt, float64(prev.CheckpointNS))
		skew = append(skew, shardSkew(cur.ShardDecideNS))
	}
	wall := r.wallPerSlotNS()
	rows := []layerRow{
		newRow("client.prep", prep, wall, true),
		newRow("serve.wire", wire, wall, true),
		newRow("serve.engine.stage", stage, wall, true),
		newRow("serve.engine.view", view, wall, true),
		newRow("serve.engine.decide", decide, wall, true),
		newRow("serve.engine.merge", merge, wall, false),
		newRow("serve.engine.observe", observe, wall, true),
		newRow("serve.engine.checkpoint", ckpt, wall, true),
	}
	for _, row := range rows {
		m[row.name+"_us"] = row.s.Mean / 1e3
	}
	m["serve.engine.shard_skew"] = mean(skew)
	m["core.decide_us"] = rows[4].s.Mean / 1e3
	m["core.decide_p99_us"] = rows[4].s.P99 / 1e3
	m["core.observe_us"] = rows[6].s.Mean / 1e3
	m["core.observe_p99_us"] = rows[6].s.P99 / 1e3
	m["core.tasks_per_slot"] = mean(r.tasks)
	m["core.assigned_per_slot"] = mean(r.assigned)
	m["core.fill_ratio"] = sum(r.assigned) / r.capSum
	m["attributed_share"] = attributed(rows) / wall
	return rows, nil
}

// shardSkew is max over mean of the per-shard decide times (1 for an
// unsharded engine).
func shardSkew(ns []uint64) float64 {
	if len(ns) < 2 {
		return 1
	}
	var mx, tot float64
	for _, x := range ns {
		v := float64(x)
		tot += v
		mx = math.Max(mx, v)
	}
	if tot == 0 {
		return 1
	}
	return mx / (tot / float64(len(ns)))
}
