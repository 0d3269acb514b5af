package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/obs"
	"lfsc/internal/rng"
	"lfsc/internal/trace"
)

// This file is the serve-layer perf harness behind `make bench-serve`
// (cmd/lfscbench -benchserve) and the zero-allocation pin in wire_test.go.
// It drives the daemon's actual HTTP handlers — handleStep/handleReport —
// without a network in between: requests are encoded as JSON or as binary
// frames with the wire encoders, handed to the handler through a reusable
// fake ResponseWriter, and the response is parsed back with the matching
// parser. What it measures is therefore the full serving data plane
// (decode → validate → dispatch → Decide/Observe → encode) at
// function-call cost, with the HTTP stack's own socket handling factored
// out; a separate real-HTTP phase measures end-to-end round trips per
// second.

// BenchResult carries the serve-layer figures BENCH_core.json pins
// (serve_ns_per_slot, serve_allocs_per_slot, serve_allocs_per_req,
// serve_http_rps).
type BenchResult struct {
	// NsPerSlot is wall time per full slot on the in-process public API
	// loop: workload generation + one batched Engine.StepInto round trip
	// (previous slot's reports + this slot's tasks, Decide and Observe on
	// the engine goroutine). This is the successor of the pre-batching
	// BenchmarkEngineSlot figure (Submit + Report, two dispatches per
	// slot) and is directly comparable to it.
	NsPerSlot float64
	// AllocsPerSlot is the heap-allocation count of the same loop per
	// slot, client side included.
	AllocsPerSlot float64
	// AllocsPerReq is the heap-allocation count attributed to the handler
	// invocation alone (decode through encode, engine work included) —
	// 0 in steady state, pinned by TestServeWireZeroAlloc.
	AllocsPerReq float64
	// NsPerSlotProbe is NsPerSlot with the slot-phase probe enabled — the
	// shipped lfscd default (the daemon constructs its probe
	// unconditionally; it predates the fleet-observability layer). This
	// is the metrics-off baseline the obs-overhead gate compares against.
	NsPerSlotProbe float64
	// NsPerSlotObs is NsPerSlot with the full observability stack enabled
	// (Metrics registry, slot-trace ring, SLO tracker, probe) — measured
	// best-of-N against same-process best-of-N bare and probe-only runs
	// so the triple is comparable on a noisy box. benchdiff gates it at
	// ≤5% over NsPerSlotProbe: the marginal price of everything
	// -metrics/-slot-trace/-slo-window can turn off, pinning the design
	// claim that metric series are scrape-time reads and the tracer/SLO
	// piggyback on the probe's clock reads rather than taking their own.
	NsPerSlotObs float64
	// HTTPRps is end-to-end batched /v1/step round trips per second over
	// a real loopback HTTP connection (one round trip per slot).
	HTTPRps float64
	// CumReward is the client-side cumulative reward of the in-process
	// run — a sanity anchor that the measured path is the real protocol.
	CumReward float64
	Slots     int
	// Shards is the shard count the headline HTTPRps run actually used,
	// recorded so the artifact's workers key reflects the measured
	// configuration rather than an assumption.
	Shards int
}

// benchScenario mirrors the serve tests' small-but-non-trivial scenario
// (TestServeSmoke scale): 4 SCNs, overlapping coverage, 27 context cells.
func benchScenario(T int, seed uint64) ReplayScenario {
	return ReplayScenario{
		Synthetic: trace.SyntheticConfig{
			SCNs:                 4,
			MinTasks:             2,
			MaxTasks:             5,
			Overlap:              0.3,
			LatencySensitiveFrac: 0.5,
		},
		EnvCfg:   env.DefaultConfig(4, 27),
		Capacity: 3,
		Alpha:    1,
		Beta:     5,
		H:        3,
		T:        T,
		Seed:     seed,
	}
}

// fakeRW is the reusable http.ResponseWriter of the in-process loop: a
// persistent header map (so the hot handlers' Content-Type install
// happens once) and an append-reused body buffer.
type fakeRW struct {
	hdr  http.Header
	buf  []byte
	code int
}

func (w *fakeRW) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}

func (w *fakeRW) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *fakeRW) WriteHeader(code int) { w.code = code }

func (w *fakeRW) reset() {
	w.buf = w.buf[:0]
	w.code = 0
}

// fakeBody adapts bytes.Reader to the ReadCloser the handlers take.
type fakeBody struct{ bytes.Reader }

func (b *fakeBody) Close() error { return nil }

// stepHarness drives one engine through the step protocol handler-first:
// the same lockstep the Replayer runs over HTTP, minus the network.
type stepHarness struct {
	eng *Engine
	rep *Replayer
	// frame selects the binary frame encoding instead of JSON.
	frame bool

	w    fakeRW
	body fakeBody
	req  *http.Request

	enc      []byte
	resp     StepResponse
	pend     []TaskReport
	pendSlot int
	cum      float64

	// countAllocs isolates the handler invocation between two MemStats
	// reads, attributing its global malloc delta to the request.
	countAllocs    bool
	handlerMallocs uint64
	handlerReqs    uint64
	ms0, ms1       runtime.MemStats
}

// newStepHarness builds an engine + replayer pair on the bench scenario
// and starts the engine. ReportWait is effectively infinite: the harness
// is strictly lockstep, and a timer firing mid-measurement would both
// skew the protocol and allocate on the late-report path. mutate, when
// non-nil, adjusts the engine config before construction (the obs
// zero-alloc test enables the full instrumentation stack through it).
// frame selects the request encoding: binary frames or JSON.
func newStepHarness(T int, seed uint64, frame bool, mutate func(*Config)) (*stepHarness, error) {
	sc := benchScenario(T, seed)
	cfg, err := sc.EngineConfig()
	if err != nil {
		return nil, err
	}
	cfg.ReportWait = time.Hour
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := NewReplayer(sc)
	if err != nil {
		return nil, err
	}
	h := &stepHarness{eng: eng, rep: rep, frame: frame}
	h.req = &http.Request{Method: http.MethodPost, Body: &h.body, Header: http.Header{}}
	if frame {
		h.req.Header["Content-Type"] = ctFrame
	}
	eng.Start()
	return h, nil
}

// step replays one slot through handleStep: generate, encode the batched
// request (previous slot's reports + this slot's tasks), invoke the
// handler, parse the decision, realise outcomes for the next step.
func (h *stepHarness) step() error {
	r := h.rep
	t := r.next
	r.next++
	r.env.Advance(t)
	r.gen.NextInto(t, &r.slotBuf)
	n := len(r.slotBuf.Tasks)
	if n == 0 {
		return nil
	}
	r.buildSpecs()

	if h.frame {
		h.enc = appendStepFrame(h.enc[:0], h.pendSlot, h.pend, r.specs, true)
	} else {
		h.enc = appendStepRequest(h.enc[:0], h.pendSlot, h.pend, r.specs, true)
	}
	h.body.Reset(h.enc)
	h.w.reset()
	if h.countAllocs {
		runtime.ReadMemStats(&h.ms0)
		h.eng.handleStep(&h.w, h.req)
		runtime.ReadMemStats(&h.ms1)
		h.handlerMallocs += h.ms1.Mallocs - h.ms0.Mallocs
		h.handlerReqs++
	} else {
		h.eng.handleStep(&h.w, h.req)
	}
	if h.w.code != http.StatusOK {
		return fmt.Errorf("serve: bench slot %d: status %d: %s", t, h.w.code, h.w.buf)
	}
	var err error
	if h.frame {
		err = parseStepFrame(h.w.buf, &h.resp)
	} else {
		err = parseStepResponse(h.w.buf, &h.resp)
	}
	if err != nil {
		return fmt.Errorf("serve: bench slot %d: %w", t, err)
	}
	if len(h.pend) > 0 && h.resp.ReportError != "" {
		return fmt.Errorf("serve: bench slot %d: report part rejected: %s", t, h.resp.ReportError)
	}
	if len(h.resp.Assigned) != n || h.resp.Base != 0 {
		return fmt.Errorf("serve: bench slot %d: %d assignments at base %d for %d tasks",
			t, len(h.resp.Assigned), h.resp.Base, n)
	}

	var slotReal, taskReal rng.Stream
	r.realRoot.DeriveInto(uint64(t), &slotReal)
	h.pend = h.pend[:0]
	h.pendSlot = h.resp.Slot
	for idx, m := range h.resp.Assigned {
		if m < 0 {
			continue
		}
		slotReal.DeriveInto(uint64(m)<<32|uint64(idx), &taskReal)
		out := r.env.Draw(m, r.cells[idx], &taskReal)
		h.cum += out.Compound()
		h.pend = append(h.pend, TaskReport{Task: idx, U: out.U, V: out.V(), Q: out.Q})
	}
	return nil
}

// flush delivers the final slot's reports through handleReport so the
// engine's last Observe runs before Stop.
func (h *stepHarness) flush() error {
	if len(h.pend) == 0 {
		return nil
	}
	if h.frame {
		h.enc = appendReportFrame(h.enc[:0], h.pendSlot, h.pend)
	} else {
		h.enc = appendReportRequest(h.enc[:0], h.pendSlot, h.pend)
	}
	h.body.Reset(h.enc)
	h.w.reset()
	h.eng.handleReport(&h.w, h.req)
	if h.w.code != http.StatusOK {
		return fmt.Errorf("serve: bench flush: status %d: %s", h.w.code, h.w.buf)
	}
	h.pend = h.pend[:0]
	return nil
}

// close flushes and stops the engine.
func (h *stepHarness) close() error {
	err := h.flush()
	h.eng.Stop()
	return err
}

// genBuf is one slot's worth of pre-materialized workload, deep-copied
// out of the replayer's arena (which only holds one slot at a time).
// Flat backing arrays keep the copy a pair of memmoves.
type genBuf struct {
	ctx   []float64
	scn   []int
	specs []TaskSpec
}

// copyFrom snapshots the replayer's current specs into the buffer.
func (b *genBuf) copyFrom(specs []TaskSpec) {
	b.ctx = b.ctx[:0]
	b.scn = b.scn[:0]
	b.specs = make([]TaskSpec, len(specs))
	for i := range specs {
		b.ctx = append(b.ctx, specs[i].Ctx...)
		b.scn = append(b.scn, specs[i].SCNs...)
	}
	ctxAt, scnAt := 0, 0
	for i := range specs {
		nc, ns := len(specs[i].Ctx), len(specs[i].SCNs)
		b.specs[i] = TaskSpec{
			Ctx:  b.ctx[ctxAt : ctxAt+nc : ctxAt+nc],
			SCNs: b.scn[scnAt : scnAt+ns : scnAt+ns],
		}
		ctxAt += nc
		scnAt += ns
	}
}

// benchAPILoop measures the in-process public API at the bench scenario:
// one batched StepInto per slot carrying the previous slot's reports and
// this slot's tasks. The workload is pre-materialized from the trace
// generator before the clock starts (the shared-trace replay discipline:
// the figure prices the serving data plane, not the load generator), and
// the report values are fixed (U 0.5, V 1, Q 1.5 — no environment
// draws). Its lineage is the pre-batching BenchmarkEngineSlot figure,
// which drove the same decide + observe work through a Submit/Report
// dispatch pair with generation inline.
//
// instrumented enables the full observability stack (metrics registry,
// slot-trace ring, SLO tracker, probe) on the engine, pricing the
// metrics-on overhead against the bare loop.
// obsBenchConfig enables the full observability stack on a bench
// engine: the configuration whose cost the serve_ns_per_slot_obs gate
// prices against the bare loop.
func obsBenchConfig(cfg *Config) {
	cfg.Probe = obs.NewProbe()
	cfg.Metrics = obs.NewMetrics()
	cfg.SlotRing = obs.NewSlotRing(256, cfg.Shards)
	cfg.SLO = obs.NewSLO(60, 0.01)
}

func benchAPILoop(slots int, seed uint64, mutate func(*Config)) (nsPerSlot, allocsPerSlot float64, err error) {
	const warmup = 300
	total := warmup + slots
	sc := benchScenario(total+16, seed)
	cfg, err := sc.EngineConfig()
	if err != nil {
		return 0, 0, err
	}
	cfg.ReportWait = time.Hour
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		return 0, 0, err
	}
	rep, err := NewReplayer(sc)
	if err != nil {
		return 0, 0, err
	}
	bufs := make([]genBuf, total)
	for t := 0; t < total; t++ {
		rep.env.Advance(t)
		rep.gen.NextInto(t, &rep.slotBuf)
		rep.buildSpecs()
		bufs[t].copyFrom(rep.specs)
	}
	eng.Start()
	defer eng.Stop()

	var req StepRequest
	var resp StepResponse
	reports := make([]TaskReport, 0, 16)
	pendSlot := 0
	doSlot := func(t int) error {
		req.Slot = pendSlot
		req.Reports = reports
		req.Tasks = bufs[t].specs
		req.Close = true
		if stepErr := eng.StepInto(&req, &resp); stepErr != nil {
			return fmt.Errorf("serve: bench api slot %d: %w", t, stepErr)
		}
		if len(reports) > 0 && resp.ReportError != "" {
			return fmt.Errorf("serve: bench api slot %d: report part rejected: %s", t, resp.ReportError)
		}
		reports = reports[:0]
		for idx, m := range resp.Assigned {
			if m < 0 {
				continue
			}
			reports = append(reports, TaskReport{Task: idx, U: 0.5, V: 1, Q: 1.5})
		}
		pendSlot = resp.Slot
		return nil
	}
	for t := 0; t < warmup; t++ {
		if err := doSlot(t); err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for t := warmup; t < total; t++ {
		if err := doSlot(t); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(elapsed.Nanoseconds()) / float64(slots),
		float64(m1.Mallocs-m0.Mallocs) / float64(slots), nil
}

// RunBench measures the serve layer at the bench scenario: `slots` timed
// public-API slots (after warmup) for ns/slot and allocs/slot, an
// in-process handler loop with an alloc-attributed stretch for
// allocs/request, and `httpSlots` real HTTP round trips for end-to-end
// throughput.
func RunBench(slots, httpSlots int, seed uint64) (BenchResult, error) {
	const warmup = 300
	const allocReqs = 200
	var res BenchResult
	res.Slots = slots
	res.Shards = 1 // the headline serve figures are the single-shard plane

	// Bare/probe/full-stack triples, interleaved in the same process and
	// scored by the fastest pass of each, so the figures the obs-overhead
	// gate compares saw the same machine conditions. Twelve reps, not a
	// token two or three: single-core CI boxes throttle mid-run, the
	// per-rep ratio swings ±10%, and the gate fails whenever the probe
	// side hits its unthrottled floor in some rep while the obs side
	// never does — best-of-12 converges BOTH sides of the gate pair onto
	// their floors, where the real marginal cost of the obs stack (a few
	// tens of ns, now that the ring publish skips its usually-zero words)
	// is what gets priced. The pipelined close shrank the probe baseline
	// by ~15%, which shrank the gate's absolute headroom with it; the
	// extra reps buy back the margin that took. The gate pair is
	// probe vs full stack: lfscd constructs its slot-phase probe
	// unconditionally (it predates the fleet-observability layer and
	// feeds the /lfsc/status phase table), so the shipped metrics-off
	// baseline is probe-on, and the marginal cost being priced is exactly
	// the features -metrics/-slot-trace/-slo-window can turn off.
	const obsReps = 12
	bestBare, bestProbe, bestObs := math.Inf(1), math.Inf(1), math.Inf(1)
	var bareAllocs float64
	for rep := 0; rep < obsReps; rep++ {
		ns, allocs, err := benchAPILoop(slots, seed, nil)
		if err != nil {
			return res, err
		}
		if ns < bestBare {
			bestBare, bareAllocs = ns, allocs
		}
		nsProbe, _, err := benchAPILoop(slots, seed, func(cfg *Config) { cfg.Probe = obs.NewProbe() })
		if err != nil {
			return res, err
		}
		if nsProbe < bestProbe {
			bestProbe = nsProbe
		}
		nsObs, _, err := benchAPILoop(slots, seed, obsBenchConfig)
		if err != nil {
			return res, err
		}
		if nsObs < bestObs {
			bestObs = nsObs
		}
	}
	res.NsPerSlot = bestBare
	res.NsPerSlotProbe = bestProbe
	res.NsPerSlotObs = bestObs
	res.AllocsPerSlot = bareAllocs

	// Handler loop: exercises the full wire path (encode → handleStep →
	// parse → realise) and attributes the handler's own mallocs.
	h, err := newStepHarness(warmup+allocReqs+16, seed, false, nil)
	if err != nil {
		return res, err
	}
	for i := 0; i < warmup; i++ {
		if err := h.step(); err != nil {
			h.eng.Stop()
			return res, err
		}
	}
	h.countAllocs = true
	for i := 0; i < allocReqs; i++ {
		if err := h.step(); err != nil {
			h.eng.Stop()
			return res, err
		}
	}
	if h.handlerReqs > 0 {
		res.AllocsPerReq = float64(h.handlerMallocs) / float64(h.handlerReqs)
	}
	res.CumReward = h.cum
	if err := h.close(); err != nil {
		return res, err
	}

	rps, err := benchHTTP(httpSlots, seed)
	if err != nil {
		return res, err
	}
	res.HTTPRps = rps
	return res, nil
}

// benchHTTP measures end-to-end /v1/step round trips per second against
// a real loopback server, one round trip per slot (the replayer's
// batched lockstep).
func benchHTTP(slots int, seed uint64) (float64, error) {
	if slots <= 0 {
		return 0, nil
	}
	return benchHTTPScenario(benchScenario(50+slots+16, seed), slots, 1)
}

// benchHTTPScenario is the shared loopback-HTTP throughput loop: boot a
// daemon on the scenario with the given shard count, drive it in batched
// lockstep through a shard-aware connection pool, and report timed round
// trips per second after warmup.
func benchHTTPScenario(sc ReplayScenario, slots, shards int) (float64, error) {
	const warmup = 50
	cfg, err := sc.EngineConfig()
	if err != nil {
		return 0, err
	}
	cfg.ReportWait = time.Hour
	cfg.Shards = shards
	eng, err := NewEngine(cfg)
	if err != nil {
		return 0, err
	}
	srv, err := StartServer("127.0.0.1:0", eng)
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	eng.Start()
	defer eng.Stop()

	rep, err := NewReplayer(sc)
	if err != nil {
		return 0, err
	}
	var conn Conn = NewClient(srv.Addr())
	if shards > 1 {
		conn = NewShardPool(srv.Addr(), shards)
	}
	for i := 0; i < warmup; i++ {
		if _, err := rep.Step(conn); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < slots; i++ {
		if _, err := rep.Step(conn); err != nil {
			return 0, err
		}
	}
	elapsed := time.Since(start)
	if err := rep.Flush(conn); err != nil {
		return 0, err
	}
	return float64(slots) / elapsed.Seconds(), nil
}

// ShardBenchResult carries the shard-scaling figures BENCH_core.json pins
// (serve_shard_rps_1/2/4): end-to-end /v1/step throughput on the SAME
// scenario as the headline serve_http_rps figure at Shards = 1, 2, 4. On
// a single-core runner the three are expected flat (the parallel phase
// has nowhere to go); benchdiff gates them num_cpu-aware.
type ShardBenchResult struct {
	Rps1 float64
	Rps2 float64
	Rps4 float64
}

// RunShardBench measures loopback /v1/step throughput at shard counts 1,
// 2, and 4 on the headline serve scenario. Reps are interleaved ACROSS
// shard counts (1,2,4, 1,2,4, ...) rather than run as per-count blocks —
// the same discipline RunBench applies to its bare/probe/obs triples — so
// slow drift on the runner (thermal, noisy neighbours) biases every count
// equally instead of penalising whichever block ran last; each count is
// scored by its fastest pass.
func RunShardBench(slots int, seed uint64) (ShardBenchResult, error) {
	const shardBenchReps = 3
	var res ShardBenchResult
	if slots <= 0 {
		return res, nil
	}
	counts := []int{1, 2, 4}
	best := make([]float64, len(counts))
	for rep := 0; rep < shardBenchReps; rep++ {
		for i, s := range counts {
			sc := benchScenario(50+slots+16, seed)
			rps, err := benchHTTPScenario(sc, slots, s)
			if err != nil {
				return res, fmt.Errorf("serve: shard bench (shards=%d): %w", s, err)
			}
			if rps > best[i] {
				best[i] = rps
			}
		}
	}
	res.Rps1, res.Rps2, res.Rps4 = best[0], best[1], best[2]
	return res, nil
}
