package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"lfsc/internal/core"
	"lfsc/internal/hypercube"
	"lfsc/internal/obs"
	"lfsc/internal/policy"
	"lfsc/internal/scenario"
	"lfsc/internal/task"
)

// Config parameterises the serving engine. The learner/topology block
// must match what the clients believe (a replaying load generator built
// from the same scenario and seed produces bit-identical decisions to an
// offline sim.Run — see ReplayScenario); the serving block tunes the
// batcher and backpressure.
type Config struct {
	// Learner / topology. Seed feeds the same master-stream derivation the
	// simulator uses: the policy's RNG is rng.New(Seed).Derive(3).
	SCNs     int
	Capacity int
	Alpha    float64
	Beta     float64
	Dims     int // context dimensionality (task.ContextDims, +1 with latency class)
	H        int // hypercube granularity h_T
	KMax     int // bound on per-SCN visible tasks per slot
	Horizon  int // schedule horizon T
	Seed     uint64

	// Scenario, when set, imposes a timeline of SCN dynamics on serving
	// (see internal/scenario): each decided slot consults the timeline at
	// its own slot index, masking down SCNs out of the view (their
	// learner state freezes) and attaching per-SCN capacity and budget
	// vectors. The timeline must cover exactly SCNs cells; it is
	// immutable and read from the engine goroutine only. Checkpoints
	// record the scenario digest and Restore refuses a mismatch, so a
	// resumed daemon replays the identical dynamics. Nil keeps the
	// static topology.
	Scenario *scenario.Timeline

	// Shards splits the learner across N partial learners (consistent-hash
	// SCN groups), run in parallel for the per-SCN stages of Decide and
	// Observe and joined by a k-way-merged resolution stage; 0 means 1,
	// whose lone shard runs on the goroutine closing the slot. Decisions
	// are bit-identical at any shard count; checkpoints are one file per
	// shard plus a manifest at CheckpointPath, and restore at any shard
	// count (see DESIGN.md §11).
	Shards int

	// Serving knobs.
	//
	// SlotEvery is the slot clock: a non-empty batch closes on each tick.
	// Zero disables the clock — slots then close only at KMax, MaxBatch,
	// or an explicit SubmitRequest.Close (lockstep replay).
	SlotEvery time.Duration
	// MaxBatch closes the slot once it holds at least this many tasks
	// (checked after each whole submission; submissions are never split
	// across slots). Zero defaults to SCNs*KMax, the structural bound.
	MaxBatch int
	// QueueCap bounds tasks accepted but not yet decided; submissions
	// that would exceed it are shed with 429. Zero defaults to 4*MaxBatch.
	QueueCap int
	// SubQueue is the submission channel depth (whole submissions).
	// Zero defaults to 64.
	SubQueue int
	// ReportWait bounds how long a decided slot stays open for outcome
	// reports before Observe runs with whatever arrived. Zero defaults
	// to 2s.
	ReportWait time.Duration

	// CheckpointPath enables checkpointing: the engine atomically writes
	// its state there every CheckpointEvery slots and on graceful Stop.
	CheckpointPath string
	// CheckpointEvery is the periodic checkpoint interval in slots
	// (0 = only on Stop).
	CheckpointEvery int

	// Observability (all optional, nil-safe). Probe records the engine's
	// slot phases (view/decide/realize/observe/snapshot); Registry makes
	// the serving run visible on /lfsc/status and expvar.
	Probe    *obs.Probe
	Registry *obs.Registry
	// SnapshotEvery > 0 emits a policy snapshot to SnapshotSink every
	// that many slots (JSONL events, mirroring the simulator's -snapshots).
	SnapshotEvery int
	SnapshotSink  obs.SnapshotSink
	// Metrics, when set, receives the engine's Prometheus metric
	// families at NewEngine (per-endpoint latency histograms, pipeline
	// counters, per-shard routing/shed/straggler series, SLO gauges) and
	// backs the HTTP server's /metrics endpoint. Scrapes read the same
	// atomics the engine already maintains — enabling metrics adds no
	// hot-path work, so instrumented serving stays bit-identical and at
	// 0 allocs/request.
	Metrics *obs.Metrics
	// SlotRing, when set, records one lifecycle span per served slot
	// (view/decide/merge/report-wait/observe/checkpoint durations plus
	// the per-shard breakdown of the parallel stages), exposed at
	// /lfsc/slots. Build it with obs.NewSlotRing(n, Shards).
	SlotRing *obs.SlotRing
	// SLO, when set, tracks rolling-window request-latency percentiles
	// and the shed rate (obs.NewSLO), surfaced in /metrics, /lfsc/status
	// and /v1/stats. Requests are recorded once they pass validation —
	// the served traffic the SLO is about.
	SLO *obs.SLO
}

func (c *Config) withDefaults() Config {
	cp := *c
	if cp.Dims == 0 {
		cp.Dims = task.ContextDims
	}
	if cp.MaxBatch <= 0 {
		cp.MaxBatch = cp.SCNs * cp.KMax
	}
	if cp.QueueCap <= 0 {
		cp.QueueCap = 4 * cp.MaxBatch
	}
	if cp.SubQueue <= 0 {
		cp.SubQueue = 64
	}
	if cp.ReportWait <= 0 {
		cp.ReportWait = 2 * time.Second
	}
	if cp.Shards <= 0 {
		cp.Shards = 1
	}
	return cp
}

// stepReply is the engine's answer to a queued wireReq: the slot decision
// for its submission part (slot/base/assigned, with assigned aliasing the
// request's own assignedBuf), the absorption result of its report part
// (accepted/repErr — step requests only), and err for terminal failures
// (engine stopped, late pure report).
type stepReply struct {
	slot     int
	base     int
	assigned []int
	accepted int
	repErr   error
	err      error
}

var errStopped = errors.New("serve: engine stopped")

// Engine is the serving core: one logical owner walks the strict slot
// protocol (batch → Decide → reply → collect reports → Observe → maybe
// checkpoint), so the policy never sees concurrent calls. Handlers
// communicate over bounded channels carrying pooled wireReq objects;
// when a queue is full the submission is shed, never blocked on.
//
// The slot protocol is an explicit state machine guarded by mu rather
// than code positions in a goroutine: ingest* feeds events in, advance
// drives decide/finish transitions until the machine parks. The engine
// goroutine runs that machine for channel traffic, ticks, and the
// report-wait timer — but a lockstep caller whose step request closes
// the open slot and the next batch runs the whole transition inline on
// its own stack (tryStepInline), with no channel handoff or context
// switch. Decide/Observe still run strictly in slot order under mu —
// inlining changes which stack does the work, never the order the
// learner sees it, which is why the bit-identity tests pass unchanged.
//
// The loop keeps accepting channel traffic while slot t sits open
// collecting outcome reports: the engine drains the submission channel,
// so slot t+1's batch accumulates during slot t's report wait (its wire
// decoding proceeds on handler goroutines meanwhile). Observe, like every
// other transition, runs under mu, so the learner is never touched by
// two stacks at once.
type Engine struct {
	cfg Config
	// The learner plane (shard.go): one partial learner per non-empty
	// shard, the merger resolving across them, and the SCN→shard layout.
	// decideLeg and observeLeg are the per-shard halves of a slot, bound
	// once so the fan-out allocates nothing per slot.
	shards     []*engineShard
	merger     *core.Merger
	owner      []int
	router     *Router
	decideLeg  func(int)
	observeLeg func(int)
	// ckptGen is the checkpoint generation counter and ckptShards the
	// shard count that wrote it (engine goroutine only): shard files are
	// written under the next generation and committed by the manifest
	// rename, then the previous generation is deleted — a crash at any
	// point leaves one complete generation.
	ckptGen    uint64
	ckptShards int
	// shape is what every request's tasks are validated against as they
	// decode (immutable after NewEngine, shared by all handlers).
	shape reqShape

	subCh    chan *wireReq
	repCh    chan *wireReq
	stopCh   chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	abort    atomic.Bool

	// reqPool recycles wireReq objects across requests. A plain buffered
	// channel, not a sync.Pool: the GC never drains it, which is what
	// lets steady-state handling stay at 0 allocs/request.
	reqPool chan *wireReq

	// pending counts tasks accepted into the queue but not yet decided —
	// the backpressure gauge the submit handler sheds against.
	pending atomic.Int64

	// Counters (atomics: handlers and status readers are concurrent).
	submittedTasks atomic.Uint64
	decidedTasks   atomic.Uint64
	assignedTasks  atomic.Uint64
	reportedTasks  atomic.Uint64
	slotsServed    atomic.Uint64
	shedRequests   atomic.Uint64
	shedTasks      atomic.Uint64
	lateSlots      atomic.Uint64
	lateReports    atomic.Uint64
	cumRewardBits  atomic.Uint64
	slotAtomic     atomic.Int64

	// Request-latency histograms (the obs log₂-bucket machinery). Each
	// endpoint histogram times every request it serves — accepted, shed,
	// and rejected alike; shedLat additionally isolates the 429 paths so
	// overload latency is visible on its own.
	submitLat obs.Histogram
	reportLat obs.Histogram
	stepLat   obs.Histogram
	shedLat   obs.Histogram

	rs *obs.RunStatus

	// mu guards all slot-machine state below: the engine goroutine holds
	// it while processing events, and releases it only while parked in
	// select — which is the window the inline step fast path uses
	// (TryLock) to run transitions on a caller's stack.
	mu       sync.Mutex
	running  bool
	stopping bool
	// kickCh wakes the parked engine goroutine so it re-evaluates its
	// select gating after an inline caller changed machine state the
	// current park doesn't cover (e.g. opened a slot while the park has
	// no timer case armed).
	kickCh chan struct{}
	// parkedTimer records whether the engine's current (or imminent)
	// park includes the report-wait timer case.
	parkedTimer bool

	// Slot-loop state (guarded by mu). deferred holds a drained
	// submission that would overflow the accumulating batch past KMax;
	// it opens the next slot as soon as the current batch is served.
	batch    slotBatch
	deferred *wireReq
	// Ingest staging (guarded by mu): each admitted submission is routed
	// into per-SCN coverage rows at admission time, so closing a slot
	// publishes already-built buffers instead of re-scanning and copying
	// the batch. Two arenas ping-pong: the slot being decided/observed
	// keeps aliasing one while the next slot's traffic stages into the
	// other.
	stages [2]ingestStage
	cur    int
	// view is the single policy-facing SlotView, repointed at the closing
	// arena each slot. One struct suffices: advance decides slot t+1 only
	// once finishSlot has run slot t's Observe (both under mu), and
	// Observe is the last reader of slot t's view.
	view policy.SlotView
	// scen is the per-slot scenario view scratch (guarded by mu; only
	// meaningful while deciding when cfg.Scenario != nil).
	scen   scenario.View
	fb     policy.Feedback
	repU   []float64
	repV   []float64
	repQ   []float64
	repGot []bool
	snap   obs.PolicySnapshot

	// Open-slot state (guarded by mu): set when decideSlot opens a slot
	// for outcome reports, consumed by finishSlot. openView and
	// openAssigned alias policy/scratch storage that stays stable until
	// the next Decide, which cannot happen before finishSlot.
	openActive    bool
	openSlot      int
	openN         int
	openView      *policy.SlotView
	openAssigned  []int
	openRemaining int
	openExpected  int
	openDeadline  time.Time
	openSpan      time.Time
	openTimedOut  bool
	// openCells aliases the open slot's arena cells (per-task hypercube
	// indices, computed by the acceptor as each request decoded), consumed
	// by finishSlot's feedback build.
	openCells []int

	// Slot-trace scratch (guarded by mu; meaningful only when tracing —
	// cfg.SlotRing != nil): explicit per-slot stage timestamps feeding
	// the SlotSpan record. The probe's histograms aggregate; the ring
	// wants the individual slot, hence the separate clock reads.
	trStart     time.Time // decide entry (slot record's wall anchor)
	trViewNS    uint64
	trDecideNS  uint64
	trDecideEnd time.Time
	// lastMergeNS is the most recent Merger.Resolve duration (written in
	// decide under mu).
	lastMergeNS uint64
	// mergeLat is the merge-stage duration histogram (one Record per
	// slot), exported as lfsc_serve_merge_ns.
	mergeLat obs.Histogram
	// Staged-ingest timing (traced engines only — cfg.SlotRing != nil,
	// see admit; guarded by mu): trStageNS accumulates staging time for
	// the slot being batched and is published as openStageNS at close.
	trStageNS   uint64
	openStageNS uint64

	// Report-wait timer, reused across slots. Armed and drained only by
	// the engine goroutine (inline callers never touch it — they kick the
	// loop instead), so the classic Stop/drain/Reset dance stays
	// single-goroutine. timerFired tracks whether the last arm was
	// consumed from timer.C. The timer is armed lazily: an already-armed
	// timer whose deadline is not after the slot's is left alone and its
	// (early) fire handled as spurious, so the steady fast-slot path
	// never touches timer state at all.
	timer         *time.Timer
	timerFired    bool
	timerDeadline time.Time
}

// NewEngine builds the engine (learner, partition, queues) without
// starting it. Use Restore to load a checkpoint before Start.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards > maxShards {
		return nil, fmt.Errorf("serve: %d shards, limit %d", cfg.Shards, maxShards)
	}
	if cfg.Scenario != nil && cfg.Scenario.SCNs() != cfg.SCNs {
		return nil, fmt.Errorf("serve: scenario timeline covers %d SCNs, engine has %d",
			cfg.Scenario.SCNs(), cfg.SCNs)
	}
	part, err := hypercube.New(cfg.Dims, cfg.H)
	if err != nil {
		return nil, fmt.Errorf("serve: partition: %w", err)
	}
	coreCfg := core.Config{
		SCNs:     cfg.SCNs,
		Capacity: cfg.Capacity,
		Alpha:    cfg.Alpha,
		Beta:     cfg.Beta,
		Cells:    part.Cells(),
		KMax:     cfg.KMax,
		Horizon:  cfg.Horizon,
	}
	e := &Engine{
		cfg:     cfg,
		shape:   newReqShape(cfg.Dims, cfg.SCNs, cfg.KMax, part),
		subCh:   make(chan *wireReq, cfg.SubQueue),
		repCh:   make(chan *wireReq, cfg.SubQueue),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
		kickCh:  make(chan struct{}, 1),
		reqPool: make(chan *wireReq, 2*cfg.SubQueue+8),
	}
	e.shards, e.merger, e.owner, e.router, err = buildShards(coreCfg, cfg.Seed, cfg.Shards)
	if err != nil {
		return nil, err
	}
	e.decideLeg, e.observeLeg = e.decideShard, e.observeShard
	e.batch.init(cfg.SCNs)
	for i := range e.stages {
		e.stages[i].cov = make([][]int, cfg.SCNs)
	}
	if cfg.Metrics != nil {
		e.registerMetrics(cfg.Metrics)
	}
	return e, nil
}

// getReq takes a wireReq from the pool (or allocates the pool's first
// few). The caller owns it until putReq.
func (e *Engine) getReq() *wireReq {
	select {
	case q := <-e.reqPool:
		return q
	default:
		return newWireReq(&e.shape)
	}
}

// putReq resets and recycles a wireReq. Only call once the engine can no
// longer reference it: after its reply was received, or before it was
// ever enqueued. A body buffer grown past the shape's maxBody is dropped,
// so a burst of large bodies cannot pin maxWireBody per pooled request.
func (e *Engine) putReq(q *wireReq) {
	q.reset()
	if cap(q.body) > e.shape.maxBody {
		q.body = nil
	}
	// Drain a reply that raced with an engine-stopped exit so the pooled
	// object never resurfaces with a stale message buffered.
	select {
	case <-q.resp:
	default:
	}
	select {
	case e.reqPool <- q:
	default:
	}
}

// Start launches the engine loop. The engine serves until Stop or Abort.
func (e *Engine) Start() {
	if e.cfg.Registry != nil {
		e.rs = e.cfg.Registry.NewRun("lfscd", e.cfg.Horizon)
		// A restored engine re-registers with its history visible.
		if cum := e.CumReward(); cum != 0 {
			e.rs.RecordSlot(cum)
		}
	}
	go e.loop()
}

// Stop closes the engine gracefully: the loop finishes the slot in
// flight, writes a final checkpoint (when configured), fails queued
// submissions, and exits. Stop and Abort are idempotent between them.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	<-e.done
	e.rs.Finish()
}

// Abort is the unclean shutdown used by kill-and-resume tests: the loop
// exits without writing a final checkpoint, as if the process had been
// killed. Only checkpoints already on disk survive.
func (e *Engine) Abort() {
	e.abort.Store(true)
	e.stopOnce.Do(func() { close(e.stopCh) })
	<-e.done
	e.rs.Finish()
}

// Slot returns the next slot index to be decided.
func (e *Engine) Slot() int { return int(e.slotAtomic.Load()) }

// CumReward returns the cumulative compound reward across all served
// slots, including history restored from a checkpoint.
func (e *Engine) CumReward() float64 {
	return math.Float64frombits(e.cumRewardBits.Load())
}

// Stats snapshots the serving counters (status pages and /v1/stats —
// the cold path; it may allocate).
func (e *Engine) Stats() Stats {
	st := e.statsCore()
	if e.cfg.SLO != nil {
		rep := e.cfg.SLO.Report()
		st.SLO = &rep
	}
	if tl := e.cfg.Scenario; tl != nil {
		slot := e.Slot()
		sleeps, fails, rejoins := tl.CumEventTotals(slot)
		st.Scenario = &ScenarioStat{
			Digest:  tl.Digest(),
			Slots:   tl.Slots(),
			UpSCNs:  tl.UpCount(slot),
			Sleeps:  sleeps,
			Fails:   fails,
			Rejoins: rejoins,
		}
	}
	for _, sh := range e.shards {
		st.Shards = append(st.Shards, ShardStat{
			Shard:         sh.id,
			SCNs:          len(sh.owned),
			RoutedSubs:    sh.routedSubs.Load(),
			RoutedTasks:   sh.routedTasks.Load(),
			ShedTasks:     sh.shedTasks.Load(),
			LastDecideNS:  sh.lastDecideNS.Load(),
			LastObserveNS: sh.lastObserveNS.Load(),
			LastStageNS:   sh.lastStageNS.Load(),
		})
	}
	return st
}

func (e *Engine) statsCore() Stats {
	return Stats{
		Slot:           e.Slot(),
		CumReward:      e.CumReward(),
		SubmittedTasks: e.submittedTasks.Load(),
		DecidedTasks:   e.decidedTasks.Load(),
		AssignedTasks:  e.assignedTasks.Load(),
		ReportedTasks:  e.reportedTasks.Load(),
		SlotsServed:    e.slotsServed.Load(),
		ShedRequests:   e.shedRequests.Load(),
		ShedTasks:      e.shedTasks.Load(),
		LateSlots:      e.lateSlots.Load(),
		LateReports:    e.lateReports.Load(),
		SubmitLatency:  e.submitLat.Stat("submit"),
		ReportLatency:  e.reportLat.Stat("report"),
		StepLatency:    e.stepLat.Stat("step"),
		ShedLatency:    e.shedLat.Stat("shed"),
	}
}

// errShed marks a shed submission (mapped to 429 by the HTTP layer).
type shedError struct{ reason string }

func (s *shedError) Error() string { return "serve: shed: " + s.reason }

// IsShed reports whether err is a load-shedding rejection.
func IsShed(err error) bool {
	_, ok := err.(*shedError)
	return ok
}

var (
	shedTaskQueue = &shedError{reason: "task queue full"}
	shedSubQueue  = &shedError{reason: "submission queue full"}
)

// errLateReport marks a report for a slot that is no longer open.
type lateReportError struct{ slot, open int }

func (l *lateReportError) Error() string {
	return fmt.Sprintf("serve: report for slot %d, but slot %d is open", l.slot, l.open)
}

// IsLateReport reports whether err is a closed-slot report rejection.
func IsLateReport(err error) bool {
	_, ok := err.(*lateReportError)
	return ok
}

// dispatchSubmit pushes a validated wireReq through the two backpressure
// gates and waits for the slot decision. On shed the request never
// enters the queue and the caller still owns it.
func (e *Engine) dispatchSubmit(q *wireReq) (stepReply, error) {
	n := int64(len(q.cells))
	// Gate 1: the pending-task budget. Reserve optimistically and roll
	// back on shed so concurrent submitters cannot stampede past the cap.
	if e.pending.Add(n) > int64(e.cfg.QueueCap) {
		e.pending.Add(-n)
		e.shedRequests.Add(1)
		e.shedTasks.Add(uint64(n))
		e.accountShed(q)
		return stepReply{}, shedTaskQueue
	}
	// Gate 2: the submission channel. Never block the handler — a full
	// channel means the batcher is behind; shed.
	select {
	case e.subCh <- q:
	default:
		e.pending.Add(-n)
		e.shedRequests.Add(1)
		e.shedTasks.Add(uint64(n))
		e.accountShed(q)
		return stepReply{}, shedSubQueue
	}
	e.submittedTasks.Add(uint64(n))
	select {
	case rep := <-q.resp:
		return rep, rep.err
	case <-e.done:
		return stepReply{}, errStopped
	}
}

// kick wakes the parked engine loop so it recomputes its select gating.
func (e *Engine) kick() {
	select {
	case e.kickCh <- struct{}{}:
	default:
	}
}

// kickIfStale wakes the loop when the machine parked in a state the
// engine's current select doesn't cover: a slot opened without a timer
// case armed, or a batch closed (or overflow deferred) while subCh is
// still being drained. Call under mu after inline transitions.
func (e *Engine) kickIfStale() {
	if (e.openActive && e.openRemaining > 0 && !e.parkedTimer) ||
		e.deferred != nil || e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) {
		e.kick()
	}
}

// tryStepInline runs a validated submission through the slot machine on
// the caller's own stack when the engine is parked and the channels are
// idle: absorb the report part, admit the tasks, advance — which in
// lockstep operation decides the next slot before the call returns,
// with no channel handoff or context switch. Returns ok=false when the
// fast path's preconditions don't hold; the caller must then dispatch
// through the channels. When ok, the semantics (shed accounting, reply,
// error surface) are exactly those of dispatchSubmit. A closed batch or
// a deferred overflow refuses the fast path, just as the loop's park
// stops draining subCh, so a submission joins the batch the channel path
// would have put it in.
func (e *Engine) tryStepInline(q *wireReq) (stepReply, error, bool) {
	if !e.mu.TryLock() {
		return stepReply{}, nil, false
	}
	if !e.running || e.stopping || e.deferred != nil || len(e.subCh) > 0 || len(e.repCh) > 0 ||
		e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) {
		e.mu.Unlock()
		return stepReply{}, nil, false
	}
	// The pending-task gate, exactly as dispatchSubmit applies it. The
	// subCh gate has no inline analogue: the request never queues.
	n := int64(len(q.cells))
	if e.pending.Add(n) > int64(e.cfg.QueueCap) {
		e.pending.Add(-n)
		e.mu.Unlock()
		e.shedRequests.Add(1)
		e.shedTasks.Add(uint64(n))
		e.accountShed(q)
		return stepReply{}, shedTaskQueue, true
	}
	e.submittedTasks.Add(uint64(n))
	e.ingestStep(q)
	e.advance()
	e.kickIfStale()
	e.mu.Unlock()
	// In lockstep the reply is already buffered and the select returns
	// without parking; otherwise wait like the channel path does (the
	// batch is still accumulating, or the open slot still needs other
	// clients' reports).
	select {
	case rep := <-q.resp:
		return rep, rep.err, true
	case <-e.done:
		return stepReply{}, errStopped, true
	}
}

// dispatchReport delivers a pure report (no tasks) to the engine
// goroutine and waits for the absorb result. That goroutine replies as
// soon as the reports are absorbed and only then finishes the slot, so
// the reply is not held behind Observe, a checkpoint or the next decide.
func (e *Engine) dispatchReport(q *wireReq) (stepReply, error) {
	select {
	case e.repCh <- q:
	case <-e.done:
		return stepReply{}, errStopped
	}
	select {
	case rep := <-q.resp:
		return rep, rep.err
	case <-e.done:
		return stepReply{}, errStopped
	}
}

// submit runs a validated submission through the slot machine: inline on
// the caller's stack when the engine is parked with idle channels, through
// the channels otherwise. Every caller — the HTTP handlers and the
// in-process API — goes through here.
func (e *Engine) submit(q *wireReq) (stepReply, error) {
	if rep, err, ok := e.tryStepInline(q); ok {
		return rep, err
	}
	return e.dispatchSubmit(q)
}

// sloOutcome tags how a request ended for reqDone: validation and
// shutdown errors are latency samples but not SLO samples (the window
// tracks requests the engine actually accepted responsibility for).
type sloOutcome int8

const (
	sloSkip sloOutcome = iota
	sloOK
	sloShed
)

// reqDone closes a request's latency measurement with a single clock
// read feeding both the per-endpoint histogram and (for validated
// requests) the rolling SLO window — Histogram.Observe plus SLO.Record
// would read the clock twice per request, and on the target machines a
// clock read costs as much as the whole recording path.
func (e *Engine) reqDone(h *obs.Histogram, start time.Time, out sloOutcome) {
	now := time.Now()
	d := now.Sub(start)
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
	if out != sloSkip {
		e.cfg.SLO.RecordAt(now.Unix(), uint64(d), out == sloShed)
	}
}

// Submit validates and enqueues a batch of task arrivals, blocking until
// the slot containing them is decided. Shed submissions return a
// *shedError immediately — the caller must retry later (429 semantics).
// This is the copying convenience API (tests, in-process callers); the
// HTTP handlers run the same dispatch on pooled requests directly.
func (e *Engine) Submit(req *SubmitRequest) (*SubmitResponse, error) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.submitLat, start, out) }()
	q := e.getReq()
	q.close = req.Close
	if err := q.acceptSpecs(req.Tasks); err != nil {
		e.putReq(q)
		return nil, err
	}
	rep, err := e.submit(q)
	if err != nil {
		if IsShed(err) {
			out = sloShed
			e.shedLat.Observe(start)
			e.putReq(q)
		}
		// Engine stopped: the reply may still arrive; leak q to the GC
		// rather than recycle an object the engine could touch.
		return nil, err
	}
	out = sloOK
	resp := &SubmitResponse{Slot: rep.slot, Base: rep.base, Assigned: append([]int(nil), rep.assigned...)}
	e.putReq(q)
	return resp, nil
}

// Report delivers realised outcomes for the open slot, blocking until
// absorbed or rejected. Like /v1/report it returns before the slot's
// Observe runs: a caller that reads Slot or CumReward next must wait for
// the slot to finish.
func (e *Engine) Report(req *ReportRequest) (*ReportResponse, error) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.reportLat, start, out) }()
	if len(req.Reports) == 0 {
		return nil, fmt.Errorf("serve: empty report")
	}
	q := e.getReq()
	q.slot = req.Slot
	q.hasSlot = true
	q.reports = append(q.reports[:0], req.Reports...)
	q.hasReps = true
	rep, err := e.dispatchReport(q)
	if err != nil {
		if !errors.Is(err, errStopped) {
			out = sloOK
			e.putReq(q)
		}
		return nil, err
	}
	out = sloOK
	resp := &ReportResponse{Accepted: rep.accepted}
	e.putReq(q)
	return resp, nil
}

// StepInto is the batched round-trip: deliver the previous slot's
// outcome reports and submit the next slot's tasks in one call, parsing
// the combined acknowledgement into resp (reusing resp.Assigned — the
// allocation-lean path for in-process lockstep loops). The report part
// is absorbed first (its rejection, if any, comes back in
// resp.ReportError — the submission proceeds regardless); on shed, the
// report part is still delivered so the open slot's Observe is never
// starved by backpressure on the next slot.
func (e *Engine) StepInto(req *StepRequest, resp *StepResponse) error {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.stepLat, start, out) }()
	resp.Accepted = 0
	resp.ReportError = ""
	resp.Slot, resp.Base = 0, 0
	resp.Assigned = resp.Assigned[:0]
	q := e.getReq()
	q.close = req.Close
	q.slot = req.Slot
	q.hasSlot = true
	q.reports = append(q.reports[:0], req.Reports...)
	q.hasReps = len(req.Reports) > 0
	if err := q.acceptSpecs(req.Tasks); err != nil {
		e.putReq(q)
		return err
	}
	rep, err := e.submit(q)
	if err != nil {
		if IsShed(err) {
			out = sloShed
			e.shedLat.Observe(start)
			if len(q.reports) > 0 {
				if rrep, rerr := e.dispatchReport(q); rerr == nil {
					resp.Accepted = rrep.accepted
				} else if errors.Is(rerr, errStopped) {
					// The engine may still touch q; leak it to the GC.
					return err
				}
			}
			e.putReq(q)
		}
		return err
	}
	out = sloOK
	resp.Accepted = rep.accepted
	if rep.repErr != nil {
		resp.ReportError = rep.repErr.Error()
	}
	resp.Slot = rep.slot
	resp.Base = rep.base
	resp.Assigned = append(resp.Assigned[:0], rep.assigned...)
	e.putReq(q)
	return nil
}

// Step is the allocating convenience wrapper over StepInto.
func (e *Engine) Step(req *StepRequest) (*StepResponse, error) {
	resp := &StepResponse{}
	err := e.StepInto(req, resp)
	if err != nil {
		if IsShed(err) {
			return resp, err
		}
		return nil, err
	}
	return resp, nil
}

// loop is the engine goroutine: it parks in select and feeds events into
// the slot state machine. All machine transitions run under mu, whether
// on this goroutine or inlined on a lockstep caller's stack.
func (e *Engine) loop() {
	defer close(e.done)
	var tickCh <-chan time.Time
	if e.cfg.SlotEvery > 0 {
		t := time.NewTicker(e.cfg.SlotEvery)
		defer t.Stop()
		tickCh = t.C
	}
	e.mu.Lock()
	e.running = true
	e.slotAtomic.Store(int64(e.slotsSeen()))
	e.mu.Unlock()
	for {
		// Compute the park's gating under mu, then wait unlocked — the
		// window inline callers use. Draining subCh pauses once the next
		// batch is closed or an overflow submission is deferred; the slot
		// clock only matters between slots (a tick landing during a report
		// wait stays buffered in the ticker, as before the flattening);
		// the timer case exists only while a slot is open.
		e.mu.Lock()
		subCh := e.subCh
		if e.deferred != nil || e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) {
			subCh = nil
		}
		ticks := tickCh
		var timerC <-chan time.Time
		if e.openActive {
			ticks = nil
			e.armTimerBy(e.openDeadline)
			timerC = e.timer.C
			e.parkedTimer = true
		} else {
			e.parkedTimer = false
		}
		e.mu.Unlock()

		select {
		case q := <-subCh:
			e.mu.Lock()
			e.ingestStep(q)
			e.advance()
			e.mu.Unlock()
		case q := <-e.repCh:
			e.mu.Lock()
			e.ingestReport(q)
			e.advance()
			e.mu.Unlock()
		case <-ticks:
			// Slot clock: a non-empty batch closes on each tick (decideSlot
			// is a no-op on an empty one — no arrivals, no slot).
			e.mu.Lock()
			e.decideSlot()
			e.advance()
			e.mu.Unlock()
		case <-timerC:
			e.mu.Lock()
			e.timerFired = true
			if e.openActive && !time.Now().Before(e.openDeadline) {
				// Report wait expired: Observe with whatever arrived.
				e.lateSlots.Add(1)
				e.openTimedOut = true
				e.openRemaining = 0
				e.advance()
			}
			// Otherwise the fire was armed for an earlier slot's deadline
			// (or the slot closed inline before the fire landed): spurious;
			// the next park re-arms.
			e.mu.Unlock()
		case <-e.kickCh:
			// An inline caller changed machine state this park's gating
			// doesn't reflect; just re-park.
		case <-e.stopCh:
			e.mu.Lock()
			e.shutdown()
			e.mu.Unlock()
			return
		}
	}
}

// ingestStep feeds a drained step/submit request into the machine: its
// report part is absorbed into the open slot (or rejected as late when
// no slot is open), its tasks join the accumulating batch. Call under mu.
func (e *Engine) ingestStep(q *wireReq) {
	if len(q.reports) > 0 {
		if e.openActive {
			q.repAccepted, q.repErr = e.absorbReports(e.openSlot, e.openN, e.openAssigned, q.slot, q.reports)
			e.openRemaining -= q.repAccepted
		} else {
			// A step's report part arriving between slots: the slot it
			// reports on has already closed.
			e.lateReports.Add(1)
			q.repErr = &lateReportError{slot: q.slot, open: int(e.slotAtomic.Load())}
		}
	}
	e.accountRouting(q)
	e.admit(q)
}

// ingestReport feeds a pure report into the machine and replies with the
// absorb result immediately (its resp channel is buffered). Call under mu.
func (e *Engine) ingestReport(q *wireReq) {
	if e.openActive {
		acc, err := e.absorbReports(e.openSlot, e.openN, e.openAssigned, q.slot, q.reports)
		e.openRemaining -= acc
		q.resp <- stepReply{accepted: acc, err: err}
		return
	}
	e.lateReports.Add(1)
	q.resp <- stepReply{err: &lateReportError{slot: q.slot, open: int(e.slotAtomic.Load())}}
}

// advance drives the machine until it parks: finish the open slot once
// every expected report is in (or the engine is stopping), serve the
// batch a deferred overflow submission forced out and then re-admit it,
// and decide a batch that is bound to close (explicit close, MaxBatch,
// KMax). Call under mu.
func (e *Engine) advance() {
	for {
		if e.openActive {
			if e.openRemaining > 0 && !e.stopping {
				return
			}
			e.finishSlot()
			continue
		}
		if e.deferred != nil {
			e.decideSlot()
			q := e.deferred
			e.deferred = nil
			e.admit(q)
			continue
		}
		if e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) {
			e.decideSlot()
			continue
		}
		return
	}
}

// admit adds a drained submission to the accumulating batch, or parks it
// in deferred when it would push a coverage list past KMax (the batch
// must be served first). The park gating stops draining subCh while
// deferred is set. Admitted tasks are staged into the current arena
// immediately — admission order is slot order — so the close has
// nothing left to partition. Call under mu.
func (e *Engine) admit(q *wireReq) {
	if e.batch.wouldOverflow(q, e.cfg.KMax) {
		e.deferred = q
		return
	}
	e.batch.add(q, e.stages[e.cur].n)
	// Stage timing attributes ingest cost across shards; it costs two
	// clock reads per admission, so only traced engines pay it.
	if e.cfg.SlotRing == nil {
		e.stageSub(q)
		return
	}
	t0 := time.Now()
	e.stageSub(q)
	d := uint64(time.Since(t0))
	e.trStageNS += d
	e.shards[e.router.Shard(q.scns[0])].stageAccNS += d
}

// stageSub routes a submission's tasks into the current staging arena:
// its hypercube cells (the acceptor computed them as the request
// decoded) in one bulk copy, and each task's slot index appended to the
// coverage row of every visible SCN. The rows come out exactly as a
// close-time re-scan of the batch would build them — admission order is
// preserved — so decisions are bit-identical. Call under mu.
func (e *Engine) stageSub(q *wireReq) {
	st := &e.stages[e.cur]
	idx := st.n
	st.cells = append(st.cells, q.cells...)
	var start int32
	for _, end := range q.ends {
		for _, m := range q.scns[start:end] {
			st.cov[m] = append(st.cov[m], idx)
		}
		start = end
		idx++
	}
	st.n = idx
}

// shutdown finishes the engine: flush the slot in flight (and any batch
// already bound to close) with whatever reports arrived, write a final
// checkpoint (unless aborted), then fail everything still queued so no
// handler blocks forever. Call under mu.
func (e *Engine) shutdown() {
	e.stopping = true
	e.advance()
	if !e.abort.Load() && e.cfg.CheckpointPath != "" {
		// Best effort — the periodic checkpoint remains if this fails.
		_ = e.checkpointNow()
	}
	e.failBatch(errStopped)
	if q := e.deferred; q != nil {
		e.deferred = nil
		e.pending.Add(-int64(len(q.cells)))
		q.resp <- stepReply{err: errStopped}
	}
	e.running = false
	for {
		select {
		case q := <-e.subCh:
			e.pending.Add(-int64(len(q.cells)))
			q.resp <- stepReply{err: errStopped}
		case q := <-e.repCh:
			q.resp <- stepReply{err: errStopped}
		default:
			return
		}
	}
}

func (e *Engine) failBatch(err error) {
	for _, q := range e.batch.subs {
		e.pending.Add(-int64(len(q.cells)))
		q.resp <- stepReply{err: err}
	}
	e.batch.reset()
	// The failed submissions' tasks were already staged; drop them with
	// the batch so the arena cannot leak into a later slot.
	e.stages[e.cur].reset()
}

// decideSlot closes the accumulated batch and opens the slot: publish
// the staged arena as the slot view, Decide, reply to submitters, then
// leave the slot open for outcome reports (openRemaining counts the
// assigned tasks still unreported; finishSlot runs once it reaches
// zero). Call under mu. Mirrors the phase structure of sim.Run so the
// probe's breakdown is comparable across offline and serving runs (the
// view phase now only publishes — the build work happened at ingest).
func (e *Engine) decideSlot() {
	b := &e.batch
	st := &e.stages[e.cur]
	n := st.n
	if n == 0 {
		return
	}
	// One clock read per phase boundary, shared between the probe and
	// the slot tracer — duplicate time.Now() calls were the dominant
	// cost of the fully-instrumented slot path (a clock read costs as
	// much as several histogram records on the target machines).
	probe := e.cfg.Probe
	traced := e.cfg.SlotRing != nil
	instr := probe != nil || traced
	slot := e.slotsSeen()
	var span time.Time
	if instr {
		span = time.Now()
	}
	if traced {
		e.trStart = span
	}
	// Scenario masking is daemon-side: clients submit their full spec and
	// the view builder empties down SCNs' coverage rows, exactly as the
	// offline simulator masks at its view boundary — which is what keeps
	// client, daemon, and sim.Run bit-identical under churn.
	var dyn *scenario.View
	if e.cfg.Scenario != nil {
		e.cfg.Scenario.ViewInto(slot, &e.scen)
		dyn = &e.scen
	}
	view := e.publishView(slot, st, dyn)
	if instr {
		span = probe.LapAt(obs.PhaseView, span, time.Now())
		if traced {
			e.trViewNS = uint64(span.Sub(e.trStart))
		}
	}
	trMid := span
	assigned := e.decide()
	if instr {
		span = probe.LapAt(obs.PhaseDecide, span, time.Now())
		if traced {
			e.trDecideEnd = span
			e.trDecideNS = uint64(span.Sub(trMid))
		}
	}

	// Reply to every submitter with its contiguous range of decisions,
	// copied into the request's own reusable buffer. After the reply the
	// engine never touches the request (or the batch specs aliasing its
	// decoded buffers) again, which is what lets the handler recycle it.
	for i, q := range b.subs {
		base := b.subBase[i]
		q.assignedBuf = append(q.assignedBuf[:0], assigned[base:base+len(q.cells)]...)
		e.pending.Add(-int64(len(q.cells)))
		q.resp <- stepReply{
			slot: slot, base: base, assigned: q.assignedBuf,
			accepted: q.repAccepted, repErr: q.repErr,
		}
	}
	e.decidedTasks.Add(uint64(n))
	expected := 0
	for _, m := range assigned {
		if m >= 0 {
			expected++
		}
	}
	e.assignedTasks.Add(uint64(expected))

	// Flip the staging arenas and reset the sequencer: the NEXT slot
	// stages into the other arena while this one (aliased by the live
	// view) collects reports and observes.
	b.reset()
	e.cur ^= 1
	e.stages[e.cur].reset()
	if traced {
		e.openStageNS = e.trStageNS
		e.trStageNS = 0
		for _, sh := range e.shards {
			sh.lastStageNS.Store(sh.stageAccNS)
			sh.stageAccNS = 0
		}
	}

	// Reset the per-task report scratch and open the slot.
	if cap(e.repGot) < n {
		e.repGot = make([]bool, n)
		e.repU = make([]float64, n)
		e.repV = make([]float64, n)
		e.repQ = make([]float64, n)
	}
	e.repGot = e.repGot[:n]
	e.repU, e.repV, e.repQ = e.repU[:n], e.repV[:n], e.repQ[:n]
	for i := range e.repGot {
		e.repGot[i] = false
	}
	e.openActive = true
	e.openSlot = slot
	e.openN = n
	e.openView = view
	e.openCells = st.cells
	e.openAssigned = assigned
	e.openRemaining = expected
	e.openExpected = expected
	if instr {
		// span is the after-decide timestamp — the moment the wait
		// actually starts, and one fewer clock read than time.Now().
		e.openDeadline = span.Add(e.cfg.ReportWait)
	} else {
		e.openDeadline = time.Now().Add(e.cfg.ReportWait)
	}
	e.openSpan = span
	e.openTimedOut = false
}

// finishSlot closes the open slot: build the feedback from whatever
// reports arrived, Observe, account, maybe checkpoint. Call under mu,
// which stays held throughout — Observe is a transition like any other.
// An inline lockstep step that closes the slot runs the whole sequence
// on the caller's stack.
func (e *Engine) finishSlot() {
	probe := e.cfg.Probe
	traced := e.cfg.SlotRing != nil
	instr := probe != nil || traced
	n, assigned := e.openN, e.openAssigned
	var span time.Time
	if instr {
		span = probe.LapAt(obs.PhaseRealize, e.openSpan, time.Now())
	}
	trObsStart := span
	var waitNS, observeNS, ckptNS uint64
	if traced {
		waitNS = uint64(trObsStart.Sub(e.trDecideEnd))
	}

	// Feedback and reward in ascending task order — the exact summation
	// order of the offline simulator, so cumulative rewards stay
	// bit-comparable.
	e.fb.Execs = e.fb.Execs[:0]
	slotReward := 0.0
	for idx := 0; idx < n; idx++ {
		if !e.repGot[idx] {
			continue
		}
		ex := policy.Exec{
			SCN: assigned[idx], Task: idx, Cell: e.openCells[idx],
			U: e.repU[idx], V: e.repV[idx], Q: e.repQ[idx],
		}
		e.fb.Execs = append(e.fb.Execs, ex)
		slotReward += ex.Compound()
	}
	e.openActive = false
	e.observe()
	if instr {
		span = probe.LapAt(obs.PhaseObserve, span, time.Now())
		if traced {
			observeNS = uint64(span.Sub(trObsStart))
		}
	}
	probe.EndSlot()
	if e.cfg.SlotEvery > 0 {
		// The loop may be parked with the ticker gated, because the slot
		// was open when it parked, while this slot finished on an inline
		// caller's stack. kickIfStale does not cover that park; without
		// the kick a buffered tick would wait for the report-wait timer.
		e.kick()
	}

	cum := e.CumReward() + slotReward
	e.cumRewardBits.Store(math.Float64bits(cum))
	e.slotAtomic.Store(int64(e.slotsSeen()))
	e.slotsServed.Add(1)
	e.rs.RecordSlot(slotReward)

	t := e.slotsSeen()
	if e.cfg.SnapshotEvery > 0 && e.cfg.SnapshotSink != nil && t%e.cfg.SnapshotEvery == 0 {
		e.snap.Slot = t - 1
		e.snap.CumReward = cum
		e.snapshotPolicy(&e.snap)
		e.cfg.SnapshotSink.OnSnapshot(&e.snap)
	}
	if e.cfg.CheckpointEvery > 0 && e.cfg.CheckpointPath != "" && t%e.cfg.CheckpointEvery == 0 {
		if instr {
			span = time.Now()
		}
		trCkpt := span
		_ = e.checkpointNow()
		if instr {
			span = probe.LapAt(obs.PhaseSnapshot, span, time.Now())
			if traced {
				ckptNS = uint64(span.Sub(trCkpt))
			}
		}
	}
	if traced {
		rec := e.cfg.SlotRing.Begin()
		rec.Slot = e.openSlot
		rec.StartUnixNS = e.trStart.UnixNano()
		rec.Tasks = n
		rec.Assigned = e.openExpected
		rec.Reported = len(e.fb.Execs)
		rec.TimedOut = e.openTimedOut
		rec.StageNS = e.openStageNS
		rec.ViewNS = e.trViewNS
		rec.DecideNS = e.trDecideNS
		rec.MergeNS = e.lastMergeNS
		rec.WaitNS = waitNS
		rec.ObserveNS = observeNS
		rec.CheckpointNS = ckptNS
		for _, sh := range e.shards {
			rec.ShardDecideNS = append(rec.ShardDecideNS, sh.lastDecideNS.Load())
			rec.ShardObserveNS = append(rec.ShardObserveNS, sh.lastObserveNS.Load())
			rec.ShardStageNS = append(rec.ShardStageNS, sh.lastStageNS.Load())
		}
		e.cfg.SlotRing.Publish()
	}
}

// armTimerBy readies the reused report-wait timer to fire no later than
// deadline. If the timer is already armed for an earlier (or equal)
// deadline it is left untouched — the loop treats a fire before the
// open slot's true deadline as spurious and re-parks — which keeps the
// steady fast-slot path free of Stop/Reset timer traffic entirely.
// Otherwise: classic pre-1.23 semantics — Stop, drain the channel if an
// old fire is still buffered, then Reset. Called only from the engine
// goroutine (inline callers kick the loop rather than arm the timer),
// so the drain never races a concurrent receive.
func (e *Engine) armTimerBy(deadline time.Time) {
	if e.timer == nil {
		e.timer = time.NewTimer(time.Until(deadline))
		e.timerDeadline = deadline
		return
	}
	if !e.timerFired && !e.timerDeadline.After(deadline) {
		return
	}
	if !e.timer.Stop() && !e.timerFired {
		<-e.timer.C
	}
	e.timerFired = false
	e.timer.Reset(time.Until(deadline))
	e.timerDeadline = deadline
}

// absorbReports validates a whole report batch against the open slot and
// commits it atomically: any invalid entry rejects the batch with no
// partial state.
func (e *Engine) absorbReports(slot, n int, assigned []int, reqSlot int, reports []TaskReport) (int, error) {
	if reqSlot != slot {
		e.lateReports.Add(1)
		return 0, &lateReportError{slot: reqSlot, open: slot}
	}
	// Validation marks repGot as it goes — one pass catches both a task
	// already reported by an earlier request and a duplicate within this
	// one — and rolls the marks back on rejection so the batch stays
	// atomic.
	reject := func(i int, err error) (int, error) {
		for j := 0; j < i; j++ {
			e.repGot[reports[j].Task] = false
		}
		return 0, err
	}
	for i := range reports {
		r := &reports[i]
		switch {
		case r.Task < 0 || r.Task >= n:
			return reject(i, fmt.Errorf("serve: report %d: task %d out of range", i, r.Task))
		case assigned[r.Task] < 0:
			return reject(i, fmt.Errorf("serve: report %d: task %d was not assigned", i, r.Task))
		case e.repGot[r.Task]:
			return reject(i, fmt.Errorf("serve: report %d: task %d already reported", i, r.Task))
		case math.IsNaN(r.U) || r.U < 0 || r.U > 1:
			return reject(i, fmt.Errorf("serve: report %d: reward %v outside [0,1]", i, r.U))
		case r.V != 0 && r.V != 1:
			return reject(i, fmt.Errorf("serve: report %d: completion %v not in {0,1}", i, r.V))
		case math.IsNaN(r.Q) || math.IsInf(r.Q, 0) || r.Q <= 0:
			return reject(i, fmt.Errorf("serve: report %d: consumption %v not positive", i, r.Q))
		}
		e.repGot[r.Task] = true
	}
	for i := range reports {
		r := &reports[i]
		e.repU[r.Task], e.repV[r.Task], e.repQ[r.Task] = r.U, r.V, r.Q
	}
	e.reportedTasks.Add(uint64(len(reports)))
	return len(reports), nil
}

// slotBatch is the slot sequencer: it owns only the boundary decisions
// (explicit close, MaxBatch, per-SCN KMax) and the submitter reply
// bookkeeping. The tasks themselves live in the staging arenas — the
// sequencer never copies a spec.
type slotBatch struct {
	n        int
	subs     []*wireReq
	subBase  []int
	scnCount []int
	closeReq bool
}

func (b *slotBatch) init(scns int) {
	b.scnCount = make([]int, scns)
}

// wouldOverflow reports whether admitting q would push any SCN's
// coverage past kMax — the "slot is full at KMax" close condition — from
// the request's per-SCN counts. An empty batch never overflows (a lone
// submission's counts were already held to KMax by the acceptor).
func (b *slotBatch) wouldOverflow(q *wireReq, kMax int) bool {
	if b.n == 0 {
		return false
	}
	for m, c := range q.counts {
		if b.scnCount[m]+c > kMax {
			return true
		}
	}
	return false
}

// add sequences a submission: base is its first task's slot index (the
// staging arena's pre-admission fill).
func (b *slotBatch) add(q *wireReq, base int) {
	b.subs = append(b.subs, q)
	b.subBase = append(b.subBase, base)
	b.n += len(q.cells)
	for m, c := range q.counts {
		b.scnCount[m] += c
	}
	if q.close {
		b.closeReq = true
	}
}

func (b *slotBatch) shouldClose(maxBatch, kMax int) bool {
	if b.n == 0 {
		return false
	}
	if b.closeReq || b.n >= maxBatch {
		return true
	}
	for _, c := range b.scnCount {
		if c >= kMax {
			return true
		}
	}
	return false
}

func (b *slotBatch) reset() {
	b.n = 0
	b.subs = b.subs[:0]
	b.subBase = b.subBase[:0]
	for m := range b.scnCount {
		b.scnCount[m] = 0
	}
	b.closeReq = false
}

// ingestStage is one of the engine's two ping-pong staging arenas: the
// per-task hypercube cells and the per-SCN coverage rows, both filled at
// admission time in arrival order — exactly what LFSC reads. Publishing
// a slot is then just handing these buffers to the view.
type ingestStage struct {
	cells []int
	cov   [][]int
	n     int
}

func (s *ingestStage) reset() {
	s.cells = s.cells[:0]
	s.n = 0
	for m := range s.cov {
		s.cov[m] = s.cov[m][:0]
	}
}

// publishView turns the closed staging arena into the policy-facing
// SlotView: coverage rows and cells are handed over by pointer (no
// re-scan, no copy), and scenario masking empties down SCNs' rows exactly
// as the offline simulator's view boundary does — which is what keeps
// client, daemon, and sim.Run bit-identical under churn. The view
// carries no contexts: policy.SlotView documents that LFSC needs only
// Cells. Call under mu; the view aliases the arena, which stays
// untouched until the slot's Observe completes (the other arena takes
// the ingest traffic meanwhile).
func (e *Engine) publishView(t int, st *ingestStage, dyn *scenario.View) *policy.SlotView {
	v := &e.view
	scns := e.cfg.SCNs
	if cap(v.SCNs) < scns {
		v.SCNs = make([]policy.SCNView, scns)
	}
	v.SCNs = v.SCNs[:scns]
	for m := 0; m < scns; m++ {
		if dyn != nil && !dyn.Up[m] {
			v.SCNs[m].Cover = nil
			continue
		}
		v.SCNs[m].Cover = st.cov[m]
	}
	if dyn == nil {
		v.Caps, v.AlphaMul, v.BetaMul = nil, nil, nil
	} else {
		v.Caps, v.AlphaMul, v.BetaMul = dyn.Caps, dyn.AlphaMul, dyn.BetaMul
	}
	v.T = t
	v.NumTasks = st.n
	v.Cells = st.cells
	return v
}
