package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
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
	// immutable and read only under the engine's mutex. Checkpoints
	// record the scenario digest and Restore refuses a mismatch, so a
	// resumed daemon replays the identical dynamics. Nil keeps the
	// static topology.
	Scenario *scenario.Timeline

	// Shards splits the learner across N partial learners (consistent-hash
	// SCN groups), whose per-SCN stages of Decide and Observe run one
	// shard after another on the goroutine closing the slot and are joined
	// by a k-way-merged resolution stage; 0 means 1. Decisions are
	// bit-identical at any shard count; a checkpoint is one file at
	// CheckpointPath, the same bytes at every shard count, and restores at
	// any shard count (see DESIGN.md §11).
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
	// SubQueue bounds the submissions not yet admitted to a batch (whole
	// submissions waiting for the slot machine or queued behind a closed
	// batch); a submission past it is shed with 429. Zero defaults to 64.
	SubQueue int
	// ReportWait bounds how long a decided slot stays open for outcome
	// reports before Observe runs with whatever arrived. Zero defaults
	// to 2s.
	ReportWait time.Duration

	// CheckpointPath enables checkpointing: the engine atomically writes
	// its state there every CheckpointEvery slots and on graceful Stop.
	// Its directory must exist; NewEngine refuses the path otherwise.
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
	// counters, per-shard routing/shed/leg-duration series, SLO gauges) and
	// backs the HTTP server's /metrics endpoint. Scrapes read the same
	// atomics the engine already maintains — enabling metrics adds no
	// hot-path work, so instrumented serving stays bit-identical and at
	// 0 allocs/request.
	Metrics *obs.Metrics
	// SlotRing, when set, records one lifecycle span per served slot
	// (view/decide/merge/report-wait/observe/checkpoint durations plus
	// the per-shard breakdown of the decide and observe stages), exposed at
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

// stepReply is the engine's one answer to an entered submission: the slot
// decision (slot/base/assigned, with assigned aliasing the request's own
// assignedBuf), the absorption result of its report part (accepted/repErr
// — step requests only), or err = errStopped when the engine stopped
// before deciding it.
type stepReply struct {
	slot     int
	base     int
	assigned []int
	accepted int
	repErr   error
	err      error
}

var errStopped = errors.New("serve: engine stopped")

// Engine is the serving core: one slot machine walks the strict slot
// protocol (batch → Decide → reply → collect reports → Observe → maybe
// checkpoint) under mu, so the policy never sees concurrent calls.
//
// The machine has no goroutine of its own. Every event runs it under mu
// on the goroutine that delivers the event: a request on its caller's
// stack (enter, report), a slot-clock tick on the clock goroutine, which
// exists only when SlotEvery > 0, and a report-wait expiry in the
// timer's callback (expire). Each event feeds the machine, then advance
// drives decide/finish transitions until the machine waits on an event
// again. In lockstep the step that completes the open slot and closes
// the next batch runs absorb → Observe → Decide on its own stack, and its
// reply is ready when it leaves the machine. Decide and Observe run
// strictly in slot order under mu whichever stack runs them, so the
// learner sees the same sequence as the offline simulator.
//
// A step's report part is absorbed into the open slot the moment it
// arrives. Its tasks join the accumulating batch, so slot t+1's batch
// fills during slot t's report wait; while that batch is already bound to
// close, or the first waiting submission would push a coverage row past
// KMax, they wait in queue in arrival order until advance admits them.
// A step that finishes slot t therefore never waits behind the batch it
// cannot join yet.
type Engine struct {
	cfg Config
	// The learner plane (shard.go): one partial learner per non-empty
	// shard, the merger resolving across them, and the SCN→shard layout.
	shards []*engineShard
	merger *core.Merger
	owner  []int
	router *Router
	// Checkpoint commit state (guarded by mu): the file and encode buffer
	// every commit reuses, and the file operations.
	ckpt    checkpointFile
	ckptBuf bytes.Buffer
	ckptFS  ckptFS
	// stopErr is the final checkpoint's error, returned by Stop (written
	// by halt under mu).
	stopErr error
	// shape is what every request's tasks are validated against as they
	// decode (immutable after NewEngine, shared by all handlers).
	shape reqShape

	// done is closed when the engine stops; the slot clock exits on it,
	// and Stop and Abort wait for that on clockExit.
	done      chan struct{}
	clockExit sync.WaitGroup

	// reqPool recycles wireReq objects across requests. A plain buffered
	// channel, not a sync.Pool: the GC never drains it, which is what
	// lets steady-state handling stay at 0 allocs/request.
	reqPool chan *wireReq

	// The two backpressure gauges enter sheds against: pending counts
	// tasks accepted but not yet decided, waiting counts submissions not
	// yet admitted to a batch (waiting for mu or in queue).
	pending atomic.Int64
	waiting atomic.Int64

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
	// Checkpoint commits (ok and failed) and the slot of the last one
	// committed, written only at commit time.
	ckptOK     atomic.Uint64
	ckptFailed atomic.Uint64
	ckptSlot   atomic.Int64

	// Request-latency histograms (the obs log₂-bucket machinery). Each
	// endpoint histogram times every request it serves — accepted, shed,
	// and rejected alike; shedLat additionally isolates the 429 paths so
	// overload latency is visible on its own.
	submitLat obs.Histogram
	reportLat obs.Histogram
	stepLat   obs.Histogram
	shedLat   obs.Histogram

	rs *obs.RunStatus

	// mu guards all slot-machine state below. Whoever delivers an event
	// holds it while the machine runs.
	mu sync.Mutex
	// stopped is set by halt; the machine takes no event after it.
	stopped bool
	// tickDue is a slot-clock tick not yet acted on: a tick that lands
	// while a slot is open waits for the slot to finish, as a tick
	// buffered in a ticker's channel would.
	tickDue bool

	// Slot-loop state (guarded by mu). queue holds, in arrival order, the
	// submissions that cannot join the batch yet: it is bound to close,
	// or the head would push a coverage row past KMax, which forces the
	// batch out first.
	batch slotBatch
	queue []*wireReq
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

	// Report-wait timer, reused across slots; its callback is expire.
	// timerArmed says a fire is pending. Arming is lazy (see armTimer): an
	// armed timer is left alone when a later slot opens, so the steady
	// fast-slot path never touches timer state at all.
	timer      *time.Timer
	timerArmed bool
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
	if cfg.CheckpointPath != "" {
		// Every commit writes beside the checkpoint, so a missing
		// directory would fail them all; refuse it before serving.
		dir := filepath.Dir(cfg.CheckpointPath)
		if fi, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("serve: checkpoint directory: %w", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("serve: checkpoint directory %s is not a directory", dir)
		}
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
		done:    make(chan struct{}),
		reqPool: make(chan *wireReq, 2*cfg.SubQueue+8),
		ckptFS:  osFS{},
	}
	e.shards, e.merger, e.owner, e.router, err = buildShards(coreCfg, cfg.Seed, cfg.Shards)
	if err != nil {
		return nil, err
	}
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
// longer reference it: after its reply was received, or when it never
// entered the slot machine (refused, shed, or a pure report, which the
// machine handles before report returns). A body buffer grown past the
// shape's maxBody is dropped, so a burst of large bodies cannot pin
// maxWireBody per pooled request.
func (e *Engine) putReq(q *wireReq) {
	q.reset()
	if cap(q.body) > e.shape.maxBody {
		q.body = nil
	}
	select {
	case e.reqPool <- q:
	default:
	}
}

// Start registers the serving run with cfg.Registry and, when SlotEvery
// > 0, starts the slot clock. Requests need no goroutine of the engine's:
// each runs the slot machine on its own. The engine serves until Stop or
// Abort.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.Registry != nil {
		e.rs = e.cfg.Registry.NewRun("lfscd", e.cfg.Horizon)
		// A restored engine re-registers with its history visible.
		if cum := e.CumReward(); cum != 0 {
			e.rs.RecordSlot(cum)
		}
	}
	if e.cfg.SlotEvery > 0 {
		e.clockExit.Add(1)
		go e.clock(time.NewTicker(e.cfg.SlotEvery))
	}
}

// Stop closes the engine gracefully: it finishes the slot in flight,
// writes a final checkpoint (when configured) and fails queued
// submissions. It returns the final checkpoint's error, if that commit
// failed, once the slot clock has exited. Stop and Abort are idempotent
// between them.
func (e *Engine) Stop() error {
	err := e.halt(true)
	e.clockExit.Wait()
	return err
}

// Abort is the unclean shutdown used by kill-and-resume tests: the
// engine stops without writing a final checkpoint, as if the process had
// been killed. Only checkpoints already on disk survive.
func (e *Engine) Abort() {
	e.halt(false)
	e.clockExit.Wait()
}

// halt stops the engine, once, for Stop and Abort alike: it finishes the
// open slot and any batch already bound to close with whatever reports
// arrived, writes the final checkpoint when asked, then fails every
// submission still in the batch or the queue with errStopped, so no
// caller waits forever. Every later event finds the engine stopped.
func (e *Engine) halt(checkpoint bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return e.stopErr
	}
	e.stopped = true
	close(e.done)
	if e.timer != nil {
		e.timer.Stop()
	}
	e.advance()
	if checkpoint && e.cfg.CheckpointPath != "" {
		// The periodic checkpoint remains if this fails; Stop reports it.
		e.stopErr = e.checkpointNow()
	}
	e.failBatch(errStopped)
	for _, q := range e.queue {
		e.pending.Add(-int64(len(q.cells)))
		q.resp <- stepReply{err: errStopped}
	}
	e.waiting.Add(-int64(len(e.queue)))
	e.queue = nil
	e.rs.Finish()
	return e.stopErr
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

		Checkpoints:        e.ckptOK.Load(),
		CheckpointFailures: e.ckptFailed.Load(),
		CheckpointSlot:     int(e.ckptSlot.Load()),
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

// enter runs a validated submission through the two backpressure gates
// and into the slot machine without waiting for its decision: the report
// part is absorbed into the open slot at once, and the tasks join the
// batch or the queue. On nil the engine owns q until it sends q's one
// reply on q.resp, the slot decision or errStopped. On shed or errStopped
// the caller still owns q and no reply comes.
func (e *Engine) enter(q *wireReq) error {
	n := int64(len(q.cells))
	// Gate 1: the pending-task budget. Reserve optimistically and roll
	// back on shed so concurrent submitters cannot stampede past the cap.
	if e.pending.Add(n) > int64(e.cfg.QueueCap) {
		e.pending.Add(-n)
		return e.shed(q, shedTaskQueue)
	}
	// Gate 2: the submissions not yet admitted to a batch. Never block
	// the handler behind a backlog — a full count means the batcher is
	// behind; shed.
	if e.waiting.Add(1) > int64(e.cfg.SubQueue) {
		e.waiting.Add(-1)
		e.pending.Add(-n)
		return e.shed(q, shedSubQueue)
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		e.waiting.Add(-1)
		e.pending.Add(-n)
		return errStopped
	}
	e.submittedTasks.Add(uint64(n))
	if len(q.reports) > 0 {
		q.repAccepted, q.repErr = e.absorb(q)
	}
	e.accountRouting(q)
	e.queue = append(e.queue, q)
	e.advance()
	e.mu.Unlock()
	return nil
}

// shed counts a shed submission and returns its error.
func (e *Engine) shed(q *wireReq, err *shedError) error {
	e.shedRequests.Add(1)
	e.shedTasks.Add(uint64(len(q.cells)))
	e.accountShed(q)
	return err
}

// submit enters a validated submission and waits for its reply. Every
// submitter — the HTTP handlers and the in-process API — goes through
// here; in lockstep the reply is already buffered when enter returns.
func (e *Engine) submit(q *wireReq) (stepReply, error) {
	if err := e.enter(q); err != nil {
		return stepReply{}, err
	}
	rep := <-q.resp
	return rep, rep.err
}

// report delivers a pure report to the open slot and runs the machine
// on, so a report that completes the slot returns after the slot's
// Observe, any checkpoint and the next decide. It returns the accepted
// count, or the rejection.
func (e *Engine) report(q *wireReq) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return 0, errStopped
	}
	acc, err := e.absorb(q)
	e.advance()
	return acc, err
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
		}
		e.putReq(q)
		return nil, err
	}
	out = sloOK
	resp := &SubmitResponse{Slot: rep.slot, Base: rep.base, Assigned: append([]int(nil), rep.assigned...)}
	e.putReq(q)
	return resp, nil
}

// Report delivers realised outcomes for the open slot, blocking until
// absorbed or rejected. Like /v1/report, a report that completes the
// open slot returns after that slot has finished: its Observe, any
// checkpoint and the next decide.
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
	acc, err := e.report(q)
	e.putReq(q)
	if err != nil {
		if !errors.Is(err, errStopped) {
			out = sloOK
		}
		return nil, err
	}
	out = sloOK
	return &ReportResponse{Accepted: acc}, nil
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
				if acc, rerr := e.report(q); rerr == nil {
					resp.Accepted = acc
				}
			}
		}
		e.putReq(q)
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

// clock is the slot-clock goroutine, started only when SlotEvery > 0.
func (e *Engine) clock(t *time.Ticker) {
	defer e.clockExit.Done()
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.tick()
		case <-e.done:
			return
		}
	}
}

// tick is a slot-clock event: a non-empty batch closes on it (advance
// decides nothing on an empty one — no arrivals, no slot). A tick that
// lands while a slot is open waits for the slot to finish.
func (e *Engine) tick() {
	e.mu.Lock()
	if !e.stopped {
		e.tickDue = true
		e.advance()
	}
	e.mu.Unlock()
}

// expire is the report-wait timer's callback. A slot still open past its
// deadline is counted late and finished with whatever reports arrived. A
// fire armed for an earlier slot finds the open slot's deadline still
// ahead, and advance re-arms the timer for it.
func (e *Engine) expire() {
	e.mu.Lock()
	e.timerArmed = false
	if e.openActive && !time.Now().Before(e.openDeadline) {
		e.lateSlots.Add(1)
		e.openTimedOut = true
		e.openRemaining = 0
	}
	e.advance()
	e.mu.Unlock()
}

// armTimer readies the report-wait timer for the open slot unless a fire
// is already pending. A pending fire armed for an earlier slot's deadline
// is left alone (expire treats it as early and re-arms), which keeps the
// steady fast-slot path free of timer traffic. Call under mu.
func (e *Engine) armTimer() {
	if e.timerArmed {
		return
	}
	e.timerArmed = true
	d := time.Until(e.openDeadline)
	if e.timer == nil {
		e.timer = time.AfterFunc(d, e.expire)
		return
	}
	e.timer.Reset(d)
}

// absorb delivers q's reports to the open slot; reports that arrive
// between slots are late. It returns the accepted count or the
// rejection. Call under mu.
func (e *Engine) absorb(q *wireReq) (int, error) {
	if !e.openActive {
		// The slot the reports are for has already closed.
		e.lateReports.Add(1)
		return 0, &lateReportError{slot: q.slot, open: int(e.slotAtomic.Load())}
	}
	acc, err := e.absorbReports(e.openSlot, e.openN, e.openAssigned, q.slot, q.reports)
	e.openRemaining -= acc
	return acc, err
}

// advance drives the machine until it waits on an event: admit queued
// submissions while the batch is open, finish the open slot once every
// expected report is in (or the engine is stopping), and between slots
// decide a batch that is bound to close (explicit close, MaxBatch, KMax),
// that the queue's head would overflow, or that a clock tick closes. An
// open slot still waiting for reports arms the report-wait timer. Call
// under mu.
func (e *Engine) advance() {
	for {
		if !e.stopped {
			e.admitQueued()
		}
		if e.openActive {
			if e.openRemaining > 0 && !e.stopped {
				e.armTimer()
				return
			}
			e.finishSlot()
			continue
		}
		due := e.tickDue
		e.tickDue = false
		if e.batch.n > 0 && (due || len(e.queue) > 0 || e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax)) {
			e.decideSlot()
			continue
		}
		return
	}
}

// admitQueued admits queued submissions in arrival order until the batch
// is bound to close or the head would push a coverage row past KMax; the
// rest stay queued for the batch after. Call under mu.
func (e *Engine) admitQueued() {
	i := 0
	for ; i < len(e.queue); i++ {
		q := e.queue[i]
		if e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) || e.batch.wouldOverflow(q, e.cfg.KMax) {
			break
		}
		e.admit(q)
	}
	if i == 0 {
		return
	}
	e.waiting.Add(-int64(i))
	n := copy(e.queue, e.queue[i:])
	clear(e.queue[n:])
	e.queue = e.queue[:n]
}

// admit adds a submission to the accumulating batch and stages its tasks
// into the current arena at once — admission order is slot order — so
// the close has nothing left to partition. Call under mu.
func (e *Engine) admit(q *wireReq) {
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
// which stays held throughout — Observe is a transition like any other
// — on whichever goroutine delivered the event that completed the slot.
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
		// A failure leaves the previous checkpoint in place; it is
		// counted (Stats, /metrics) and the next period tries again.
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
