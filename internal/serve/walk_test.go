package serve

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"lfsc/internal/obs"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
)

// TestSlotMachineWalk checks the slot machine instead of only racing it.
// From one goroutine it drives an engine through seeded interleavings of
// 2–3 virtual lockstep clients' events: a step (the reports a client owes
// for the slot it was last told, plus new tasks), a pure report, a
// slot-clock tick and, in half the walks, a report-wait expiry (the open
// slot's deadline forced into the past, then the timer's callback). The
// engine is small enough (4 SCNs, capacity 2, KMax 3, MaxBatch 6, a
// pending-task cap of 8) that explicit closes, MaxBatch, KMax overflow,
// ticks and shedding all decide where batches end. After every event:
//
//   - slots are decided and finish in order, one at a time, and each
//     slot's submissions are answered together, in arrival order;
//   - a report part is absorbed on arrival, and only into the slot its
//     client was told;
//   - each submitter gets exactly one reply, shed ones none;
//   - submitted tasks = decided tasks + tasks in the batch or queued, and
//     pending counts the latter (waiting, the submissions queued);
//   - every slot's assignment respects (1a) and (1b) and gives tasks only
//     to SCNs that saw them;
//   - the open slot waits for exactly the reports its clients still owe,
//     so no slot needs an expiry to finish, and nothing waits between
//     slots while work is due.
//
// Some walks end by delivering every owed report and ticking until the
// machine is idle; the rest stop the engine mid-flight, where every
// waiting submitter must get its decision or errStopped.
func TestSlotMachineWalk(t *testing.T) {
	const walks, events = 200, 120
	// The seed's low bits pick the walk's shape independently: expiry
	// events, 1 or 2 shards, 2 or 3 clients, and drain or stop at the end.
	for seed := uint64(1); seed <= walks; seed++ {
		w := newSlotWalk(t, seed)
		for ev := 0; ev < events; ev++ {
			w.event(ev)
		}
		if seed/8%2 == 1 {
			w.drain(events)
		}
		w.stop()
	}
}

// FuzzSlotWalk drives the slot machine from fuzzed bytes instead of
// TestSlotMachineWalk's seeded stream. The first byte seeds the engine
// and the walk's task contexts and outcomes, and its low bits pick the
// walk's shape as a seed's do: expiry events, 1 or 2 shards, 2 or 3
// clients, and drain or stop at the end. Each later byte makes one of the
// walk's choices: the event and its client, a step's task count and close
// flag, and the make-up of an invalid report. Fuzzed walks add two
// invalid events (see bad): a report for a slot that is not open and that
// the client was not told, and a report naming a task the open slot did
// not assign, does not have, or has had reported. Each must be refused
// with no change to the machine, and every walk invariant must hold after
// every event. The corpus holds the first 32 seeds, two per shape, each
// followed by 240 bytes of its stream.
func FuzzSlotWalk(f *testing.F) {
	const maxEvents = 400
	for seed := uint64(1); seed <= 32; seed++ {
		r := rng.New(seed)
		data := []byte{byte(seed)}
		for range 240 {
			data = append(data, byte(r.Intn(256)))
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		seed := uint64(data[0])
		w := newSlotWalk(t, seed)
		picks := fuzzPicks(data[1:])
		w.pick, w.invalid = &picks, true
		ev := 0
		for ; len(picks) > 0 && ev < maxEvents; ev++ {
			w.event(ev)
		}
		if seed/8%2 == 1 {
			w.drain(ev)
		}
		w.stop()
	})
}

// picker makes a walk's choices: the event and its client, a step's task
// count and close flag, and the make-up of an invalid report.
type picker interface{ Intn(n int) int }

// fuzzPicks is a fuzzed walk's picker: each choice takes the next input
// byte modulo its range, and 0 once the input is spent.
type fuzzPicks []byte

func (p *fuzzPicks) Intn(n int) int {
	if len(*p) == 0 {
		return 0
	}
	v := int((*p)[0]) % n
	*p = (*p)[1:]
	return v
}

// walkClient is one virtual lockstep client: at most one submission in
// flight, and the outcomes it owes for the slot it was last told.
type walkClient struct {
	q    *wireReq // the submission awaiting its reply, or nil
	told int      // the slot of the client's last decision
	owed []TaskReport
	// The report part of q: the outcome expected on arrival.
	expAcc     int
	expRefused bool
}

type slotWalk struct {
	t    *testing.T
	seed uint64
	eng  *Engine
	// r draws the walk's task contexts and outcomes; pick makes its
	// choices, from r itself in a seeded walk. invalid adds the invalid
	// report events.
	r       *rng.Stream
	pick    picker
	invalid bool
	expiry  bool
	clients []walkClient
	// arrivals holds the entered submissions awaiting replies in arrival
	// order; retired, every request that must see no further reply.
	arrivals []*wireReq
	retired  []*wireReq
	owner    map[*wireReq]int
	specs    map[*wireReq][]TaskSpec
	// finished lists slots in the order they finished (the snapshot sink).
	finished []int
	// The last decided slot, the event that answered it, and the base its
	// next submission must take.
	lastSlot, lastEvent, nextBase int
}

func newSlotWalk(t *testing.T, seed uint64) *slotWalk {
	w := &slotWalk{
		t:        t,
		seed:     seed,
		r:        rng.New(seed),
		expiry:   seed%2 == 1,
		clients:  make([]walkClient, 2+seed/4%2),
		owner:    map[*wireReq]int{},
		specs:    map[*wireReq][]TaskSpec{},
		lastSlot: -1,
	}
	eng, err := NewEngine(Config{
		SCNs: 4, Capacity: 2, Alpha: 1, Beta: 5, H: 2, KMax: 3, Horizon: 1 << 20, Seed: seed,
		Shards:   1 + int(seed/2%2),
		MaxBatch: 6, QueueCap: 8,
		// Only the walk's own expiry events may finish a slot early.
		ReportWait:    time.Hour,
		SnapshotEvery: 1, SnapshotSink: w,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	w.eng = eng
	w.pick = w.r
	return w
}

// OnSnapshot records each finished slot (SnapshotEvery = 1).
func (w *slotWalk) OnSnapshot(s *obs.PolicySnapshot) { w.finished = append(w.finished, s.Slot) }

func (w *slotWalk) fail(ev int, format string, args ...any) {
	w.t.Helper()
	w.t.Fatalf("seed %d event %d: "+format, append([]any{w.seed, ev}, args...)...)
}

const (
	evStep = iota
	evReport
	evTick
	evExpire
	// The invalid events of fuzzed walks.
	evBadSlot
	evBadTask
)

// event picks one enabled event at random, runs it, collects the replies
// it released and checks the machine.
func (w *slotWalk) event(ev int) {
	type choice struct{ kind, c int }
	var opts []choice
	for c := range w.clients {
		if w.clients[c].q != nil {
			continue
		}
		opts = append(opts, choice{evStep, c}, choice{evStep, c}, choice{evStep, c})
		if len(w.clients[c].owed) > 0 {
			opts = append(opts, choice{evReport, c})
		}
	}
	opts = append(opts, choice{evTick, -1})
	if w.expiry {
		opts = append(opts, choice{evExpire, -1})
	}
	for c := range w.clients {
		if w.invalid && w.clients[c].q == nil {
			opts = append(opts, choice{evBadSlot, c}, choice{evBadTask, c})
		}
	}
	switch ch := opts[w.pick.Intn(len(opts))]; ch.kind {
	case evStep:
		q, acc, late := w.request(ch.c)
		w.step(ev, ch.c, q, acc, late)
	case evReport:
		w.report(ev, ch.c)
	case evTick:
		w.eng.tick()
	case evExpire:
		w.expire(ev)
	case evBadSlot, evBadTask:
		w.bad(ev, ch.c, ch.kind)
	}
	w.collect(ev)
	w.check(ev)
}

// tasks draws 1–3 tasks, each seen by one or two distinct SCNs.
func (w *slotWalk) tasks() []TaskSpec {
	specs := make([]TaskSpec, 1+w.pick.Intn(3))
	for i := range specs {
		ctx := make([]float64, w.eng.shape.dims)
		for d := range ctx {
			ctx[d] = w.r.Float64()
		}
		m := w.r.Intn(w.eng.cfg.SCNs)
		scns := []int{m}
		if w.r.Intn(2) == 0 {
			scns = append(scns, (m+1+w.r.Intn(w.eng.cfg.SCNs-1))%w.eng.cfg.SCNs)
		}
		specs[i] = TaskSpec{Ctx: ctx, SCNs: scns}
	}
	return specs
}

// expectReports is what delivering n reports for slot told must do now:
// all are absorbed if told is the open slot, otherwise they are late.
func (w *slotWalk) expectReports(told, n int) (acc int, late bool) {
	if n == 0 {
		return 0, false
	}
	w.eng.mu.Lock()
	defer w.eng.mu.Unlock()
	if w.eng.openActive && w.eng.openSlot == told {
		return n, false
	}
	return 0, true
}

// request builds a request carrying client c's owed reports, which are
// delivered from here on, and the outcome they must meet on arrival.
func (w *slotWalk) request(c int) (q *wireReq, acc int, late bool) {
	cl := &w.clients[c]
	q = newWireReq(&w.eng.shape)
	q.slot, q.hasSlot = cl.told, true
	q.reports = append(q.reports[:0], cl.owed...)
	q.hasReps = len(cl.owed) > 0
	acc, late = w.expectReports(cl.told, len(cl.owed))
	cl.owed = cl.owed[:0]
	return q, acc, late
}

// step sends client c's step: q carries its report part, which must be
// accepted acc reports or refused on arrival, and new tasks.
func (w *slotWalk) step(ev, c int, q *wireReq, acc int, refused bool) {
	q.close = w.pick.Intn(5) < 3
	specs := w.tasks()
	if err := q.acceptSpecs(specs); err != nil {
		w.fail(ev, "client %d: %v", c, err)
	}
	err := w.eng.enter(q)
	switch {
	case err == nil:
		// The report part is absorbed on arrival, whether the tasks joined
		// the batch or the queue.
		if q.repAccepted != acc || (q.repErr != nil) != refused {
			w.fail(ev, "client %d step: report part accepted %d (err %v) on arrival, want %d (refused %v)",
				c, q.repAccepted, q.repErr, acc, refused)
		}
		cl := &w.clients[c]
		cl.q, cl.expAcc, cl.expRefused = q, acc, refused
		w.arrivals = append(w.arrivals, q)
		w.owner[q] = c
		w.specs[q] = specs
	case IsShed(err):
		// As the handlers do: a shed step still delivers its report part.
		w.retired = append(w.retired, q)
		if len(q.reports) > 0 {
			got, rerr := w.eng.report(q)
			if got != acc || (rerr != nil) != refused {
				w.fail(ev, "client %d shed step: report part accepted %d (err %v), want %d (refused %v)", c, got, rerr, acc, refused)
			}
		}
	default:
		w.fail(ev, "client %d step: %v", c, err)
	}
}

func (w *slotWalk) report(ev, c int) {
	q, acc, late := w.request(c)
	got, err := w.eng.report(q)
	if got != acc || (err != nil) != late || (late && !IsLateReport(err)) {
		w.fail(ev, "client %d report: accepted %d (err %v), want %d (late %v)", c, got, err, acc, late)
	}
	w.retired = append(w.retired, q)
}

// bad sends client c an invalid report. For evBadSlot it is for a slot
// that is not open and that c was not told: one after the open or next
// slot, or one before c's. For evBadTask it is for the open slot (between
// slots, for c's, which is late) and names, among any reports c owes for
// that slot, a task the slot did not assign, does not have, or has had
// reported already. The engine must refuse the whole report, late or
// invalid, and change nothing: a pure report leaves the machine exactly
// as it was, a step's report part leaves the open slot's reports as they
// were, and c still owes what it owed. A client that owes nothing may
// send it as a step's report part; one that owes reports sends it as a
// pure report, since a lockstep client whose step lost its owed reports
// would wait on a slot that waits on it.
func (w *slotWalk) bad(ev, c, kind int) {
	e := w.eng
	cl := &w.clients[c]
	before := w.state()
	asStep := len(cl.owed) == 0 && w.pick.Intn(2) == 0
	slot, late := cl.told, true
	var reps []TaskReport
	if kind == evBadSlot {
		slot = len(w.finished) + 1 + w.pick.Intn(3)
		if cl.told > 0 && w.pick.Intn(2) == 0 {
			slot = w.pick.Intn(cl.told)
		}
		reps = append(reps, cl.owed...)
		if len(reps) == 0 {
			reps = append(reps, TaskReport{Task: 0, U: 0.5, V: 1, Q: 1})
		}
	} else {
		open := before.reports
		if open.open {
			slot, late = open.slot, false
		}
		if slot == cl.told {
			reps = append(reps, cl.owed...)
		}
		task := open.n + w.pick.Intn(3)
		switch w.pick.Intn(4) {
		case 0:
			task = -1 - w.pick.Intn(2)
		case 1:
			// A task the open slot did not assign, when it has one.
			e.mu.Lock()
			if i := slices.IndexFunc(e.openAssigned, func(m int) bool { return m < 0 }); open.open && i >= 0 {
				task = i
			}
			e.mu.Unlock()
		case 2:
			// A task already reported, when there is one.
			if i := strings.IndexByte(open.got, '1'); open.open && i >= 0 {
				task = i
			}
		}
		reps = slices.Insert(reps, w.pick.Intn(len(reps)+1), TaskReport{Task: task, U: 0.5, V: 1, Q: 1})
	}
	q := newWireReq(&e.shape)
	q.slot, q.hasSlot = slot, true
	q.reports = append(q.reports[:0], reps...)
	q.hasReps = true
	lates := e.lateReports.Load()
	if !asStep {
		got, err := e.report(q)
		if got != 0 || err == nil || IsLateReport(err) != late {
			w.fail(ev, "client %d invalid report for slot %d: accepted %d (err %v), want it refused (late %v)",
				c, slot, got, err, late)
		}
		if after := w.state(); after != before {
			w.fail(ev, "client %d invalid report for slot %d changed the machine: %+v, was %+v", c, slot, after, before)
		}
		w.retired = append(w.retired, q)
	} else {
		w.step(ev, c, q, 0, true)
		if q.repErr != nil && IsLateReport(q.repErr) != late {
			w.fail(ev, "client %d invalid report part for slot %d refused with %v, want late %v", c, slot, q.repErr, late)
		}
		if after := w.state(); before.reports.open && after.reports != before.reports {
			w.fail(ev, "client %d invalid report part for slot %d changed the open slot's reports: %+v, was %+v",
				c, slot, after.reports, before.reports)
		}
	}
	if n := e.lateReports.Load() - lates; late != (n == 1) || n > 1 {
		w.fail(ev, "client %d invalid report for slot %d counted %d late reports (late %v)", c, slot, n, late)
	}
}

// reportState is the open slot's report bookkeeping.
type reportState struct {
	open               bool
	slot, n, remaining int
	reported           uint64
	got                string // the reported marks, '0' or '1' per task
}

// machineState is what a refused report must leave as it was.
type machineState struct {
	reports                   reportState
	batched, queued, finished int
	pending, waiting          int64
	submitted, decided        uint64
	tickDue                   bool
}

// state reads the machine under mu.
func (w *slotWalk) state() machineState {
	e := w.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	got := make([]byte, len(e.repGot))
	for i, g := range e.repGot {
		got[i] = '0'
		if g {
			got[i] = '1'
		}
	}
	return machineState{
		reports: reportState{
			open: e.openActive, slot: e.openSlot, n: e.openN, remaining: e.openRemaining,
			reported: e.reportedTasks.Load(), got: string(got),
		},
		batched: e.batch.n, queued: len(e.queue), finished: len(w.finished),
		pending: e.pending.Load(), waiting: e.waiting.Load(),
		submitted: e.submittedTasks.Load(), decided: e.decidedTasks.Load(),
		tickDue: e.tickDue,
	}
}

func (w *slotWalk) expire(ev int) {
	e := w.eng
	e.mu.Lock()
	open := e.openActive
	e.openDeadline = time.Now().Add(-time.Millisecond)
	e.mu.Unlock()
	late := e.lateSlots.Load()
	e.expire()
	if open && e.lateSlots.Load() != late+1 {
		w.fail(ev, "expiry did not finish the open slot late")
	}
}

// collect takes the replies an event released. They must be a prefix of
// the arrivals: each slot answers its submissions together, in arrival
// order, with consecutive bases, and slots are decided in order.
func (w *slotWalk) collect(ev int) {
	n := 0
	reps := make([]stepReply, 0, len(w.arrivals))
	for i, q := range w.arrivals {
		select {
		case rep := <-q.resp:
			if i != n {
				w.fail(ev, "arrival %d answered before arrival %d", i, n)
			}
			reps = append(reps, rep)
			n++
		default:
		}
	}
	var slotSpecs []TaskSpec
	var slotAssigned []int
	for i, rep := range reps {
		q := w.arrivals[i]
		cl := &w.clients[w.owner[q]]
		switch {
		case rep.err != nil:
			w.fail(ev, "reply error %v", rep.err)
		case rep.slot == w.lastSlot && (ev != w.lastEvent || rep.base != w.nextBase):
			w.fail(ev, "slot %d answered at base %d in event %d, want base %d in event %d",
				rep.slot, rep.base, ev, w.nextBase, w.lastEvent)
		case rep.slot != w.lastSlot && (rep.slot != w.lastSlot+1 || rep.base != 0):
			w.fail(ev, "slot %d base %d decided after slot %d", rep.slot, rep.base, w.lastSlot)
		case len(rep.assigned) != len(q.cells):
			w.fail(ev, "%d decisions for %d tasks", len(rep.assigned), len(q.cells))
		case rep.accepted != cl.expAcc || (rep.repErr != nil) != cl.expRefused:
			w.fail(ev, "reply carries report part accepted %d (err %v), want %d (refused %v)",
				rep.accepted, rep.repErr, cl.expAcc, cl.expRefused)
		}
		if rep.slot != w.lastSlot {
			w.validate(ev, slotSpecs, slotAssigned)
			slotSpecs, slotAssigned = slotSpecs[:0], slotAssigned[:0]
			w.lastSlot, w.lastEvent = rep.slot, ev
		}
		w.nextBase = rep.base + len(q.cells)
		slotSpecs = append(slotSpecs, w.specs[q]...)
		slotAssigned = append(slotAssigned, rep.assigned...)
		cl.owed = outcomes(w.r, cl.owed, rep.base, rep.assigned)
		cl.told, cl.q = rep.slot, nil
		w.retired = append(w.retired, q)
	}
	w.validate(ev, slotSpecs, slotAssigned)
	w.arrivals = append(w.arrivals[:0], w.arrivals[n:]...)
	for _, q := range w.retired {
		select {
		case rep := <-q.resp:
			w.fail(ev, "second reply %+v", rep)
		default:
		}
	}
}

// validate checks one slot's whole assignment: (1a) at most Capacity
// tasks per SCN, (1b) one SCN per task, and only SCNs that saw the task.
func (w *slotWalk) validate(ev int, specs []TaskSpec, assigned []int) {
	if len(specs) == 0 {
		return
	}
	view := policy.SlotView{SCNs: make([]policy.SCNView, w.eng.cfg.SCNs), NumTasks: len(specs)}
	for i, s := range specs {
		for _, m := range s.SCNs {
			view.SCNs[m].Cover = append(view.SCNs[m].Cover, i)
		}
	}
	if err := policy.ValidateAssignment(&view, assigned, w.eng.cfg.Capacity); err != nil {
		w.fail(ev, "slot %d: %v", w.lastSlot, err)
	}
}

// check reads the machine under mu after an event.
func (w *slotWalk) check(ev int) {
	e := w.eng
	e.mu.Lock()
	defer e.mu.Unlock()
	queued := 0
	for _, q := range e.queue {
		queued += len(q.cells)
	}
	held := e.batch.n + queued
	if sub, dec := e.submittedTasks.Load(), e.decidedTasks.Load(); sub != dec+uint64(held) {
		w.fail(ev, "submitted %d tasks, decided %d, %d batched and %d queued", sub, dec, e.batch.n, queued)
	}
	if p := e.pending.Load(); p != int64(held) {
		w.fail(ev, "pending %d, want %d", p, held)
	}
	if wt := e.waiting.Load(); wt != int64(len(e.queue)) {
		w.fail(ev, "waiting %d, want the %d queued", wt, len(e.queue))
	}
	for i, s := range w.finished {
		if s != i {
			w.fail(ev, "slots finished in order %v", w.finished)
		}
	}
	if s := int(e.slotAtomic.Load()); s != len(w.finished) {
		w.fail(ev, "Slot() = %d after %d slots finished", s, len(w.finished))
	}
	if e.openActive {
		owed := 0
		for c := range w.clients {
			if w.clients[c].told == e.openSlot {
				owed += len(w.clients[c].owed)
			}
		}
		if e.openSlot != len(w.finished) || e.openRemaining <= 0 || e.openRemaining != owed {
			w.fail(ev, "open slot %d waits for %d reports, clients owe %d (%d slots finished)",
				e.openSlot, e.openRemaining, owed, len(w.finished))
		}
	} else if e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) || len(e.queue) > 0 || e.tickDue {
		w.fail(ev, "idle between slots with work due: batch %d tasks, %d queued, tick due %v",
			e.batch.n, len(e.queue), e.tickDue)
	}
	if len(e.queue) > 0 && !e.batch.shouldClose(e.cfg.MaxBatch, e.cfg.KMax) &&
		!e.batch.wouldOverflow(e.queue[0], e.cfg.KMax) {
		w.fail(ev, "%d submissions queued behind a batch they fit", len(e.queue))
	}
	if !w.expiry && e.lateSlots.Load() != 0 {
		w.fail(ev, "%d late slots in a walk with no expiry", e.lateSlots.Load())
	}
}

// drain delivers every owed report and ticks until no client waits and no
// slot is open: with prompt reports the machine finishes everything.
func (w *slotWalk) drain(ev int) {
	for round := 0; ; round++ {
		for c := range w.clients {
			if cl := &w.clients[c]; cl.q == nil && len(cl.owed) > 0 {
				w.report(ev, c)
				w.collect(ev)
				w.check(ev)
				ev++
			}
		}
		w.eng.tick()
		w.collect(ev)
		w.check(ev)
		ev++
		w.eng.mu.Lock()
		busy := w.eng.openActive
		w.eng.mu.Unlock()
		for c := range w.clients {
			busy = busy || w.clients[c].q != nil || len(w.clients[c].owed) > 0
		}
		if !busy {
			return
		}
		if round == 50 {
			w.fail(ev, "not idle after %d drain rounds", round)
		}
	}
}

// stop stops the engine: each submission still waiting gets exactly one
// reply, its decision or errStopped, and every task is decided or failed.
func (w *slotWalk) stop() {
	e := w.eng
	if err := e.Stop(); err != nil {
		w.t.Fatal(err)
	}
	failed := 0
	for _, q := range w.arrivals {
		select {
		case rep := <-q.resp:
			if errors.Is(rep.err, errStopped) {
				failed += len(q.cells)
			} else if rep.err != nil {
				w.fail(-1, "reply at stop: %v", rep.err)
			}
		default:
			w.fail(-1, "a submission got no reply at stop")
		}
	}
	for _, q := range append(w.retired, w.arrivals...) {
		select {
		case rep := <-q.resp:
			w.fail(-1, "second reply %+v", rep)
		default:
		}
	}
	if sub, dec := e.submittedTasks.Load(), e.decidedTasks.Load(); sub != dec+uint64(failed) {
		w.fail(-1, "submitted %d tasks, decided %d, failed %d", sub, dec, failed)
	}
	if p, wt := e.pending.Load(), e.waiting.Load(); p != 0 || wt != 0 {
		w.fail(-1, "pending %d, waiting %d after stop", p, wt)
	}
}
