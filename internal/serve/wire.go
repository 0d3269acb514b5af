// Package serve turns the LFSC learner into an online decision service:
// the paper's MBS as a daemon. Clients submit task arrivals (context
// vector + visible SCNs) over HTTP; a slot-clocked batcher aggregates
// them into a slot (closing on a tick, at KMax, or on an explicit
// close), runs Decide on the arena runtime, returns per-task SCN
// assignments, and feeds completion reports back through Observe — the
// same strict Decide→Observe slot protocol the simulator follows, under
// live traffic with bounded queues and explicit load shedding.
//
// The hot endpoints (/v1/submit, /v1/report, and the batched /v1/step)
// speak two encodings, chosen per request by its Content-Type: JSON, the
// documented interop format, and a compact little-endian binary frame
// (frameContentType) that carries floats as raw IEEE-754 bits, which the
// in-tree Client always uses. Neither touches encoding/json: requests run
// through hand-rolled single-pass decoders that parse the body in place,
// checking each task against the engine's shape as it decodes and
// keeping only its packed form in pooled, engine-owned buffers, and
// replies are built with append-based encoders into pooled scratch —
// steady-state request handling is allocation-free in both encodings
// (pinned by TestServeWireZeroAlloc). Both formats are specified in
// DESIGN.md §10.
//
// Lifecycle rides on internal/core checkpoints: the engine periodically
// writes an atomic checkpoint (write-temp-then-rename) carrying the slot
// counter, the cumulative reward, and the full learner state (weights,
// multipliers, per-SCN RNG streams), checkpoints again on graceful stop,
// and restores on boot — a killed-and-resumed daemon replays the rest of
// a trace bit-identically to one that never stopped (see serve tests).
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unsafe"

	"lfsc/internal/hypercube"
	"lfsc/internal/obs"
)

// TaskSpec is one task arrival as the daemon sees it: the normalised
// context vector φ ∈ [0,1]^dims and the SCNs whose coverage area the
// originating device is in. The daemon never sees the raw payload,
// matching the paper's information model.
type TaskSpec struct {
	Ctx  []float64 `json:"ctx"`
	SCNs []int     `json:"scns"`
}

// SubmitRequest submits a batch of task arrivals. Close asks the batcher
// to close the slot as soon as these tasks are in it (lockstep replay
// submits one full slot per request with Close set); without it the slot
// closes on the next tick or when a coverage list reaches KMax.
type SubmitRequest struct {
	Tasks []TaskSpec `json:"tasks"`
	Close bool       `json:"close,omitempty"`
}

// SubmitResponse returns the decision for each submitted task, parallel
// to SubmitRequest.Tasks: the assigned SCN index, or -1 when the learner
// left the task unassigned. Base is the slot-global index of the first
// task (a submission's tasks are contiguous in the slot), which reports
// must use to address tasks.
type SubmitResponse struct {
	Slot     int   `json:"slot"`
	Base     int   `json:"base"`
	Assigned []int `json:"assigned"`
}

// TaskReport is the realised outcome of one executed task: the reward u,
// the completion indicator v ∈ {0,1}, and the resource consumption q —
// exactly the bandit feedback of the paper's model.
type TaskReport struct {
	Task int     `json:"task"` // slot-global index (SubmitResponse.Base + offset)
	U    float64 `json:"u"`
	V    float64 `json:"v"`
	Q    float64 `json:"q"`
}

// ReportRequest delivers outcomes for tasks assigned in the given slot.
// Only the currently open slot accepts reports; a request is absorbed
// atomically (all reports validated, then all committed) or rejected.
type ReportRequest struct {
	Slot    int          `json:"slot"`
	Reports []TaskReport `json:"reports"`
}

// ReportResponse acknowledges an absorbed report request.
type ReportResponse struct {
	Accepted int `json:"accepted"`
}

// StepRequest is the batched round-trip of the serving data plane: one
// request carries the realised outcomes of the previously decided slot
// AND the next slot's task arrivals, so a lockstep client pays one HTTP
// round-trip per slot instead of two. Reports (addressed by Slot) are
// absorbed first, then the tasks enter the batcher — exactly the order
// the two-request protocol produces, which is what keeps the batched
// path bit-identical to the unbatched one.
type StepRequest struct {
	Slot    int          `json:"slot,omitempty"`
	Reports []TaskReport `json:"reports,omitempty"`
	Tasks   []TaskSpec   `json:"tasks"`
	Close   bool         `json:"close,omitempty"`
}

// StepResponse is the combined acknowledgement: the report part's
// absorption count (and its rejection, if any, carried in ReportError —
// the submission part proceeds regardless), then the decision for the
// submitted tasks, exactly as SubmitResponse returns it.
type StepResponse struct {
	Accepted    int    `json:"accepted"`
	ReportError string `json:"report_error,omitempty"`
	Slot        int    `json:"slot"`
	Base        int    `json:"base"`
	Assigned    []int  `json:"assigned"`
}

// Stats is the daemon's live counter snapshot (GET /v1/stats, and the
// "lfsc_serve" expvar). Latency stats reuse the obs log₂-bucket
// histogram fidelity.
type Stats struct {
	// Slot is the next slot index to be decided (= completed slots,
	// including any carried in from a restored checkpoint).
	Slot int `json:"slot"`
	// CumReward is the cumulative compound reward over all served slots,
	// including checkpoint-restored history.
	CumReward float64 `json:"cum_reward"`

	SubmittedTasks uint64 `json:"submitted_tasks"`
	DecidedTasks   uint64 `json:"decided_tasks"`
	AssignedTasks  uint64 `json:"assigned_tasks"`
	ReportedTasks  uint64 `json:"reported_tasks"`
	SlotsServed    uint64 `json:"slots_served"`

	// ShedRequests / ShedTasks count submissions refused with 429 because
	// a bounded queue was full, and the tasks they carried.
	ShedRequests uint64 `json:"shed_requests"`
	ShedTasks    uint64 `json:"shed_tasks"`
	// LateSlots counts slots whose report wait timed out with outcomes
	// still missing; LateReports counts report requests that arrived
	// after their slot had already closed.
	LateSlots   uint64 `json:"late_slots"`
	LateReports uint64 `json:"late_reports"`

	SubmitLatency obs.PhaseStat `json:"submit_latency"`
	ReportLatency obs.PhaseStat `json:"report_latency"`
	StepLatency   obs.PhaseStat `json:"step_latency"`
	// ShedLatency times the requests that were refused with 429, so
	// overload latency is visible, not just overload counts.
	ShedLatency obs.PhaseStat `json:"shed_latency"`

	// SLO is the rolling-window latency/shed-rate summary (present only
	// when the engine was configured with an obs.SLO tracker).
	SLO *obs.SLOReport `json:"slo,omitempty"`
	// Shards is the per-shard breakdown of a sharded engine (empty when
	// unsharded): routing and shed attribution by home shard, plus each
	// shard's last-slot leg durations of the two-phase barrier.
	Shards []ShardStat `json:"shards,omitempty"`
	// Scenario describes the active scenario timeline at the current
	// slot (present only when the engine was configured with one).
	Scenario *ScenarioStat `json:"scenario,omitempty"`
}

// ScenarioStat is the live view of an attached scenario timeline: its
// identity, the availability state at the next slot to be decided, and
// the cumulative event totals up to that slot. All values are pure
// lookups into the immutable timeline at the engine's atomic slot
// counter — no engine state is touched.
type ScenarioStat struct {
	// Digest identifies the timeline (config + shape + seed); Restore
	// refuses a checkpoint carrying a different digest.
	Digest string `json:"digest"`
	// Slots is the timeline period (slot indices wrap around it).
	Slots int `json:"slots"`
	// UpSCNs is the number of available SCNs at the current slot.
	UpSCNs int `json:"up_scns"`
	// Sleeps/Fails/Rejoins are cumulative event totals through the
	// current slot: scheduled sleep-window entries, churn/blockage
	// failures, and churn/blockage recoveries.
	Sleeps  uint64 `json:"sleeps"`
	Fails   uint64 `json:"fails"`
	Rejoins uint64 `json:"rejoins"`
}

// ShardStat is one learner shard's live counters.
type ShardStat struct {
	Shard int `json:"shard"`
	// SCNs is the number of SCNs the consistent-hash ring assigned here.
	SCNs        int    `json:"scns"`
	RoutedSubs  uint64 `json:"routed_subs"`
	RoutedTasks uint64 `json:"routed_tasks"`
	// ShedTasks counts tasks shed by the backpressure gates whose home
	// shard (first task's first SCN) was this one.
	ShedTasks uint64 `json:"shed_tasks"`
	// LastDecideNS / LastObserveNS are the durations of this shard's
	// legs of the most recent slot's parallel Decide and Observe stages.
	LastDecideNS  uint64 `json:"last_decide_ns"`
	LastObserveNS uint64 `json:"last_observe_ns"`
	// LastStageNS is the ingest-staging time attributed to this shard
	// (home-shard key) over the most recently closed slot's batch window.
	// Populated only when slot tracing (SlotRing) is on — staging is on
	// the ingest path, so the engine only pays for the clock reads when
	// someone asked for the trace.
	LastStageNS uint64 `json:"last_stage_ns"`
}

// errorBody is the JSON error envelope of non-2xx responses. Shed step
// requests additionally carry the report part's absorption count.
type errorBody struct {
	Error    string `json:"error"`
	Accepted int    `json:"accepted,omitempty"`
}

// ---------------------------------------------------------------------------
// Pooled request object and the task acceptor
// ---------------------------------------------------------------------------

// maxWireBody bounds a request body; anything larger is rejected before
// it can balloon the pooled buffers.
const maxWireBody = 8 << 20

var (
	errBodyTooLarge    = errors.New("serve: request body exceeds 8 MiB")
	errEmptySubmission = errors.New("serve: empty submission")
)

// reqShape is an engine's immutable request shape. Every task is checked
// against it as it decodes, so concurrent handlers share it read-only.
type reqShape struct {
	dims, scns, kMax int
	// maxItems = SCNs×KMax bounds both lists of one valid request. The
	// acceptor enforces it for tasks (each needs an admitted SCN, and no
	// SCN admits more than KMax); reports, which name distinct tasks of
	// one slot, are refused past it before any buffer grows for them.
	maxItems int
	part     *hypercube.Partition
	// maxBody bounds the body buffer a pooled request keeps: the longest
	// compact JSON body of a request that fits the shape, every number at
	// its widest (the request's frame is shorter), and at least the
	// buffer's first 4 KiB. A larger body is still read, up to
	// maxWireBody, but its buffer is not recycled.
	maxBody int
	// The preallocated refusal of a report list longer than maxItems.
	tooManyReports error
}

// The widest JSON texts of one number: an int64 and a float64 in
// shortest round-trip form.
const (
	maxIntText   = len("-9223372036854775808")
	maxFloatText = len("-2.2250738585072014e-308")
)

func newReqShape(dims, scns, kMax int, part *hypercube.Partition) reqShape {
	n := scns * kMax
	report := len(`{"task":,"u":,"v":,"q":},`) + maxIntText + 3*maxFloatText
	task := len(`{"ctx":[],"scns":[]},`) + dims*(maxFloatText+1)
	scn := len(strconv.Itoa(scns-1)) + 1
	return reqShape{
		dims: dims, scns: scns, kMax: kMax, maxItems: n, part: part,
		maxBody:        max(4096, len(`{"slot":,"reports":[],"tasks":[],"close":true}`)+maxIntText+n*(report+task+scn)),
		tooManyReports: errInvalid(fmt.Sprintf("serve: more than SCNs×KMax=%d reports in one request", n)),
	}
}

// errInvalid is a request that decodes but does not fit the engine's
// shape. Its text is the 400 envelope verbatim, without the "decode"
// prefix a malformed body gets.
type errInvalid string

func (e errInvalid) Error() string { return string(e) }

func invalidf(format string, args ...any) error {
	return errInvalid(fmt.Sprintf(format, args...))
}

// wireReq is one request travelling the zero-allocation data plane: the
// pooled body buffer, the decoded and already validated fields, the
// handler↔engine reply channel, and the engine-filled reply storage. A
// wireReq is owned by exactly one goroutine at a time: the handler
// decodes, the engine reads the packed tasks and the reports and writes
// assignedBuf up to the moment it replies on resp, and the handler
// encodes the response and recycles the object. Recycling is safe
// immediately after the reply because staging copies everything the
// slot needs into engine-owned arenas.
type wireReq struct {
	// frame is set when the request arrived as a binary frame; its 200
	// reply is then a frame too.
	frame bool
	// shape is the owning engine's request shape, fixed at construction.
	shape *reqShape

	// Decoded request.
	close    bool
	slot     int
	hasSlot  bool
	reports  []TaskReport
	hasTasks bool
	hasReps  bool

	// The accepted tasks, packed by the acceptor as each one decodes: task
	// i's hypercube cell is cells[i] and its visible SCNs are
	// scns[ends[i-1]:ends[i]] (from 0 for the first task). counts[m] is the
	// number of tasks listing SCN m, and last[m] is one more than the index
	// of the last task listing it (the duplicate check). Contexts are
	// checked and indexed but not kept — LFSC reads only cells; ctx is the
	// decoding task's scratch.
	cells  []int
	scns   []int
	ends   []int32
	counts []int
	last   []int
	ctx    []float64

	body []byte

	// Handler↔engine protocol. resp has capacity 1 so the engine never
	// blocks replying to a handler that already gave up.
	resp chan stepReply

	// Engine-filled reply storage: the submission's slice of the slot
	// assignment, copied here so the reply survives the engine's scratch
	// reuse.
	assignedBuf []int

	// Report-part result for step deliveries, filled when the engine
	// absorbs (or rejects) the reports; replied together with the
	// decision.
	repAccepted int
	repErr      error

	// Response encode scratch.
	out []byte
}

func newWireReq(shape *reqShape) *wireReq {
	return &wireReq{shape: shape, resp: make(chan stepReply, 1)}
}

// reset clears the decoded state while keeping every buffer's capacity,
// so a pooled wireReq decodes the next request allocation-free.
func (q *wireReq) reset() {
	q.frame = false
	q.close = false
	q.slot = 0
	q.hasSlot = false
	q.reports = q.reports[:0]
	q.hasTasks = false
	q.hasReps = false
	q.cells = q.cells[:0]
	q.scns = q.scns[:0]
	q.ends = q.ends[:0]
	q.body = q.body[:0]
	q.assignedBuf = q.assignedBuf[:0]
	q.repAccepted = 0
	q.repErr = nil
	q.out = q.out[:0]
}

// growCapped returns s with room for n more elements, growing its
// capacity geometrically but never past limit (the caller guarantees
// len(s)+n ≤ limit), so a pooled buffer stays bounded by the engine's
// shape however large a body is.
func growCapped[T any](s []T, n, limit int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := make([]T, len(s), min(max(2*cap(s), len(s)+n, 16), limit))
	copy(grown, s)
	return grown
}

// The acceptor: the JSON decoder, the frame decoder and the in-process
// Submit/StepInto feed every task through the same calls — beginTasks
// once per request, checkDims once its context length is known,
// acceptSCN for each visible SCN as it decodes, reqShape.fold for each
// context coordinate and endTask once the task is complete — so a
// request is validated, indexed and counted in the pass that parses it,
// and the three callers cannot disagree on what a valid task is.

// beginTasks readies the acceptor for a request's task list.
func (q *wireReq) beginTasks() {
	if q.ctx == nil {
		q.counts = make([]int, q.shape.scns)
		q.last = make([]int, q.shape.scns)
		q.ctx = make([]float64, q.shape.dims)
		return
	}
	clear(q.counts)
	clear(q.last)
}

// checkDims rejects a context of k entries unless k is the shape's Dims;
// decoders call it as soon as k is known, before reading the floats.
func (q *wireReq) checkDims(k int) error {
	if k != q.shape.dims {
		return invalidf("serve: task %d: context has %d dims, want %d", len(q.cells), k, q.shape.dims)
	}
	return nil
}

// fold extends cell, the hypercube index of a context's leading
// coordinates, by the next coordinate v with the partition's own formula,
// and reports whether v lies in [0,1] (NaN does not).
func (sh *reqShape) fold(cell int, v float64) (int, bool) {
	return cell*sh.part.H() + sh.part.Coord(v), v >= 0 && v <= 1
}

// acceptSCN admits SCN m to the visible list of the task being decoded:
// in range, not yet listed by this task, and within KMax across the
// request. Only an admitted SCN is stored, so the packed list never holds
// more than SCNs×KMax entries.
func (q *wireReq) acceptSCN(m int) error {
	mark := len(q.cells) + 1
	if uint(m) >= uint(len(q.counts)) || q.last[m] == mark || q.counts[m] >= q.shape.kMax {
		return q.scnError(m)
	}
	q.last[m] = mark
	q.counts[m]++
	if len(q.scns) == cap(q.scns) {
		q.scns = growCapped(q.scns, 1, q.shape.maxItems)
	}
	q.scns = append(q.scns, m)
	return nil
}

// scnError says why acceptSCN refused m.
func (q *wireReq) scnError(m int) error {
	i := len(q.cells)
	switch {
	case m < 0 || m >= q.shape.scns:
		return invalidf("serve: task %d: SCN %d out of range", i, m)
	case q.last[m] == i+1:
		return invalidf("serve: task %d lists SCN %d twice", i, m)
	}
	return invalidf("serve: submission exceeds KMax=%d for SCN %d", q.shape.kMax, m)
}

// acceptTask completes the task being decoded from its whole context:
// Dims entries, folded into the task's cell.
func (q *wireReq) acceptTask(ctx []float64) error {
	if err := q.checkDims(len(ctx)); err != nil {
		return err
	}
	cell, inRange := 0, true
	for _, v := range ctx {
		c, ok := q.shape.fold(cell, v)
		cell, inRange = c, inRange && ok
	}
	return q.endTask(cell, inRange)
}

// endTask completes the task being decoded once its Dims-entry context
// has been folded into cell (inRange is false when an entry fell outside
// [0,1]): the context must be in range and the task must list at least
// one SCN. The cell and the end of the task's SCN span join the packed
// arrays, which stay within maxItems: a task is accepted only with an
// admitted SCN, and acceptSCN admits at most maxItems.
func (q *wireReq) endTask(cell int, inRange bool) error {
	i := len(q.cells)
	if !inRange {
		return invalidf("serve: task %d: context outside [0,1]", i)
	}
	var start int32
	if i > 0 {
		start = q.ends[i-1]
	}
	if int32(len(q.scns)) == start {
		return invalidf("serve: task %d: no visible SCNs", i)
	}
	if len(q.cells) == cap(q.cells) {
		q.cells = growCapped(q.cells, 1, q.shape.maxItems)
	}
	if len(q.ends) == cap(q.ends) {
		q.ends = growCapped(q.ends, 1, q.shape.maxItems)
	}
	q.cells = append(q.cells, cell)
	q.ends = append(q.ends, int32(len(q.scns)))
	return nil
}

// acceptSpecs runs in-process task specs through the acceptor, exactly
// as the decoders run a body's tasks.
func (q *wireReq) acceptSpecs(tasks []TaskSpec) error {
	if len(tasks) == 0 {
		return errEmptySubmission
	}
	q.beginTasks()
	for i := range tasks {
		for _, m := range tasks[i].SCNs {
			if err := q.acceptSCN(m); err != nil {
				return err
			}
		}
		if err := q.acceptTask(tasks[i].Ctx); err != nil {
			return err
		}
	}
	return nil
}

// readBody slurps r into the pooled body buffer, growing it at most up
// to maxWireBody. Growth stops at the shape's maxBody until a body
// outgrows it, so the buffer of a body that fits stays recyclable.
// Steady state (a client resubmitting similar-sized bodies) reads into
// existing capacity and allocates nothing.
func (q *wireReq) readBody(r io.Reader) error {
	q.body = q.body[:0]
	if cap(q.body) == 0 {
		q.body = make([]byte, 0, 4096)
	}
	for {
		if len(q.body) == cap(q.body) {
			if len(q.body) >= maxWireBody {
				return errBodyTooLarge
			}
			limit := min(q.shape.maxBody, maxWireBody)
			if len(q.body) >= limit {
				limit = maxWireBody
			}
			q.body = growCapped(q.body, 1, limit)
		}
		n, err := r.Read(q.body[len(q.body):cap(q.body)])
		q.body = q.body[:len(q.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("serve: read body: %w", err)
		}
	}
}

// ---------------------------------------------------------------------------
// Streaming decoder
// ---------------------------------------------------------------------------

// bstr views b as a string without copying. The decoder uses it to feed
// byte spans of the (stable, caller-owned) body buffer to strconv; the
// string never escapes the parsing call, so the aliasing is safe.
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// wireParser is a single-pass JSON parser over a request body. It
// understands exactly the structure the decision API needs — objects
// with known fields, arrays of numbers, arrays of flat objects, bools —
// and skips anything it does not recognise (unknown fields are the
// wire-format versioning rule; see DESIGN.md §10.1). It allocates
// nothing: numbers parse via strconv over in-place spans, and every
// container appends into the pooled wireReq buffers.
type wireParser struct {
	b []byte
	i int
}

var (
	errTruncated = errors.New("unexpected end of input")
	errSyntax    = errors.New("invalid JSON syntax")
	errTooDeep   = errors.New("value nested too deeply")
)

func (p *wireParser) fail(err error) error {
	return fmt.Errorf("serve: decode at offset %d: %w", p.i, err)
}

func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// peek returns the next non-space byte without consuming it.
func (p *wireParser) peek() (byte, error) {
	p.ws()
	if p.i >= len(p.b) {
		return 0, errTruncated
	}
	return p.b[p.i], nil
}

func (p *wireParser) expect(c byte) error {
	got, err := p.peek()
	if err != nil {
		return err
	}
	if got != c {
		return errSyntax
	}
	p.i++
	return nil
}

// lit consumes the literal s (already positioned at its first byte).
func (p *wireParser) lit(s string) error {
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return errSyntax
	}
	p.i += len(s)
	return nil
}

// numberSpan scans a JSON number starting at the current position and
// returns its byte span.
func (p *wireParser) numberSpan() ([]byte, error) {
	start := p.i
	if p.i < len(p.b) && (p.b[p.i] == '-' || p.b[p.i] == '+') {
		p.i++
	}
	digits := false
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c >= '0' && c <= '9' || c == '.' || c == 'e' || c == 'E' || c == '-' || c == '+' {
			if c >= '0' && c <= '9' {
				digits = true
			}
			p.i++
			continue
		}
		break
	}
	if !digits {
		return nil, errSyntax
	}
	return p.b[start:p.i], nil
}

func (p *wireParser) float() (float64, error) {
	if _, err := p.peek(); err != nil {
		return 0, err
	}
	span, err := p.numberSpan()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(bstr(span), 64)
	if err != nil {
		return 0, errSyntax
	}
	return v, nil
}

func (p *wireParser) int() (int, error) {
	if _, err := p.peek(); err != nil {
		return 0, err
	}
	span, err := p.numberSpan()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(bstr(span), 10, 64)
	if err != nil {
		return 0, errSyntax
	}
	return int(v), nil
}

func (p *wireParser) bool() (bool, error) {
	c, err := p.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 't':
		return true, p.lit("true")
	case 'f':
		return false, p.lit("false")
	}
	return false, errSyntax
}

// fieldName parses an object key. Keys containing escape sequences are
// consumed correctly but returned as empty (treated as unknown — the
// API's field names are plain ASCII, so an escaped spelling is simply
// skipped like any foreign field).
func (p *wireParser) fieldName() ([]byte, error) {
	if err := p.expect('"'); err != nil {
		return nil, err
	}
	start := p.i
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			name := p.b[start:p.i]
			p.i++
			return name, nil
		case '\\':
			// Escaped key: finish the string, report it as unknown.
			p.i = start
			if err := p.skipString(); err != nil {
				return nil, err
			}
			return nil, nil
		default:
			p.i++
		}
	}
	return nil, errTruncated
}

// skipString consumes a string body (opening quote already consumed is
// NOT assumed: position is at the first content byte after start). It is
// called with p.i at the first byte after the opening quote.
func (p *wireParser) skipString() error {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			p.i++
			return nil
		case '\\':
			p.i += 2 // skip the escape introducer and its payload byte
		default:
			p.i++
		}
	}
	return errTruncated
}

// skipValue consumes any JSON value (for unknown fields), bounding the
// nesting depth so hostile input cannot exhaust the stack.
func (p *wireParser) skipValue(depth int) error {
	if depth > 32 {
		return errTooDeep
	}
	c, err := p.peek()
	if err != nil {
		return err
	}
	switch {
	case c == '"':
		p.i++
		return p.skipString()
	case c == '{':
		p.i++
		for {
			c, err := p.peek()
			if err != nil {
				return err
			}
			if c == '}' {
				p.i++
				return nil
			}
			if err := p.expect('"'); err != nil {
				return err
			}
			if err := p.skipString(); err != nil {
				return err
			}
			if err := p.expect(':'); err != nil {
				return err
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			c, err = p.peek()
			if err != nil {
				return err
			}
			if c == ',' {
				p.i++
				continue
			}
			if c != '}' {
				return errSyntax
			}
		}
	case c == '[':
		p.i++
		for {
			c, err := p.peek()
			if err != nil {
				return err
			}
			if c == ']' {
				p.i++
				return nil
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			c, err = p.peek()
			if err != nil {
				return err
			}
			if c == ',' {
				p.i++
				continue
			}
			if c != ']' {
				return errSyntax
			}
		}
	case c == 't':
		return p.lit("true")
	case c == 'f':
		return p.lit("false")
	case c == 'n':
		return p.lit("null")
	default:
		_, err := p.numberSpan()
		return err
	}
}

// array iterates a JSON array, calling elem for each element. A literal
// null is accepted as an empty array (matching encoding/json's nil-slice
// round trip).
func (p *wireParser) array(elem func() error) error {
	c, err := p.peek()
	if err != nil {
		return err
	}
	if c == 'n' {
		return p.lit("null")
	}
	if err := p.expect('['); err != nil {
		return err
	}
	c, err = p.peek()
	if err != nil {
		return err
	}
	if c == ']' {
		p.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		c, err := p.peek()
		if err != nil {
			return err
		}
		if c == ',' {
			p.i++
			continue
		}
		if c == ']' {
			p.i++
			return nil
		}
		return errSyntax
	}
}

// object iterates a JSON object, calling field(name) for each member;
// field must consume the value. A nil/empty name means "unknown" and the
// value has already been skipped by the caller contract below.
func (p *wireParser) object(field func(name []byte) error) error {
	if err := p.expect('{'); err != nil {
		return err
	}
	c, err := p.peek()
	if err != nil {
		return err
	}
	if c == '}' {
		p.i++
		return nil
	}
	for {
		name, err := p.fieldName()
		if err != nil {
			return err
		}
		if err := p.expect(':'); err != nil {
			return err
		}
		if err := field(name); err != nil {
			return err
		}
		c, err := p.peek()
		if err != nil {
			return err
		}
		if c == ',' {
			p.i++
			continue
		}
		if c == '}' {
			p.i++
			return nil
		}
		return errSyntax
	}
}

var (
	errDupField  = errors.New("duplicate field")
	errBadField  = errors.New("malformed field")
	errTrailing  = errors.New("trailing data after value")
	errNotObject = errors.New("request is not a JSON object")
)

// decode parses the pooled body into the request fields. It accepts the
// superset shape {slot, reports, tasks, close}; the per-endpoint
// handlers enforce which fields must (not) be present. Each task goes
// through the acceptor at the end of its object (its fields may come in
// any order), so a body that parses is also valid for the engine's
// shape; a shape violation comes back as errInvalid, unwrapped. On error
// the caller must reset the wireReq — the decoded state is undefined but
// never escapes the pooled object.
func (q *wireReq) decode() error {
	p := wireParser{b: q.body}
	if c, err := p.peek(); err != nil {
		return p.fail(err)
	} else if c != '{' {
		return p.fail(errNotObject)
	}
	err := p.object(func(name []byte) error {
		switch string(name) { // no alloc: compiler optimises []byte switch
		case "tasks":
			if q.hasTasks {
				return errDupField
			}
			q.hasTasks = true
			return q.parseTasks(&p)
		case "close":
			v, err := p.bool()
			if err != nil {
				return err
			}
			q.close = v
			return nil
		case "slot":
			if q.hasSlot {
				return errDupField
			}
			q.hasSlot = true
			v, err := p.int()
			if err != nil {
				return err
			}
			q.slot = v
			return nil
		case "reports":
			if q.hasReps {
				return errDupField
			}
			q.hasReps = true
			return q.parseReports(&p)
		default:
			return p.skipValue(0)
		}
	})
	if err != nil {
		if _, ok := err.(errInvalid); ok {
			return err
		}
		if _, ok := err.(interface{ Unwrap() error }); ok {
			return err // already positioned by fail
		}
		return p.fail(err)
	}
	p.ws()
	if p.i != len(p.b) {
		return p.fail(errTrailing)
	}
	return nil
}

// parseTasks decodes the tasks array through the acceptor. A context
// longer than Dims is counted to the end of its array, for the error
// text, but never stored.
func (q *wireReq) parseTasks(p *wireParser) error {
	q.beginTasks()
	dims := q.shape.dims
	return p.array(func() error {
		k := 0
		seenCtx, seenSCNs := false, false
		err := p.object(func(name []byte) error {
			switch string(name) {
			case "ctx":
				if seenCtx {
					return errDupField
				}
				seenCtx = true
				err := p.array(func() error {
					v, err := p.float()
					if err != nil {
						return err
					}
					if k < dims {
						q.ctx[k] = v
					}
					k++
					return nil
				})
				if err != nil {
					return err
				}
				return q.checkDims(k)
			case "scns":
				if seenSCNs {
					return errDupField
				}
				seenSCNs = true
				return p.array(func() error {
					m, err := p.int()
					if err != nil {
						return err
					}
					return q.acceptSCN(m)
				})
			default:
				return p.skipValue(0)
			}
		})
		if err != nil {
			return err
		}
		return q.acceptTask(q.ctx[:min(k, dims)])
	})
}

func (q *wireReq) parseReports(p *wireParser) error {
	return p.array(func() error {
		if len(q.reports) == q.shape.maxItems {
			return q.shape.tooManyReports
		}
		var r TaskReport
		seen := [4]bool{}
		err := p.object(func(name []byte) error {
			var idx int
			switch string(name) {
			case "task":
				idx = 0
			case "u":
				idx = 1
			case "v":
				idx = 2
			case "q":
				idx = 3
			default:
				return p.skipValue(0)
			}
			if seen[idx] {
				return errDupField
			}
			seen[idx] = true
			if idx == 0 {
				v, err := p.int()
				if err != nil {
					return err
				}
				r.Task = v
				return nil
			}
			v, err := p.float()
			if err != nil {
				return err
			}
			switch idx {
			case 1:
				r.U = v
			case 2:
				r.V = v
			case 3:
				r.Q = v
			}
			return nil
		})
		if err != nil {
			return err
		}
		if len(q.reports) == cap(q.reports) {
			q.reports = growCapped(q.reports, 1, q.shape.maxItems)
		}
		q.reports = append(q.reports, r)
		return nil
	})
}

// ---------------------------------------------------------------------------
// Append-based encoders
// ---------------------------------------------------------------------------

func appendInt(b []byte, v int) []byte {
	return strconv.AppendInt(b, int64(v), 10)
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendJSONString appends s as a quoted JSON string, escaping quotes,
// backslashes, and control characters.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

func appendIntArray(b []byte, vs []int) []byte {
	b = append(b, '[')
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, v)
	}
	return append(b, ']')
}

func appendTasks(b []byte, tasks []TaskSpec) []byte {
	b = append(b, `"tasks":[`...)
	for i := range tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"ctx":[`...)
		for j, v := range tasks[i].Ctx {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendFloat(b, v)
		}
		b = append(b, `],"scns":`...)
		b = appendIntArray(b, tasks[i].SCNs)
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendReports(b []byte, slot int, reports []TaskReport) []byte {
	b = append(b, `"slot":`...)
	b = appendInt(b, slot)
	b = append(b, `,"reports":[`...)
	for i := range reports {
		r := &reports[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"task":`...)
		b = appendInt(b, r.Task)
		b = append(b, `,"u":`...)
		b = appendFloat(b, r.U)
		b = append(b, `,"v":`...)
		b = appendFloat(b, r.V)
		b = append(b, `,"q":`...)
		b = appendFloat(b, r.Q)
		b = append(b, '}')
	}
	return append(b, ']')
}

// appendReportRequest encodes {"slot":N,"reports":[...]}.
func appendReportRequest(b []byte, slot int, reports []TaskReport) []byte {
	b = append(b, '{')
	b = appendReports(b, slot, reports)
	return append(b, '}')
}

// appendStepRequest encodes the batched step: the report part (omitted
// when empty) followed by the submit part. With no reports it is exactly
// the /v1/submit body {"tasks":[...],"close":bool}.
func appendStepRequest(b []byte, slot int, reports []TaskReport, tasks []TaskSpec, close bool) []byte {
	b = append(b, '{')
	if len(reports) > 0 {
		b = appendReports(b, slot, reports)
		b = append(b, ',')
	}
	b = appendTasks(b, tasks)
	if close {
		b = append(b, `,"close":true`...)
	}
	return append(b, '}')
}

// appendSubmitResponse encodes {"slot":s,"base":b,"assigned":[...]}.
func appendSubmitResponse(b []byte, slot, base int, assigned []int) []byte {
	b = append(b, `{"slot":`...)
	b = appendInt(b, slot)
	b = append(b, `,"base":`...)
	b = appendInt(b, base)
	b = append(b, `,"assigned":`...)
	b = appendIntArray(b, assigned)
	return append(b, '}')
}

// appendReportResponse encodes {"accepted":n}.
func appendReportResponse(b []byte, accepted int) []byte {
	b = append(b, `{"accepted":`...)
	b = appendInt(b, accepted)
	return append(b, '}')
}

// appendStepResponse encodes the combined acknowledgement.
func appendStepResponse(b []byte, accepted int, repErr string, slot, base int, assigned []int) []byte {
	b = append(b, `{"accepted":`...)
	b = appendInt(b, accepted)
	if repErr != "" {
		b = append(b, `,"report_error":`...)
		b = appendJSONString(b, repErr)
	}
	b = append(b, `,"slot":`...)
	b = appendInt(b, slot)
	b = append(b, `,"base":`...)
	b = appendInt(b, base)
	b = append(b, `,"assigned":`...)
	b = appendIntArray(b, assigned)
	return append(b, '}')
}

// appendErrorBody encodes the error envelope; accepted > 0 (a shed step
// whose report part was still absorbed) rides along.
func appendErrorBody(b []byte, msg string, accepted int) []byte {
	b = append(b, `{"error":`...)
	b = appendJSONString(b, msg)
	if accepted > 0 {
		b = append(b, `,"accepted":`...)
		b = appendInt(b, accepted)
	}
	return append(b, '}')
}

// ---------------------------------------------------------------------------
// Binary frames
// ---------------------------------------------------------------------------

// frameContentType is the media type of the binary encoding. A data-plane
// request whose Content-Type names it is decoded as a frame and its 200
// reply is a frame; anything else (no header, application/json, curl's
// form default) is JSON. Error envelopes are JSON in both encodings.
//
// A request frame is the magic, a flags byte, then each section its flag
// names, in this order:
//
//	slot     varint
//	reports  uvarint n, then n × {task varint, u f64, v f64, q f64}
//	tasks    uvarint n, then n × {uvarint k, k × ctx f64, uvarint s, s × scn varint}
//
// f64 is the raw IEEE-754 bits, little-endian, so floats round-trip
// exactly with no text conversion; varint is zigzag LEB128 and uvarint
// LEB128 (encoding/binary). Reply frames are the magic followed by
//
//	/v1/submit  slot varint, base varint, uvarint n, n × assigned varint
//	/v1/report  accepted varint
//	/v1/step    accepted varint, uvarint len + report_error bytes, then
//	            the /v1/submit reply fields
const frameContentType = "application/x-lfsc-frame"

// frameMagic opens every request and reply frame: "LFB" and the format
// version.
var frameMagic = [4]byte{'L', 'F', 'B', 1}

// Request frame flag bits. A set bit means the section is present;
// unknown bits are an error, not skipped.
const (
	frameClose   = 1 << iota // close the batch after this submission
	frameSlot                // slot section present
	frameReports             // reports section present
	frameTasks               // tasks section present
	frameFlags   = frameClose | frameSlot | frameReports | frameTasks
)

// Minimum encoded element sizes. Every count is checked against the bytes
// that remain at these sizes before a buffer grows, so a short body that
// claims a huge count is rejected without allocating.
const (
	frameMinReport = 1 + 3*8 // 1-byte task varint + u, v, q
	frameMinTask   = 2       // two 1-byte counts, empty ctx and scns
	frameMinF64    = 8
	frameMinVarint = 1
)

var (
	errFrameMagic    = errors.New("not a v1 binary frame")
	errFrameFlags    = errors.New("unknown frame flag bits")
	errFrameTrunc    = errors.New("frame truncated")
	errFrameVarint   = errors.New("malformed varint")
	errFrameCount    = errors.New("count exceeds the remaining frame")
	errFrameTrailing = errors.New("trailing bytes after frame")
)

// frameReader walks a frame. Every read is bounds-checked against the
// body, and its errors are preallocated sentinels, so a hostile frame
// costs no allocation to reject.
type frameReader struct {
	b []byte
	i int
}

// uvarint reads a LEB128 varint; one-byte values (every count and SCN id
// of a realistic frame) skip the general decoder.
func (r *frameReader) uvarint() (v uint64, err error) {
	if r.i < len(r.b) && r.b[r.i] < 0x80 {
		r.i++
		return uint64(r.b[r.i-1]), nil
	}
	v, r.i, err = uvarintSlow(r.b, r.i)
	return v, err
}

// uvarintSlow decodes the varint at b[i:] with the general decoder and
// returns it with the index after it (i itself on error).
func uvarintSlow(b []byte, i int) (uint64, int, error) {
	v, n := binary.Uvarint(b[i:])
	switch {
	case n > 0:
		return v, i + n, nil
	case n == 0:
		return 0, i, errFrameTrunc
	}
	return 0, i, errFrameVarint
}

// unzigzag maps a zigzag-encoded varint back to its signed value.
func unzigzag(u uint64) int { return int(int64(u>>1) ^ -int64(u&1)) }

// int reads a zigzag varint.
func (r *frameReader) int() (int, error) {
	u, err := r.uvarint()
	return unzigzag(u), err
}

// countFits reports whether n elements of at least min bytes each fit in
// the rem bytes that remain (n ≤ rem first, so n*min cannot overflow, and
// no division).
func countFits(n uint64, min, rem int) bool {
	return n <= uint64(rem) && int(n)*min <= rem
}

// count reads an element count and bounds it by the bytes that remain at
// min bytes per element.
func (r *frameReader) count(min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if !countFits(n, min, len(r.b)-r.i) {
		return 0, errFrameCount
	}
	return int(n), nil
}

// f64 reads one float; the caller has checked that 8 bytes remain.
func (r *frameReader) f64() float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.i:]))
	r.i += 8
	return v
}

func (r *frameReader) end() error {
	if r.i != len(r.b) {
		return errFrameTrailing
	}
	return nil
}

// openFrame checks a frame's magic and positions a reader after it.
func openFrame(b []byte) (frameReader, error) {
	if len(b) < len(frameMagic) || [4]byte(b[:4]) != frameMagic {
		return frameReader{}, errFrameMagic
	}
	return frameReader{b: b, i: len(frameMagic)}, nil
}

// decodeFrame parses the pooled body as a request frame into exactly the
// fields decode fills for the same request in JSON, through the same
// acceptor. On error the caller must reset the wireReq, as after decode.
func (q *wireReq) decodeFrame() error {
	r, err := openFrame(q.body)
	if err != nil {
		return err
	}
	if r.i == len(r.b) {
		return errFrameTrunc
	}
	flags := r.b[r.i]
	r.i++
	if flags&^frameFlags != 0 {
		return errFrameFlags
	}
	q.close = flags&frameClose != 0
	if flags&frameSlot != 0 {
		v, err := r.int()
		if err != nil {
			return err
		}
		q.slot, q.hasSlot = v, true
	}
	if flags&frameReports != 0 {
		q.hasReps = true
		if err := q.frameReports(&r); err != nil {
			return err
		}
	}
	if flags&frameTasks != 0 {
		q.hasTasks = true
		if err := q.frameTasks(&r); err != nil {
			return err
		}
	}
	return r.end()
}

func (q *wireReq) frameReports(r *frameReader) error {
	n, err := r.count(frameMinReport)
	if err != nil {
		return err
	}
	if n > q.shape.maxItems {
		return q.shape.tooManyReports
	}
	q.reports = growCapped(q.reports, n, q.shape.maxItems)
	for range n {
		task, err := r.int()
		if err != nil {
			return err
		}
		if len(r.b)-r.i < 3*8 {
			return errFrameTrunc
		}
		q.reports = append(q.reports, TaskReport{Task: task, U: r.f64(), V: r.f64(), Q: r.f64()})
	}
	return nil
}

// frameTasks decodes the tasks section in one straight pass over the
// body bytes: one-byte counts and SCN ids are read inline (the general
// varint decoder runs only when a continuation bit is set), each
// context's floats are range-checked and folded into the task's cell as
// they are read, and the acceptor admits each SCN and completes each
// task. The checks fail in field order, as a field-by-field decode
// would: a context count other than Dims is refused before its floats
// are read, an out-of-range context only after its task's SCN list.
func (q *wireReq) frameTasks(r *frameReader) error {
	n, err := r.count(frameMinTask)
	if err != nil {
		return err
	}
	q.beginTasks()
	sh := q.shape
	b, i := r.b, r.i
	for range n {
		var k, s, u uint64
		if i < len(b) && b[i] < 0x80 {
			k, i = uint64(b[i]), i+1
		} else if k, i, err = uvarintSlow(b, i); err != nil {
			return err
		}
		if !countFits(k, frameMinF64, len(b)-i) {
			return errFrameCount
		}
		if err := q.checkDims(int(k)); err != nil {
			return err
		}
		cell, inRange := 0, true
		for range sh.dims {
			c, ok := sh.fold(cell, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
			cell, inRange = c, inRange && ok
			i += 8
		}
		if i < len(b) && b[i] < 0x80 {
			s, i = uint64(b[i]), i+1
		} else if s, i, err = uvarintSlow(b, i); err != nil {
			return err
		}
		if !countFits(s, frameMinVarint, len(b)-i) {
			return errFrameCount
		}
		for range s {
			if i < len(b) && b[i] < 0x80 {
				u, i = uint64(b[i]), i+1
			} else if u, i, err = uvarintSlow(b, i); err != nil {
				return err
			}
			if err := q.acceptSCN(unzigzag(u)); err != nil {
				return err
			}
		}
		if err := q.endTask(cell, inRange); err != nil {
			return err
		}
	}
	r.i = i
	return nil
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendVarint(b []byte, v int) []byte {
	return binary.AppendVarint(b, int64(v))
}

// appendRequestFrame encodes a request frame holding the sections flags
// names; the arguments of absent sections are ignored.
func appendRequestFrame(b []byte, flags byte, slot int, reports []TaskReport, tasks []TaskSpec) []byte {
	b = append(b, frameMagic[:]...)
	b = append(b, flags)
	if flags&frameSlot != 0 {
		b = appendVarint(b, slot)
	}
	if flags&frameReports != 0 {
		b = binary.AppendUvarint(b, uint64(len(reports)))
		for i := range reports {
			r := &reports[i]
			b = appendVarint(b, r.Task)
			b = appendF64(b, r.U)
			b = appendF64(b, r.V)
			b = appendF64(b, r.Q)
		}
	}
	if flags&frameTasks != 0 {
		b = binary.AppendUvarint(b, uint64(len(tasks)))
		for i := range tasks {
			b = binary.AppendUvarint(b, uint64(len(tasks[i].Ctx)))
			for _, v := range tasks[i].Ctx {
				b = appendF64(b, v)
			}
			b = binary.AppendUvarint(b, uint64(len(tasks[i].SCNs)))
			for _, m := range tasks[i].SCNs {
				b = appendVarint(b, m)
			}
		}
	}
	return b
}

// appendStepFrame is appendStepRequest's frame twin: the report part only
// when there are reports. With none it is the /v1/submit frame.
func appendStepFrame(b []byte, slot int, reports []TaskReport, tasks []TaskSpec, close bool) []byte {
	flags := byte(frameTasks)
	if close {
		flags |= frameClose
	}
	if len(reports) > 0 {
		flags |= frameSlot | frameReports
	}
	return appendRequestFrame(b, flags, slot, reports, tasks)
}

// appendReportFrame encodes the /v1/report frame.
func appendReportFrame(b []byte, slot int, reports []TaskReport) []byte {
	return appendRequestFrame(b, frameSlot|frameReports, slot, reports, nil)
}

// appendDecisionFrame appends the decision fields shared by the submit
// and step reply frames.
func appendDecisionFrame(b []byte, slot, base int, assigned []int) []byte {
	b = appendVarint(b, slot)
	b = appendVarint(b, base)
	b = binary.AppendUvarint(b, uint64(len(assigned)))
	for _, m := range assigned {
		b = appendVarint(b, m)
	}
	return b
}

// The reply encoders write a 200 reply into q.out in the encoding the
// request arrived in.

func (q *wireReq) replySubmit(slot, base int, assigned []int) {
	if !q.frame {
		q.out = appendSubmitResponse(q.out[:0], slot, base, assigned)
		return
	}
	q.out = appendDecisionFrame(append(q.out[:0], frameMagic[:]...), slot, base, assigned)
}

func (q *wireReq) replyReport(accepted int) {
	if !q.frame {
		q.out = appendReportResponse(q.out[:0], accepted)
		return
	}
	q.out = appendVarint(append(q.out[:0], frameMagic[:]...), accepted)
}

func (q *wireReq) replyStep(accepted int, repErr string, slot, base int, assigned []int) {
	if !q.frame {
		q.out = appendStepResponse(q.out[:0], accepted, repErr, slot, base, assigned)
		return
	}
	b := appendVarint(append(q.out[:0], frameMagic[:]...), accepted)
	b = binary.AppendUvarint(b, uint64(len(repErr)))
	b = append(b, repErr...)
	q.out = appendDecisionFrame(b, slot, base, assigned)
}

// decision reads the decision fields into the targets, reusing
// *assigned, and requires the frame to end there.
func (r *frameReader) decision(slot, base *int, assigned *[]int) error {
	var err error
	if *slot, err = r.int(); err != nil {
		return err
	}
	if *base, err = r.int(); err != nil {
		return err
	}
	n, err := r.count(frameMinVarint)
	if err != nil {
		return err
	}
	a := slices.Grow((*assigned)[:0], n)
	for range n {
		m, err := r.int()
		if err != nil {
			return err
		}
		a = append(a, m)
	}
	*assigned = a
	return r.end()
}

// parseSubmitFrame decodes a /v1/submit reply frame, reusing
// into.Assigned.
func parseSubmitFrame(b []byte, into *SubmitResponse) error {
	r, err := openFrame(b)
	if err != nil {
		return err
	}
	return r.decision(&into.Slot, &into.Base, &into.Assigned)
}

// parseReportFrame decodes a /v1/report reply frame.
func parseReportFrame(b []byte, into *ReportResponse) error {
	r, err := openFrame(b)
	if err != nil {
		return err
	}
	if into.Accepted, err = r.int(); err != nil {
		return err
	}
	return r.end()
}

// parseStepFrame decodes a /v1/step reply frame, reusing into.Assigned.
// Only a non-empty report_error allocates.
func parseStepFrame(b []byte, into *StepResponse) error {
	r, err := openFrame(b)
	if err != nil {
		return err
	}
	if into.Accepted, err = r.int(); err != nil {
		return err
	}
	n, err := r.count(1)
	if err != nil {
		return err
	}
	into.ReportError = ""
	if n > 0 {
		into.ReportError = string(r.b[r.i : r.i+n])
		r.i += n
	}
	return r.decision(&into.Slot, &into.Base, &into.Assigned)
}

// ---------------------------------------------------------------------------
// Client-side JSON parsers (same machinery, reusable targets)
// ---------------------------------------------------------------------------

// parseStepResponse decodes a JSON StepResponse, reusing into.Assigned.
func parseStepResponse(b []byte, into *StepResponse) error {
	p := wireParser{b: b}
	into.Assigned = into.Assigned[:0]
	into.ReportError = ""
	err := p.object(func(name []byte) error {
		switch string(name) {
		case "accepted":
			v, err := p.int()
			into.Accepted = v
			return err
		case "report_error":
			s, err := p.string()
			into.ReportError = s
			return err
		case "slot":
			v, err := p.int()
			into.Slot = v
			return err
		case "base":
			v, err := p.int()
			into.Base = v
			return err
		case "assigned":
			return p.array(func() error {
				v, err := p.int()
				if err != nil {
					return err
				}
				into.Assigned = append(into.Assigned, v)
				return nil
			})
		default:
			return p.skipValue(0)
		}
	})
	if err != nil {
		return p.fail(err)
	}
	return nil
}

// parseErrorBody extracts the error envelope; returns ok=false when b is
// not the envelope shape.
func parseErrorBody(b []byte) (msg string, accepted int, ok bool) {
	p := wireParser{b: b}
	err := p.object(func(name []byte) error {
		switch string(name) {
		case "error":
			s, err := p.string()
			msg = s
			return err
		case "accepted":
			v, err := p.int()
			accepted = v
			return err
		default:
			return p.skipValue(0)
		}
	})
	return msg, accepted, err == nil && msg != ""
}

// string parses a JSON string value, allocating only for the returned
// value (used on cold paths: error envelopes, report_error).
func (p *wireParser) string() (string, error) {
	if err := p.expect('"'); err != nil {
		return "", err
	}
	start := p.i
	simple := true
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case '"':
			s := string(p.b[start:p.i])
			p.i++
			if !simple {
				return unescapeJSON(s), nil
			}
			return s, nil
		case '\\':
			simple = false
			p.i += 2
		default:
			p.i++
		}
	}
	return "", errTruncated
}

// unescapeJSON handles the escapes our own encoder emits (\" \\ \u00XX);
// anything else passes through literally. Cold path only.
func unescapeJSON(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i+1 >= len(s) {
			out = append(out, s[i])
			continue
		}
		i++
		switch s[i] {
		case '"', '\\', '/':
			out = append(out, s[i])
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case 'r':
			out = append(out, '\r')
		case 'u':
			if i+4 < len(s) {
				if v, err := strconv.ParseUint(s[i+1:i+5], 16, 32); err == nil && v < 0x80 {
					out = append(out, byte(v))
					i += 4
					continue
				}
			}
			out = append(out, '\\', 'u')
		default:
			out = append(out, '\\', s[i])
		}
	}
	return string(out)
}
