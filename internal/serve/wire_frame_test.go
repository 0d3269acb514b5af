package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// samePacked compares two decoded requests: presence flags, slot and
// close, the packed tasks (with the per-SCN counts when a task list was
// present) and the reports, floats by their bits (a frame may carry NaN,
// which == never matches).
func samePacked(a, b *wireReq) bool {
	if a.close != b.close || a.slot != b.slot || a.hasSlot != b.hasSlot ||
		a.hasReps != b.hasReps || a.hasTasks != b.hasTasks ||
		!slices.Equal(a.cells, b.cells) || !slices.Equal(a.scns, b.scns) ||
		!slices.Equal(a.ends, b.ends) || len(a.reports) != len(b.reports) {
		return false
	}
	if a.hasTasks && !slices.Equal(a.counts, b.counts) {
		return false
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a.reports {
		x, y := a.reports[i], b.reports[i]
		if x.Task != y.Task || !sameBits(x.U, y.U) || !sameBits(x.V, y.V) || !sameBits(x.Q, y.Q) {
			return false
		}
	}
	return true
}

// requireShapeBound pins the hostile-body bound: whatever a body claims,
// every decode buffer stays within the engine's shape — SCNs×KMax tasks,
// SCN entries and reports, SCNs per-SCN counters, Dims of context
// scratch.
func requireShapeBound(t *testing.T, q *wireReq) {
	t.Helper()
	sh := q.shape
	for _, b := range []struct {
		name     string
		cap, max int
	}{
		{"cells", cap(q.cells), sh.maxItems},
		{"ends", cap(q.ends), sh.maxItems},
		{"scns", cap(q.scns), sh.maxItems},
		{"reports", cap(q.reports), sh.maxItems},
		{"assigned", cap(q.assignedBuf), sh.maxItems},
		{"counts", cap(q.counts), sh.scns},
		{"last", cap(q.last), sh.scns},
		{"ctx", cap(q.ctx), sh.dims},
	} {
		if b.cap > b.max {
			t.Fatalf("%s grew to cap %d, past the shape bound %d", b.name, b.cap, b.max)
		}
	}
}

// logicalReq is a request's fields before any shape check: what both
// encodings carry.
type logicalReq struct {
	flags   byte // the frame flags naming the fields present
	slot    int
	reports []TaskReport
	tasks   []TaskSpec
}

// appendJSONRequest encodes r canonically as JSON, with exactly the
// fields its flags name.
func appendJSONRequest(b []byte, r logicalReq) []byte {
	b = append(b, '{')
	sep := func() {
		if b[len(b)-1] != '{' {
			b = append(b, ',')
		}
	}
	if r.flags&frameSlot != 0 {
		b = appendInt(append(b, `"slot":`...), r.slot)
	}
	if r.flags&frameReports != 0 {
		sep()
		b = append(b, `"reports":[`...)
		for i, rp := range r.reports {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendInt(append(b, `{"task":`...), rp.Task)
			b = appendFloat(append(b, `,"u":`...), rp.U)
			b = appendFloat(append(b, `,"v":`...), rp.V)
			b = appendFloat(append(b, `,"q":`...), rp.Q)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.flags&frameTasks != 0 {
		sep()
		b = appendTasks(b, r.tasks)
	}
	if r.flags&frameClose != 0 {
		sep()
		b = append(b, `"close":true`...)
	}
	return append(b, '}')
}

// requireVerdictMatchesJSON is the cross-codec property: q (decoded with
// error err) and the canonical JSON encoding of its logical request r
// must both accept or both reject, and on accept decode to the same
// packed form.
func requireVerdictMatchesJSON(t *testing.T, q *wireReq, err error, r logicalReq) {
	t.Helper()
	qj := newWireReq(testShape)
	qj.body = appendJSONRequest(qj.body, r)
	errJ := qj.decode()
	if (err == nil) != (errJ == nil) {
		t.Fatalf("verdicts differ: %v vs JSON %v\n json %s", err, errJ, qj.body)
	}
	if err == nil && !samePacked(q, qj) {
		t.Fatalf("packed forms differ:\n %+v\n json %+v", q, qj)
	}
}

// requireCrossCodecJSON checks the cross-codec property on the request
// encoding/json reads from a JSON body (when it reads one: its syntax
// rules differ from the pooled decoder's in lax corners), sent as a
// binary frame and as canonical JSON.
func requireCrossCodecJSON(t *testing.T, data []byte) {
	t.Helper()
	var raw struct {
		Slot    json.RawMessage `json:"slot"`
		Reports json.RawMessage `json:"reports"`
		Tasks   json.RawMessage `json:"tasks"`
		Close   bool            `json:"close"`
	}
	if json.Unmarshal(data, &raw) != nil {
		return
	}
	var r logicalReq
	for _, f := range []struct {
		raw  json.RawMessage
		flag byte
		into any
	}{{raw.Slot, frameSlot, &r.slot}, {raw.Reports, frameReports, &r.reports}, {raw.Tasks, frameTasks, &r.tasks}} {
		if f.raw == nil {
			continue
		}
		if json.Unmarshal(f.raw, f.into) != nil {
			return
		}
		r.flags |= f.flag
	}
	if raw.Close {
		r.flags |= frameClose
	}
	qf := newWireReq(testShape)
	qf.body = appendRequestFrame(qf.body, r.flags, r.slot, r.reports, r.tasks)
	err := qf.decodeFrame()
	requireShapeBound(t, qf)
	requireVerdictMatchesJSON(t, qf, err, r)
}

// refParseFrame reads a request frame into its logical fields with no
// shape checks: an independent reference for the pooled decoder. ok is
// false for a frame that is malformed as bytes.
func refParseFrame(b []byte) (r logicalReq, ok bool) {
	if len(b) < 5 || [4]byte(b[:4]) != frameMagic || b[4]&^frameFlags != 0 {
		return r, false
	}
	r.flags, b = b[4], b[5:]
	bad := false
	uv := func() int {
		v, n := binary.Uvarint(b)
		if n <= 0 || v > uint64(len(b)) { // every element takes ≥ 1 byte
			bad = true
			return 0
		}
		b = b[n:]
		return int(v)
	}
	iv := func() int {
		v, n := binary.Varint(b)
		if n <= 0 {
			bad = true
			return 0
		}
		b = b[n:]
		return int(v)
	}
	f64 := func() float64 {
		if len(b) < 8 {
			bad = true
			return 0
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(b))
		b = b[8:]
		return v
	}
	if r.flags&frameSlot != 0 {
		r.slot = iv()
	}
	if r.flags&frameReports != 0 {
		for n := uv(); n > 0 && !bad; n-- {
			r.reports = append(r.reports, TaskReport{Task: iv(), U: f64(), V: f64(), Q: f64()})
		}
	}
	if r.flags&frameTasks != 0 {
		for n := uv(); n > 0 && !bad; n-- {
			var sp TaskSpec
			for k := uv(); k > 0 && !bad; k-- {
				sp.Ctx = append(sp.Ctx, f64())
			}
			for s := uv(); s > 0 && !bad; s-- {
				sp.SCNs = append(sp.SCNs, iv())
			}
			r.tasks = append(r.tasks, sp)
		}
	}
	return r, !bad && len(b) == 0
}

// TestWireFrameMatchesJSON pins the codecs' equivalence: the same request
// sent as a frame and as JSON decodes into the same packed form — cells,
// SCN spans, counts, reports — on every data-plane request shape, and
// frame floats keep their exact bits.
func TestWireFrameMatchesJSON(t *testing.T) {
	tasks, reports := wireTasks(), wireReports()
	for _, tc := range []struct {
		name        string
		json, frame []byte
	}{
		{"step", appendStepRequest(nil, 11, reports, tasks, true), appendStepFrame(nil, 11, reports, tasks, true)},
		{"step-first", appendStepRequest(nil, 0, nil, tasks, false), appendStepFrame(nil, 0, nil, tasks, false)},
		{"report", appendReportRequest(nil, 42, reports), appendReportFrame(nil, 42, reports)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			qj := decodeWire(t, string(tc.json))
			qf := newWireReq(testShape)
			qf.body = append(qf.body, tc.frame...)
			if err := qf.decodeFrame(); err != nil {
				t.Fatal(err)
			}
			if !samePacked(qj, qf) {
				t.Fatalf("frame decode differs from JSON decode:\n json  %+v\n frame %+v", qj, qf)
			}
			if qf.hasTasks {
				requirePacked(t, qf, packedOf(testShape, tasks))
			}
			if len(tc.frame) >= len(tc.json) {
				t.Errorf("frame (%d B) not smaller than JSON (%d B)", len(tc.frame), len(tc.json))
			}
		})
	}
	t.Run("float-bits", func(t *testing.T) {
		odd := append(slices.Clone(gnarlyFloats), math.NaN(), math.Inf(-1), math.Copysign(0, -1))
		ids := []int{math.MinInt64, -1, math.MaxInt64}
		reps := make([]TaskReport, len(odd))
		for i, v := range odd {
			reps[i] = TaskReport{Task: ids[i%len(ids)], U: v, V: -v, Q: v}
		}
		q := newWireReq(testShape)
		q.body = appendReportFrame(q.body, 0, reps)
		if err := q.decodeFrame(); err != nil {
			t.Fatal(err)
		}
		for i, want := range reps {
			got := q.reports[i]
			if got.Task != want.Task || math.Float64bits(got.U) != math.Float64bits(want.U) ||
				math.Float64bits(got.V) != math.Float64bits(want.V) || math.Float64bits(got.Q) != math.Float64bits(want.Q) {
				t.Fatalf("report %d: got %+v, want %+v (bit for bit)", i, got, want)
			}
		}
	})
}

// goodFrame is the known-good body the error and fuzz tests decode after
// a failure, to prove the reset pooled object carries no residue.
func goodFrame() []byte {
	return appendStepFrame(nil, 5, []TaskReport{{Task: 1, U: 0.5, V: 1, Q: 0.25}}, goodTask, false)
}

func checkGoodFrame(t *testing.T, q *wireReq, after string) {
	t.Helper()
	q.reset()
	q.body = append(q.body, goodFrame()...)
	if err := q.decodeFrame(); err != nil {
		t.Fatalf("after %s: good frame rejected: %v", after, err)
	}
	requireGood(t, q, false, after)
}

// frameCtx3 is one task's context section in a frame: k=3 and three
// in-range floats.
func frameCtx3() []byte {
	b := []byte{3}
	for _, v := range []float64{0.5, 0.5, 0.5} {
		b = appendF64(b, v)
	}
	return b
}

// TestWireFrameDecodeErrors enumerates malformed frames and frames that
// do not fit the shape: every one must error (never panic) — shape
// violations with the same envelope text as JSON — and the reset pooled
// object must then decode a good frame exactly.
func TestWireFrameDecodeErrors(t *testing.T) {
	good := goodFrame()
	head := func(flags byte, rest ...byte) []byte {
		return append(append(frameMagic[:len(frameMagic):len(frameMagic)], flags), rest...)
	}
	task := func(scns ...int) []byte {
		b := binary.AppendUvarint(frameCtx3(), uint64(len(scns)))
		for _, m := range scns {
			b = appendVarint(b, m)
		}
		return b
	}
	tasks := func(ts ...[]byte) []byte {
		b := head(frameTasks, byte(len(ts)))
		for _, t := range ts {
			b = append(b, t...)
		}
		return b
	}
	bad := map[string][]byte{
		"empty":           {},
		"magic-only":      frameMagic[:],
		"short-magic":     frameMagic[:3],
		"wrong-version":   {'L', 'F', 'B', 2, 0},
		"json":            []byte(`{"tasks":[]}`),
		"unknown-flag":    head(0x10),
		"slot-missing":    head(frameSlot),
		"varint-overflow": append(head(frameSlot), bytes.Repeat([]byte{0xff}, 11)...),
		"reports-short":   head(frameReports, 1, 0, 1, 2, 3),
		"task-ctx-short":  head(frameTasks, 1, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"task-scn-short":  append(head(frameTasks, 1), append(frameCtx3(), 3, 2)...),
		"scn-varint-cut":  append(head(frameTasks, 1), append(frameCtx3(), 1, 0x80)...),
		"trailing":        append(slices.Clone(good), 0),
		"truncated":       good[:len(good)-1],
	}
	outside := frameCtx3()
	copy(outside[1+8:], appendF64(nil, 1.5))
	// SCNs×KMax tasks fill every SCN; one more trips KMax.
	var pastShape [][]byte
	for m := range 4 {
		for range 8 {
			pastShape = append(pastShape, task(m))
		}
	}
	pastShape = append(pastShape, task(0))
	invalid := map[string]struct {
		body []byte
		want string
	}{
		"dims":      {head(frameTasks, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0), "serve: task 0: context has 1 dims, want 3"},
		"outside":   {append(head(frameTasks, 1), append(outside, 1, 0)...), "serve: task 0: context outside [0,1]"},
		"no-scns":   {tasks(task()), "serve: task 0: no visible SCNs"},
		"scn-range": {tasks(task(0), task(4)), "serve: task 1: SCN 4 out of range"},
		"scn-twice": {tasks(task(1, 3, 1)), "serve: task 0 lists SCN 1 twice"},
		"kmax": {tasks(task(2), task(2), task(2), task(2), task(2), task(2), task(2), task(2), task(0, 2)),
			"serve: submission exceeds KMax=8 for SCN 2"},
		"past-shape":  {tasks(pastShape...), "serve: submission exceeds KMax=8 for SCN 0"},
		"reports-cap": {append(head(frameReports, 33), make([]byte, 33*frameMinReport)...), "serve: more than SCNs×KMax=32 reports in one request"},
	}
	q := newWireReq(testShape)
	for name, body := range bad {
		q.reset()
		q.body = append(q.body, body...)
		if err := q.decodeFrame(); err == nil {
			t.Errorf("%s: accepted % x", name, body)
		} else if _, ok := err.(errInvalid); ok {
			t.Errorf("%s: malformed frame reported as a shape violation: %v", name, err)
		}
		checkGoodFrame(t, q, name)
	}
	for name, tc := range invalid {
		q.reset()
		q.body = append(q.body, tc.body...)
		err := q.decodeFrame()
		if _, ok := err.(errInvalid); !ok || err.Error() != tc.want {
			t.Errorf("%s: got %v (%T), want errInvalid %q", name, err, err, tc.want)
		}
		requireShapeBound(t, q)
		checkGoodFrame(t, q, name)
	}
}

// TestWireFrameHugeCountsRejected pins the bounds-check rule: a short
// body claiming 2^32 tasks, reports, context entries or SCNs is rejected
// before any buffer grows for the claim — without allocating at all.
func TestWireFrameHugeCountsRejected(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<32)
	head := func(flags byte, rest ...byte) []byte {
		return append(append(frameMagic[:len(frameMagic):len(frameMagic)], flags), rest...)
	}
	cases := []struct {
		name string
		body []byte
		buf  func(q *wireReq) int // capacity the claim would have grown
	}{
		{"tasks", append(head(frameTasks), huge...), func(q *wireReq) int { return cap(q.cells) + cap(q.ends) }},
		{"reports", append(head(frameSlot|frameReports, 0), huge...), func(q *wireReq) int { return cap(q.reports) }},
		{"ctx", append(head(frameTasks, 1), huge...), func(q *wireReq) int { return cap(q.ctx) - testShape.dims }},
		{"scns", append(append(head(frameTasks, 1), frameCtx3()...), huge...), func(q *wireReq) int { return cap(q.scns) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newWireReq(testShape)
			q.body = append(q.body, tc.body...)
			if err := q.decodeFrame(); err != errFrameCount {
				t.Fatalf("decode = %v, want %v", err, errFrameCount)
			}
			if c := tc.buf(q); c != 0 {
				t.Fatalf("claimed buffer grew to cap %d", c)
			}
			allocs := testing.AllocsPerRun(20, func() {
				q.reset()
				q.body = append(q.body, tc.body...)
				q.decodeFrame() //nolint:errcheck // rejection pinned above
			})
			if allocs != 0 {
				t.Fatalf("rejecting the claim allocated %v times", allocs)
			}
			checkGoodFrame(t, q, tc.name)
		})
	}
}

// FuzzWireDecodeBinary hammers the frame decoder with requireFrameProperty.
func FuzzWireDecodeBinary(f *testing.F) {
	f.Add(appendStepFrame(nil, 7, wireReports(), wireTasks(), true))
	f.Add(appendStepFrame(nil, 0, nil, wireTasks(), false))
	f.Add(appendReportFrame(nil, 3, wireReports()))
	f.Add(appendRequestFrame(nil, frameFlags, -1, nil, nil))
	f.Add(appendStepFrame(nil, 0, nil, []TaskSpec{{Ctx: []float64{0.5, 0.5}, SCNs: []int{0}}, {Ctx: []float64{0.5, 0.5, 0.5}, SCNs: []int{9, 9}}}, true))
	f.Add(append(append(frameMagic[:len(frameMagic):len(frameMagic)], frameTasks), binary.AppendUvarint(nil, 1<<32)...))
	f.Add(append(append(frameMagic[:len(frameMagic):len(frameMagic)], frameSlot|frameReports, 0), binary.AppendUvarint(nil, 1<<32)...))
	f.Add(realisticFrame())
	f.Add([]byte(`{"tasks":[{"ctx":[0.5,0.5,0.5],"scns":[0]}]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) { requireFrameProperty(t, data) })
}

// requireFrameProperty is the frame decoder's contract on one body:
// never panics; buffers stay linear in the body size (a claimed count
// never outruns the bytes behind it) and within the engine's shape; on
// success the decode is deterministic; a frame that is well-formed as
// bytes gives the same verdict and packed form as its request in
// canonical JSON; on error or not, a reset object decodes a known-good
// frame with no residue; and input encoding/json reads satisfies the
// cross-codec property too. It returns the decode error and, when the
// frame is well-formed as bytes (ok), its logical request.
func requireFrameProperty(t *testing.T, data []byte) (r logicalReq, ok bool, err error) {
	t.Helper()
	q := newWireReq(testShape)
	q.body = append(q.body, data...)
	err = q.decodeFrame()
	if total := cap(q.cells) + cap(q.ends) + cap(q.reports) + cap(q.scns); total > 4*len(data)+64 {
		t.Fatalf("%d-byte body grew buffers to %d elements", len(data), total)
	}
	requireShapeBound(t, q)
	if err == nil {
		q2 := newWireReq(testShape)
		q2.body = append(q2.body, data...)
		if err2 := q2.decodeFrame(); err2 != nil || !samePacked(q, q2) {
			t.Fatalf("decode not deterministic: %v", err2)
		}
	}
	// JSON has no NaN or infinity, so only finite reports cross over
	// (non-finite contexts are invalid in both encodings).
	if r, ok = refParseFrame(data); ok && !slices.ContainsFunc(r.reports, func(rp TaskReport) bool {
		return !isFinite(rp.U) || !isFinite(rp.V) || !isFinite(rp.Q)
	}) {
		requireVerdictMatchesJSON(t, q, err, r)
	}
	checkGoodFrame(t, q, "fuzz input")
	requireCrossCodecJSON(t, data)
	return r, ok, err
}

// realisticTasks is a slot's tasks the way a client sends them, at the
// most testShape admits: 24 tasks over all 4 SCNs, eight of them visible
// to two, so every SCN sits exactly at KMax. Contexts span [0,1], both
// ends included.
func realisticTasks() []TaskSpec {
	tasks := make([]TaskSpec, 24)
	for i := range tasks {
		ctx := make([]float64, testShape.dims)
		for d := range ctx {
			ctx[d] = float64((7*i+13*d)%29) / 28
		}
		scns := []int{i % 4}
		if i%3 == 0 {
			scns = append(scns, (i+1)%4)
		}
		tasks[i] = TaskSpec{Ctx: ctx, SCNs: scns}
	}
	tasks[5].Ctx[1] = 1.0 / 3.0
	tasks[20].Ctx[0] = 0.30000000000000004
	return tasks
}

// realisticStepFrame encodes tasks as a closing /v1/step frame with a
// report part for the previous slot.
func realisticStepFrame(tasks []TaskSpec) []byte {
	reports := make([]TaskReport, 8)
	for i := range reports {
		reports[i] = TaskReport{Task: 3*i + 1, U: 1 / float64(i+2), V: float64(i % 2), Q: 1 + 1/float64(i+3)}
	}
	return appendStepFrame(nil, 41, reports, tasks, true)
}

func realisticFrame() []byte { return realisticStepFrame(realisticTasks()) }

// TestWireFrameRealisticMutations runs requireFrameProperty over every
// one-byte rewrite of realisticFrame — each byte set to 0, 1, Dims±1,
// 0x7f, 0x80 and 0xff — and requires a shape rejection to carry the JSON
// decoder's error text too. The rewrites reach each place the task loop
// can leave early on every go test, not only under -fuzz: multi-byte
// varints, a context count other than Dims, out-of-range floats,
// duplicate, out-of-range and past-KMax SCNs, and truncation. A second
// sweep rewrites the last task of the same frame with that task's
// context out of range: a rewrite that breaks one of its later fields
// must still fail in field order, as a JSON decode of the request does.
func TestWireFrameRealisticMutations(t *testing.T) {
	reached := map[string]bool{}
	sweepFrameRewrites(t, realisticFrame(), 0, reached)
	tasks := realisticTasks()
	last := len(tasks) - 1
	tasks[last].Ctx[0] = 1.5
	body := realisticStepFrame(tasks)
	q := newWireReq(testShape)
	q.body = append(q.body, body...)
	if err, want := errText(q.decodeFrame()), fmt.Sprintf("serve: task %d: context outside [0,1]", last); err != want {
		t.Fatalf("base frame: got %q, want %q", err, want)
	}
	sweepFrameRewrites(t, body, len(realisticStepFrame(tasks[:last])), reached)
	for _, p := range append(frameExits, wideSCNExit) {
		if !reached[p] {
			t.Errorf("no rewrite reached %q", p)
		}
	}
}

// frameExits are error texts of the task loop's early exits; the
// rewrite sweep must reach each, and wideSCNExit, an SCN id too wide for
// a one-byte varint (-64..63).
var (
	frameExits = []string{"context has", "outside [0,1]", "twice", "out of range", "exceeds KMax",
		errFrameTrunc.Error(), errFrameCount.Error()}
	wideSCN     = regexp.MustCompile(`SCN -?\d{3,}`)
	wideSCNExit = "multi-byte SCN varint"
)

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// sweepFrameRewrites is TestWireFrameRealisticMutations' sweep of
// body[from:]; it notes in reached which early exits the rewrites hit.
func sweepFrameRewrites(t *testing.T, body []byte, from int, reached map[string]bool) {
	t.Helper()
	q := newWireReq(testShape)
	q.body = append(q.body, body...)
	base := errText(q.decodeFrame())
	dims := byte(testShape.dims)
	for i := from; i < len(body); i++ {
		for _, v := range []byte{0, 1, dims - 1, dims + 1, 0x7f, 0x80, 0xff} {
			if body[i] == v {
				continue
			}
			mut := slices.Clone(body)
			mut[i] = v
			r, ok, err := requireFrameProperty(t, mut)
			msg := errText(err)
			if _, invalid := err.(errInvalid); invalid && ok && allFinite(r) {
				qj := newWireReq(testShape)
				qj.body = appendJSONRequest(qj.body, r)
				if errJ := qj.decode(); errText(errJ) != msg {
					t.Fatalf("byte %d = %#x: frame error %q, JSON error %v", i, v, msg, errJ)
				}
			}
			if msg == base {
				continue
			}
			for _, p := range frameExits {
				reached[p] = reached[p] || strings.Contains(msg, p)
			}
			reached[wideSCNExit] = reached[wideSCNExit] || wideSCN.MatchString(msg)
		}
	}
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allFinite reports whether every float r carries is finite, so that
// canonical JSON expresses r exactly.
func allFinite(r logicalReq) bool {
	for _, rp := range r.reports {
		if !isFinite(rp.U) || !isFinite(rp.V) || !isFinite(rp.Q) {
			return false
		}
	}
	for _, sp := range r.tasks {
		if slices.ContainsFunc(sp.Ctx, func(v float64) bool { return !isFinite(v) }) {
			return false
		}
	}
	return true
}

// TestWireHostileBodiesBounded sends three hostile bodies, each just
// under the 8 MiB body limit, through the real handlers: a frame claiming
// 4,194,296 empty tasks (k=0, s=0), JSON {"tasks":[{},{},…]} and JSON
// {"reports":[{},…]}. Each must get a 400, and afterwards every pooled
// request's decode buffers must be bounded by the engine's shape
// (SCNs×KMax), not by the body; only the body buffer itself may reach
// the transport limit.
func TestWireHostileBodiesBounded(t *testing.T) {
	sc := testScenario(50, 3)
	eng, srv, _ := bootDaemon(t, sc, nil)
	defer srv.Close()
	defer eng.Stop()

	const n = 4_194_296
	frame := binary.AppendUvarint(append(frameMagic[:len(frameMagic):len(frameMagic)], frameTasks), n)
	frame = append(frame, make([]byte, 2*n)...)
	items := (maxWireBody - 64) / 3
	list := func(field string) []byte {
		return []byte(`{"` + field + `":[` + strings.Repeat(`{},`, items) + `{}]}`)
	}
	for _, c := range []struct {
		path, ct string
		body     []byte
	}{
		{"/v1/step", frameContentType, frame},
		{"/v1/step", "application/json", list("tasks")},
		{"/v1/report", "application/json", list("reports")},
	} {
		if len(c.body) >= maxWireBody {
			t.Fatalf("%s body of %d bytes is over the limit", c.ct, len(c.body))
		}
		resp, err := http.Post("http://"+srv.Addr()+c.path, c.ct, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: %d %s, want 400", c.ct, c.path, resp.StatusCode, out)
		}
	}
	pooled := 0
	for len(eng.reqPool) > 0 {
		q := <-eng.reqPool
		requireShapeBound(t, q)
		if cap(q.body) > maxWireBody || cap(q.out) > 4096 {
			t.Fatalf("pooled body cap %d, reply cap %d", cap(q.body), cap(q.out))
		}
		pooled++
	}
	if pooled == 0 {
		t.Fatal("no pooled request to inspect")
	}
}

// TestWirePooledBodyBounded sends a valid step whose JSON body an unknown
// field pads past the shape's maxBody through the real handler: it is
// served, and its request returns to the pool without the grown body
// buffer. The next step, padded to one byte under the bound, leaves its
// buffer pooled.
func TestWirePooledBodyBounded(t *testing.T) {
	sc := testScenario(50, 3)
	eng, srv, _ := bootDaemon(t, sc, nil)
	defer srv.Close()
	defer eng.Stop()
	tasks := []TaskSpec{{Ctx: make([]float64, eng.cfg.Dims), SCNs: []int{0, 1}}}
	var st StepResponse
	step := func(body []byte) {
		t.Helper()
		resp, err := http.Post("http://"+srv.Addr()+"/v1/step", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d-byte step: %d %s", len(body), resp.StatusCode, out)
		}
		if err := json.Unmarshal(out, &st); err != nil {
			t.Fatal(err)
		}
	}
	// pooledBodies drains the pool and returns the largest body capacity.
	pooledBodies := func() int {
		largest := -1
		for len(eng.reqPool) > 0 {
			largest = max(largest, cap((<-eng.reqPool).body))
		}
		return largest
	}

	padded := func(n int, body []byte) []byte {
		return append([]byte(`{"pad":"`+strings.Repeat("x", n-len(body)-len(`"pad":"",`))+`",`), body[1:]...)
	}
	step(padded(4*eng.shape.maxBody, appendStepRequest(nil, 0, nil, tasks, true)))
	if c := pooledBodies(); c > eng.shape.maxBody {
		t.Fatalf("pooled body cap %d after an oversize body, bound %d", c, eng.shape.maxBody)
	}
	var reps []TaskReport
	for i, m := range st.Assigned {
		if m >= 0 {
			reps = append(reps, TaskReport{Task: i, U: 0.5, V: 1, Q: 1})
		}
	}
	step(padded(eng.shape.maxBody-1, appendStepRequest(nil, st.Slot, reps, tasks, true)))
	if c := pooledBodies(); c <= 0 || c > eng.shape.maxBody {
		t.Fatalf("pooled body cap %d after a body within the bound %d", c, eng.shape.maxBody)
	}
}

// jsonConn is a third-party client: plain net/http and encoding/json,
// none of this package's wire code. It requires JSON replies.
type jsonConn struct {
	base string
	hc   http.Client
}

func (c *jsonConn) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %d: %s", path, resp.StatusCode, msg)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		return fmt.Errorf("%s: reply Content-Type %q", path, ct)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (c *jsonConn) SubmitInto(req *SubmitRequest, resp *SubmitResponse) error {
	*resp = SubmitResponse{}
	return c.post("/v1/submit", req, resp)
}

func (c *jsonConn) Report(req *ReportRequest) (*ReportResponse, error) {
	var resp ReportResponse
	return &resp, c.post("/v1/report", req, &resp)
}

func (c *jsonConn) StepInto(repSlot int, reports []TaskReport, tasks []TaskSpec, close bool, resp *StepResponse) error {
	*resp = StepResponse{}
	return c.post("/v1/step", &StepRequest{Slot: repSlot, Reports: reports, Tasks: tasks, Close: close}, resp)
}

// frameConn is a stock net/http client speaking binary frames: this
// package's frame codec, none of Client's connection handling. It
// requires frame replies.
type frameConn struct {
	base string
	hc   http.Client
}

func (c *frameConn) post(path string, body []byte, parse func([]byte) error) error {
	resp, err := c.hc.Post(c.base+path, frameContentType, bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %d: %s", path, resp.StatusCode, out)
	}
	if ct := resp.Header.Get("Content-Type"); ct != frameContentType {
		return fmt.Errorf("%s: reply Content-Type %q", path, ct)
	}
	return parse(out)
}

func (c *frameConn) SubmitInto(req *SubmitRequest, resp *SubmitResponse) error {
	return c.post("/v1/submit", appendStepFrame(nil, 0, nil, req.Tasks, req.Close),
		func(b []byte) error { return parseSubmitFrame(b, resp) })
}

func (c *frameConn) Report(req *ReportRequest) (*ReportResponse, error) {
	var resp ReportResponse
	return &resp, c.post("/v1/report", appendReportFrame(nil, req.Slot, req.Reports),
		func(b []byte) error { return parseReportFrame(b, &resp) })
}

func (c *frameConn) StepInto(repSlot int, reports []TaskReport, tasks []TaskSpec, close bool, resp *StepResponse) error {
	return c.post("/v1/step", appendStepFrame(nil, repSlot, reports, tasks, close),
		func(b []byte) error { return parseStepFrame(b, resp) })
}

// recordConn keeps a copy of every slot's assignment that passes through
// the wrapped connection.
type recordConn struct {
	Conn
	assigned [][]int
}

func (c *recordConn) SubmitInto(req *SubmitRequest, resp *SubmitResponse) error {
	err := c.Conn.SubmitInto(req, resp)
	if err == nil {
		c.assigned = append(c.assigned, slices.Clone(resp.Assigned))
	}
	return err
}

func (c *recordConn) StepInto(repSlot int, reports []TaskReport, tasks []TaskSpec, close bool, resp *StepResponse) error {
	err := c.Conn.StepInto(repSlot, reports, tasks, close, resp)
	if err == nil {
		c.assigned = append(c.assigned, slices.Clone(resp.Assigned))
	}
	return err
}

// TestLockstepJSONClientMatchesBinary keeps the JSON interop path covered
// end to end now that the in-tree client sends frames: one daemon driven
// by a plain net/http + encoding/json client, one by a stock net/http
// client sending frames, and an identically seeded daemon driven by the
// binary Client, batched (/v1/step) and unbatched (/v1/submit +
// /v1/report), must agree on every slot's assignment and reward and on
// the hex bits of the client and daemon cumulative rewards.
func TestLockstepJSONClientMatchesBinary(t *testing.T) {
	const T = 150
	sc := testScenario(T, 33)
	type result struct {
		assigned       [][]int
		rewards        []float64
		client, daemon float64
	}
	run := func(useStep bool, conn string) result {
		eng, srv, client := bootDaemon(t, sc, nil)
		defer srv.Close()
		rec := &recordConn{Conn: client}
		switch conn {
		case "json":
			rec.Conn = &jsonConn{base: "http://" + srv.Addr()}
		case "frame":
			rec.Conn = &frameConn{base: "http://" + srv.Addr()}
		}
		rep, err := NewReplayer(sc)
		if err != nil {
			t.Fatal(err)
		}
		rep.SetUseStep(useStep)
		var rewards []float64
		st, err := rep.Run(rec, 0, T, func(r SlotResult) { rewards = append(rewards, r.Reward) })
		if err != nil {
			t.Fatal(err)
		}
		eng.Stop()
		if st.ShedSlots != 0 || eng.Slot() != T {
			t.Fatalf("step=%v %s: shed %d, daemon at slot %d", useStep, conn, st.ShedSlots, eng.Slot())
		}
		return result{rec.assigned, rewards, rep.CumReward(), eng.CumReward()}
	}
	for _, useStep := range []bool{true, false} {
		bin := run(useStep, "binary")
		if math.Float64bits(bin.client) != math.Float64bits(bin.daemon) {
			t.Fatalf("step=%v: binary client cum reward %x != daemon %x", useStep, bin.client, bin.daemon)
		}
		for _, conn := range []string{"json", "frame"} {
			got := run(useStep, conn)
			if len(bin.assigned) < T/2 || !reflect.DeepEqual(bin.assigned, got.assigned) {
				t.Fatalf("step=%v: per-slot assignments differ between binary and %s clients (%d vs %d slots)",
					useStep, conn, len(bin.assigned), len(got.assigned))
			}
			sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !slices.EqualFunc(bin.rewards, got.rewards, sameBits) {
				t.Fatalf("step=%v: per-slot rewards differ between binary and %s clients", useStep, conn)
			}
			for _, p := range [][2]float64{{bin.client, got.client}, {bin.daemon, got.daemon}} {
				if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
					t.Fatalf("step=%v: cum reward %x != %x (binary client %x daemon %x, %s client %x daemon %x)",
						useStep, p[0], p[1], bin.client, bin.daemon, conn, got.client, got.daemon)
				}
			}
		}
	}
}

// TestWireContentTypeNegotiation drives one daemon over real HTTP with
// both encodings: the request's Content-Type alone picks the decoder, a
// 200 reply comes back in the request's encoding, and errors are the
// JSON envelope whichever encoding the request used.
func TestWireContentTypeNegotiation(t *testing.T) {
	sc := testScenario(50, 7)
	eng, srv, _ := bootDaemon(t, sc, nil)
	defer srv.Close()
	defer eng.Stop()
	base := "http://" + srv.Addr()
	tasks := make([]TaskSpec, 3)
	for i := range tasks {
		tasks[i] = TaskSpec{Ctx: make([]float64, eng.cfg.Dims), SCNs: []int{i}}
		for d := range tasks[i].Ctx {
			tasks[i].Ctx[d] = 0.25 * float64(i+1)
		}
	}
	post := func(path, ct string, body []byte) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), out
	}
	reportsFor := func(assigned []int) []TaskReport {
		var reps []TaskReport
		for i, m := range assigned {
			if m >= 0 {
				reps = append(reps, TaskReport{Task: i, U: 0.5, V: 1, Q: 1})
			}
		}
		return reps
	}

	// A frame, with the media type in another case and a parameter.
	code, ct, out := post("/v1/step", " Application/X-LFSC-Frame; v=1", appendStepFrame(nil, 0, nil, tasks, true))
	var st StepResponse
	if code != http.StatusOK || ct != frameContentType {
		t.Fatalf("frame step: %d %q %s", code, ct, out)
	}
	if err := parseStepFrame(out, &st); err != nil || len(st.Assigned) != len(tasks) {
		t.Fatalf("frame step reply: %v %+v", err, st)
	}

	// Wrong-encoding bodies are rejected with the JSON envelope, and
	// leave the open slot untouched.
	for _, c := range []struct{ ct, body string }{
		{frameContentType, `{"tasks":[]}`},
		{"application/json", string(appendStepFrame(nil, 0, nil, tasks, true))},
	} {
		code, ct, out := post("/v1/step", c.ct, []byte(c.body))
		if _, _, ok := parseErrorBody(out); code != http.StatusBadRequest || ct != "application/json" || !ok {
			t.Fatalf("CT %q: %d %q %s", c.ct, code, ct, out)
		}
	}

	// JSON with no Content-Type at all: reports for the open slot plus
	// the next batch, answered in JSON.
	reps := reportsFor(st.Assigned)
	code, ct, out = post("/v1/step", "", appendStepRequest(nil, st.Slot, reps, tasks, true))
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("json step: %d %q %s", code, ct, out)
	}
	var sj StepResponse
	if err := json.Unmarshal(out, &sj); err != nil || sj.Accepted != len(reps) || sj.Slot != st.Slot+1 {
		t.Fatalf("json step reply: %v %+v", err, sj)
	}

	// A frame report for that slot, answered with a frame.
	reps = reportsFor(sj.Assigned)
	code, ct, out = post("/v1/report", frameContentType, appendReportFrame(nil, sj.Slot, reps))
	var rr ReportResponse
	if code != http.StatusOK || ct != frameContentType {
		t.Fatalf("frame report: %d %q %s", code, ct, out)
	}
	if err := parseReportFrame(out, &rr); err != nil || rr.Accepted != len(reps) {
		t.Fatalf("frame report reply: %v %+v", err, rr)
	}
}

// BenchmarkWireCodec prices both encodings of one paper-scale /v1/step
// body (Sec. 5 topology: 30 SCNs, ~2000 tasks, plus a report part for
// the previous slot's assignments): the client-side encode and the
// daemon-side decode into a pooled request, which validates and indexes
// every task as it parses.
func BenchmarkWireCodec(b *testing.B) {
	sc := paperScenario(4, 42)
	rep, err := NewReplayer(sc)
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := sc.EngineConfig()
	if err != nil {
		b.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rep.env.Advance(0)
	rep.gen.NextInto(0, &rep.slotBuf)
	rep.buildSpecs()
	tasks := rep.specs
	reports := make([]TaskReport, 600)
	for i := range reports {
		reports[i] = TaskReport{Task: 3 * i, U: 1 / float64(i+3), V: 1, Q: 1 + 1/float64(i+7)}
	}
	for _, codec := range []struct {
		name   string
		encode func(b []byte) []byte
		decode func(*wireReq) error
	}{
		{"json", func(b []byte) []byte { return appendStepRequest(b, 0, reports, tasks, true) }, (*wireReq).decode},
		{"binary", func(b []byte) []byte { return appendStepFrame(b, 0, reports, tasks, true) }, (*wireReq).decodeFrame},
	} {
		body := codec.encode(nil)
		b.Run("encode/"+codec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			out := make([]byte, 0, len(body))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = codec.encode(out[:0])
			}
		})
		b.Run("decode/"+codec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			// One untimed decode grows the pooled buffers: the loop
			// prices the steady state.
			q := eng.getReq()
			q.body = append(q.body, body...)
			if err := codec.decode(q); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				q.reset()
				q.body = append(q.body, body...)
				if err := codec.decode(q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
