package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lfsc/internal/hypercube"
	"lfsc/internal/task"
)

// gnarlyFloats are values whose textual round trip is easy to get wrong:
// the encoder must emit them so ParseFloat returns the identical bits
// (the three-way reward identity depends on exact wire round trips).
var gnarlyFloats = []float64{
	0, 1, 0.1, 1.0 / 3.0, math.Pi, 1e-308, 5e-324, 0.9999999999999999,
	2.2250738585072014e-308, 0.30000000000000004,
}

func wireTasks() []TaskSpec {
	return []TaskSpec{
		{Ctx: []float64{0.1, 1.0 / 3.0, 0.9999999999999999}, SCNs: []int{0, 2}},
		{Ctx: []float64{0, 1, 5e-324}, SCNs: []int{1}},
		{Ctx: []float64{math.Pi / 4, 0.5, 0.30000000000000004}, SCNs: []int{3, 0, 1}},
	}
}

func wireReports() []TaskReport {
	return []TaskReport{
		{Task: 0, U: 0.7071067811865476, V: 1, Q: 0.1},
		{Task: 2, U: 1.0 / 3.0, V: 0, Q: 2.2250738585072014e-308},
	}
}

// testShape is the request shape the codec tests decode against: the
// three context dims and four SCNs of wireTasks, h=3, KMax=8 (so at most
// 32 tasks or reports per request).
var testShape = func() *reqShape {
	part, err := hypercube.New(3, 3)
	if err != nil {
		panic(err)
	}
	sh := newReqShape(3, 4, 8, part)
	return &sh
}()

// decodeWire parses body through the pooled decoder and returns the
// request object (caller inspects fields).
func decodeWire(t *testing.T, body string) *wireReq {
	t.Helper()
	q := newWireReq(testShape)
	q.body = append(q.body, body...)
	if err := q.decode(); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return q
}

// packed is the packed form of a task list, computed independently of
// the acceptor: hypercube cells, the flat SCN lists with their span ends,
// and the per-SCN counts.
type packed struct {
	cells  []int
	scns   []int
	ends   []int32
	counts []int
}

func packedOf(sh *reqShape, tasks []TaskSpec) packed {
	pk := packed{counts: make([]int, sh.scns)}
	for _, sp := range tasks {
		pk.cells = append(pk.cells, sh.part.Index(task.Context(sp.Ctx)))
		pk.scns = append(pk.scns, sp.SCNs...)
		pk.ends = append(pk.ends, int32(len(pk.scns)))
		for _, m := range sp.SCNs {
			pk.counts[m]++
		}
	}
	return pk
}

// requirePacked checks q's accepted tasks against want.
func requirePacked(t *testing.T, q *wireReq, want packed) {
	t.Helper()
	if !slices.Equal(q.cells, want.cells) || !slices.Equal(q.scns, want.scns) ||
		!slices.Equal(q.ends, want.ends) || !slices.Equal(q.counts, want.counts) {
		t.Fatalf("packed tasks: got cells %v scns %v ends %v counts %v, want %+v",
			q.cells, q.scns, q.ends, q.counts, want)
	}
}

// goodBody is the known-good JSON body the error and fuzz tests decode
// after a failure, to prove the reset pooled object carries no residue.
const goodBody = `{"slot":5,"reports":[{"task":1,"u":0.5,"v":1,"q":0.25}],"tasks":[{"ctx":[0.125,0.5,0.875],"scns":[2]}],"close":true}`

// goodTask is goodBody's task; requireGood checks a decode of it.
var goodTask = []TaskSpec{{Ctx: []float64{0.125, 0.5, 0.875}, SCNs: []int{2}}}

func requireGood(t *testing.T, q *wireReq, close bool, after string) {
	t.Helper()
	if q.slot != 5 || q.close != close || len(q.reports) != 1 || q.reports[0].Task != 1 || q.reports[0].U != 0.5 {
		t.Fatalf("after %s: residue in decode: %+v", after, q)
	}
	requirePacked(t, q, packedOf(testShape, goodTask))
}

// TestWireEncodersRoundTrip pins the hand-rolled encoders against
// encoding/json: everything the client encodes, the stdlib must decode
// back to identical values (so third-party clients speaking ordinary
// JSON interoperate bit-exactly), and everything the stdlib encodes, the
// pooled decoder must accept.
func TestWireEncodersRoundTrip(t *testing.T) {
	tasks := wireTasks()
	reports := wireReports()

	t.Run("submit-request", func(t *testing.T) {
		b := appendStepRequest(nil, 0, nil, tasks, true)
		var got SubmitRequest
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("stdlib rejects %s: %v", b, err)
		}
		if !reflect.DeepEqual(got.Tasks, tasks) || !got.Close {
			t.Fatalf("round trip mismatch: %+v", got)
		}
	})
	t.Run("report-request", func(t *testing.T) {
		b := appendReportRequest(nil, 42, reports)
		var got ReportRequest
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("stdlib rejects %s: %v", b, err)
		}
		if got.Slot != 42 || !reflect.DeepEqual(got.Reports, reports) {
			t.Fatalf("round trip mismatch: %+v", got)
		}
	})
	t.Run("step-request", func(t *testing.T) {
		b := appendStepRequest(nil, 7, reports, tasks, true)
		var got StepRequest
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("stdlib rejects %s: %v", b, err)
		}
		if got.Slot != 7 || !got.Close ||
			!reflect.DeepEqual(got.Reports, reports) || !reflect.DeepEqual(got.Tasks, tasks) {
			t.Fatalf("round trip mismatch: %+v", got)
		}
		// Empty report part is omitted entirely.
		b = appendStepRequest(nil, 0, nil, tasks, false)
		if bytes.Contains(b, []byte("reports")) || bytes.Contains(b, []byte("slot")) {
			t.Fatalf("empty report part encoded: %s", b)
		}
	})
	t.Run("responses", func(t *testing.T) {
		b := appendSubmitResponse(nil, 3, 5, []int{0, -1, 2})
		var sr SubmitResponse
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Slot != 3 || sr.Base != 5 || !reflect.DeepEqual(sr.Assigned, []int{0, -1, 2}) {
			t.Fatalf("submit response: %+v", sr)
		}
		b = appendStepResponse(nil, 4, `bad "report"`+"\n", 9, 0, []int{1})
		var st StepResponse
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("stdlib rejects %s: %v", b, err)
		}
		if st.Accepted != 4 || st.ReportError != "bad \"report\"\n" || st.Slot != 9 {
			t.Fatalf("step response: %+v", st)
		}
		b = appendErrorBody(nil, "serve: shed: task queue full", 2)
		var eb errorBody
		if err := json.Unmarshal(b, &eb); err != nil {
			t.Fatal(err)
		}
		if eb.Error != "serve: shed: task queue full" || eb.Accepted != 2 {
			t.Fatalf("error body: %+v", eb)
		}
	})
	t.Run("float-bits", func(t *testing.T) {
		for _, v := range gnarlyFloats {
			b := appendFloat(nil, v)
			var got float64
			if err := json.Unmarshal(b, &got); err != nil {
				t.Fatalf("%v -> %s: %v", v, b, err)
			}
			if math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%v: bits drift through %s", v, b)
			}
		}
	})
}

// TestWireDecodeRequests pins the pooled decoder against stdlib-encoded
// request bodies — the interop direction a foreign client exercises.
func TestWireDecodeRequests(t *testing.T) {
	tasks := wireTasks()
	reports := wireReports()
	body, err := json.Marshal(&StepRequest{Slot: 11, Reports: reports, Tasks: tasks, Close: true})
	if err != nil {
		t.Fatal(err)
	}
	q := decodeWire(t, string(body))
	if q.slot != 11 || !q.hasSlot || !q.close || !q.hasTasks || !q.hasReps {
		t.Fatalf("flags: %+v", q)
	}
	requirePacked(t, q, packedOf(testShape, tasks))
	if !reflect.DeepEqual(q.reports, reports) {
		t.Fatalf("reports: got %+v want %+v", q.reports, reports)
	}

	// Our own encoder's output decodes identically.
	q2 := newWireReq(testShape)
	q2.body = appendStepRequest(q2.body, 11, reports, tasks, true)
	if err := q2.decode(); err != nil {
		t.Fatal(err)
	}
	if !samePacked(q2, q) {
		t.Fatal("own-encoder decode differs from stdlib-encoder decode")
	}

	// The in-process acceptor packs the same specs identically.
	q3 := newWireReq(testShape)
	if err := q3.acceptSpecs(tasks); err != nil {
		t.Fatal(err)
	}
	requirePacked(t, q3, packedOf(testShape, tasks))
}

// TestWireDecodeTolerance pins the versioning rule: unknown fields of any
// shape are skipped, whitespace is free, field order is irrelevant, and a
// JSON null array means empty.
func TestWireDecodeTolerance(t *testing.T) {
	q := decodeWire(t, ` { "future" : {"a":[1,{"b":"x\"y"}],"c":null} ,
		"close" : true ,
		"tasks" : [ {"scns":[ 0 , 3 ],"note":"ignored", "ctx":[0.5, 0.25,1]} ] ,
		"v2" : [[[]]] } `)
	if !q.close {
		t.Fatal("close not decoded")
	}
	requirePacked(t, q, packedOf(testShape, []TaskSpec{{Ctx: []float64{0.5, 0.25, 1}, SCNs: []int{0, 3}}}))
	if q.hasSlot || q.hasReps {
		t.Fatal("phantom fields set")
	}

	q = decodeWire(t, `{"tasks":null,"reports":null,"slot":3}`)
	if len(q.cells) != 0 || len(q.reports) != 0 || !q.hasTasks || !q.hasReps || q.slot != 3 {
		t.Fatalf("null arrays: %+v", q)
	}

	// An escaped spelling of a known key is treated as unknown, not as the
	// field (the API's keys are plain ASCII).
	q = decodeWire(t, `{"t\\u0061sks":[{"ctx":[9],"scns":[9]}],"slot":1}`)
	if q.hasTasks || len(q.cells) != 0 || q.slot != 1 {
		t.Fatalf("escaped key not skipped: %+v", q)
	}
}

// TestWireDecodeErrors enumerates malformed bodies and bodies that do not
// fit the shape: every one must error (never panic) — shape violations as
// errInvalid, with the envelope's exact text — and after reset the same
// pooled object must decode a valid body cleanly: no partial state
// survives.
func TestWireDecodeErrors(t *testing.T) {
	const ctx = `"ctx":[0.5,0.5,0.5]`
	bad := []string{
		``, `   `, `[1,2]`, `"s"`, `42`, `null`,
		`{`, `{"tasks"`, `{"tasks":}`, `{"tasks":[}`,
		`{"tasks":[{"ctx":[0.5,0.5,0.5,],"scns":[0]}]}`,
		`{"tasks":[{` + ctx + `,"scns":[0]}]`,
		`{"tasks":[{` + ctx + `,"scns":[0]}]} trailing`,
		`{"tasks":[{` + ctx + `,"scns":[0]}]}{}`,
		`{"close":maybe}`, `{"slot":"7"}`, `{"slot":1e}`,
		`{"slot":1,"slot":2}`,
		`{"tasks":[],"tasks":[]}`,
		`{"reports":[{"task":0,"u":1,"v":1,"q":1}],"reports":[]}`,
		`{"reports":[{"task":0,"task":1,"u":1,"v":1,"q":1}]}`,
		`{"tasks":[{` + ctx + `,` + ctx + `,"scns":[0]}]}`,
		`{"tasks":[{` + ctx + `,"scns":[0],"scns":[1]}]}`,
		`{"x":` + strings.Repeat(`[`, 40) + strings.Repeat(`]`, 40) + `}`,
		`{"tasks":[{` + ctx + `,"scns":[0]}],,}`,
		`{"tasks" "x"}`,
	}
	invalid := map[string]string{
		`{"tasks":[{"ctx":[0.5],"scns":[0]}]}`:                                                         "serve: task 0: context has 1 dims, want 3",
		`{"tasks":[{"scns":[0]}]}`:                                                                     "serve: task 0: context has 0 dims, want 3",
		`{"tasks":[{"ctx":[0,0,0,0,0],"scns":[0]}]}`:                                                   "serve: task 0: context has 5 dims, want 3",
		`{"tasks":[{"ctx":[0.5,1.5,0],"scns":[0]}]}`:                                                   "serve: task 0: context outside [0,1]",
		`{"tasks":[{` + ctx + `,"scns":[]}]}`:                                                          "serve: task 0: no visible SCNs",
		`{"tasks":[{` + ctx + `,"scns":[0]},{` + ctx + `}]}`:                                           "serve: task 1: no visible SCNs",
		`{"tasks":[{"scns":[4],` + ctx + `}]}`:                                                         "serve: task 0: SCN 4 out of range",
		`{"tasks":[{` + ctx + `,"scns":[-1]}]}`:                                                        "serve: task 0: SCN -1 out of range",
		`{"tasks":[{` + ctx + `,"scns":[1,3,1]}]}`:                                                     "serve: task 0 lists SCN 1 twice",
		`{"tasks":[` + strings.Repeat(`{`+ctx+`,"scns":[2]},`, 8) + `{` + ctx + `,"scns":[0,2]}]}`:     "serve: submission exceeds KMax=8 for SCN 2",
		`{"tasks":[` + strings.Repeat(`{`+ctx+`,"scns":[0,1,2,3]},`, 8) + `{` + ctx + `,"scns":[3]}]}`: "serve: submission exceeds KMax=8 for SCN 3",
		// SCNs×KMax tasks fill every SCN; one more trips KMax.
		`{"tasks":[` + strings.Repeat(`{`+ctx+`,"scns":[0]},{`+ctx+`,"scns":[1]},{`+ctx+`,"scns":[2]},{`+ctx+`,"scns":[3]},`, 8) + `{` + ctx + `,"scns":[0]}]}`: "serve: submission exceeds KMax=8 for SCN 0",
		`{"reports":[` + strings.Repeat(`{},`, 32) + `{}]}`: "serve: more than SCNs×KMax=32 reports in one request",
	}
	q := newWireReq(testShape)
	check := func(body string) error {
		q.reset()
		q.body = append(q.body, body...)
		err := q.decode()
		// Reset-clean: the same object decodes a valid body exactly.
		q.reset()
		q.body = append(q.body, goodBody...)
		if err := q.decode(); err != nil {
			t.Fatalf("after %q: good body rejected: %v", body, err)
		}
		requireGood(t, q, true, body)
		return err
	}
	for _, body := range bad {
		if err := check(body); err == nil {
			t.Errorf("accepted %q", body)
		} else if _, ok := err.(errInvalid); ok {
			t.Errorf("%q: malformed body reported as a shape violation: %v", body, err)
		}
	}
	for body, want := range invalid {
		err := check(body)
		if _, ok := err.(errInvalid); !ok || err.Error() != want {
			t.Errorf("%q: got %v (%T), want errInvalid %q", body, err, err, want)
		}
	}
}

// TestWireResponseParsers covers the client-side parsers — the reply
// frames of all three endpoints and the JSON step reply and error
// envelope — including Assigned reuse shrinking from a larger previous
// response.
func TestWireResponseParsers(t *testing.T) {
	q := &wireReq{frame: true}
	var sr SubmitResponse
	q.replySubmit(2, 4, []int{3, -1, 0, 5})
	if err := parseSubmitFrame(q.out, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Slot != 2 || sr.Base != 4 || !reflect.DeepEqual(sr.Assigned, []int{3, -1, 0, 5}) {
		t.Fatalf("%+v", sr)
	}
	q.replySubmit(3, 0, []int{1})
	if err := parseSubmitFrame(q.out, &sr); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sr.Assigned, []int{1}) {
		t.Fatalf("reused Assigned not truncated: %v", sr.Assigned)
	}

	var rr ReportResponse
	q.replyReport(7)
	if err := parseReportFrame(q.out, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Accepted != 7 {
		t.Fatalf("%+v", rr)
	}

	st := StepResponse{ReportError: "stale"}
	q.replyStep(2, "", 9, 0, []int{-1, 4})
	if err := parseStepFrame(q.out, &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 2 || st.ReportError != "" || st.Slot != 9 || !reflect.DeepEqual(st.Assigned, []int{-1, 4}) {
		t.Fatalf("%+v", st)
	}
	q.replyStep(0, `late "slot"`, 1, 0, nil)
	if err := parseStepFrame(q.out, &st); err != nil {
		t.Fatal(err)
	}
	if st.ReportError != `late "slot"` || len(st.Assigned) != 0 {
		t.Fatalf("%+v", st)
	}
	// A JSON reply, a truncated frame, and trailing bytes are all refused.
	for _, b := range [][]byte{[]byte(`{"slot":1}`), q.out[:len(q.out)-1], append(q.out, 0)} {
		if err := parseStepFrame(b, &st); err == nil {
			t.Fatalf("parseStepFrame accepted %q", b)
		}
	}

	st = StepResponse{ReportError: "stale"}
	if err := parseStepResponse([]byte(`{"accepted":2,"slot":9,"base":0,"assigned":[-1,4]}`), &st); err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 2 || st.ReportError != "" || !reflect.DeepEqual(st.Assigned, []int{-1, 4}) {
		t.Fatalf("%+v", st)
	}
	if err := parseStepResponse([]byte(`{"accepted":0,"report_error":"late \"slot\"","slot":1,"base":0,"assigned":[]}`), &st); err != nil {
		t.Fatal(err)
	}
	if st.ReportError != `late "slot"` {
		t.Fatalf("report_error: %q", st.ReportError)
	}

	msg, acc, ok := parseErrorBody([]byte(`{"error":"serve: shed: task queue full","accepted":3}`))
	if !ok || msg != "serve: shed: task queue full" || acc != 3 {
		t.Fatalf("%q %d %v", msg, acc, ok)
	}
	if _, _, ok := parseErrorBody([]byte(`not json`)); ok {
		t.Fatal("garbage accepted as error envelope")
	}
	if _, _, ok := parseErrorBody([]byte(`{"accepted":1}`)); ok {
		t.Fatal("envelope without error accepted")
	}
}

// FuzzWireDecode hammers the pooled decoder with malformed, truncated,
// duplicated-field and out-of-shape inputs. Properties: never panics; on
// success the decode is idempotent (same bytes, same packed result); the
// decode buffers stay within the shape bound; the request as
// encoding/json reads it gives the same verdict and, on accept, the same
// packed form as JSON and as a binary frame; and on error a reset object
// decodes a known-good body exactly (no partial mutation leaks into the
// pool).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"tasks":[{"ctx":[0.5,0.25,0],"scns":[0,1]}],"close":true}`))
	f.Add([]byte(`{"slot":3,"reports":[{"task":0,"u":0.5,"v":1,"q":0.1}]}`))
	f.Add(appendStepRequest(nil, 7, wireReports(), wireTasks(), true))
	f.Add([]byte(`{"slot":1,"slot":2}`))
	f.Add([]byte(`{"tasks":[{"ctx":[1e309],"scns":[0]}]}`))
	f.Add([]byte(`{"tasks":[{"ctx":[0.5,0.5,0.5],"scns":[3,3]}]}`))
	f.Add([]byte(`{"tasks":[{"scns":[2],"ctx":[0.5,0.5,0.5,0.5]}]}`))
	f.Add([]byte(`{"unknown":{"deep":[[[{"x":"\Z"}]]]},"tasks":null}`))
	f.Add([]byte(`{"tasks":[{"ctx":[0.5],"scns":[0]}]`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		q := newWireReq(testShape)
		q.body = append(q.body, data...)
		err := q.decode()
		requireShapeBound(t, q)
		if err == nil {
			// Idempotence: decoding the same bytes on a reset object gives
			// the same request.
			q2 := newWireReq(testShape)
			q2.body = append(q2.body, data...)
			if err2 := q2.decode(); err2 != nil {
				t.Fatalf("second decode failed: %v", err2)
			}
			if !samePacked(q, q2) {
				t.Fatal("decode not deterministic")
			}
		}
		requireCrossCodecJSON(t, data)
		// Error or not: after reset, the pooled object must decode a valid
		// body with no residue.
		q.reset()
		q.body = append(q.body, goodBody...)
		if err := q.decode(); err != nil {
			t.Fatalf("reset object rejected good body: %v", err)
		}
		requireGood(t, q, true, "fuzz input")
	})
}

// TestServeWireZeroAlloc is the tentpole pin: steady-state request
// handling on the batched step path allocates nothing — not in the
// handler (decode, validate, dispatch, encode), not in the engine's
// Decide/Observe slot work it blocks on, and not in the client-side
// encode/parse/realise around it — in either request encoding.
// AllocsPerRun counts mallocs across all goroutines, so the engine
// goroutine is inside the measurement.
func TestServeWireZeroAlloc(t *testing.T) {
	pinZeroAlloc(t, nil)
}

// pinZeroAlloc runs the step harness to steady state once per encoding
// (JSON, binary frames) on an engine adjusted by mutate and requires 0
// allocations per request.
func pinZeroAlloc(t *testing.T, mutate func(*Config)) {
	for _, codec := range []struct {
		name  string
		frame bool
	}{{"json", false}, {"binary", true}} {
		t.Run(codec.name, func(t *testing.T) {
			h, err := newStepHarness(1<<20, 9, codec.frame, mutate)
			if err != nil {
				t.Fatal(err)
			}
			defer h.eng.Stop()
			// Warm every pooled buffer across the workload's size range.
			for i := 0; i < 400; i++ {
				if err := h.step(); err != nil {
					t.Fatal(err)
				}
			}
			var stepErr error
			allocs := testing.AllocsPerRun(200, func() {
				if err := h.step(); err != nil && stepErr == nil {
					stepErr = err
				}
			})
			if stepErr != nil {
				t.Fatal(stepErr)
			}
			if allocs != 0 {
				t.Fatalf("steady-state step = %v allocs/request, want 0", allocs)
			}
		})
	}
}

// TestLockstepUnbatchedMatchesStep replays the same scenario through the
// batched /v1/step path and the classic submit+report pair against two
// identically seeded daemons: cumulative rewards (client and daemon
// side) must be bit-identical — the batched pipeline changes when work
// overlaps, never what is computed.
func TestLockstepUnbatchedMatchesStep(t *testing.T) {
	const T = 150
	sc := testScenario(T, 21)
	run := func(useStep bool) (float64, float64) {
		eng, srv, client := bootDaemon(t, sc, nil)
		defer srv.Close()
		rep, err := NewReplayer(sc)
		if err != nil {
			t.Fatal(err)
		}
		rep.SetUseStep(useStep)
		if _, err := rep.Run(client, 0, T, nil); err != nil {
			t.Fatal(err)
		}
		eng.Stop()
		if eng.Slot() != T {
			t.Fatalf("useStep=%v: daemon at slot %d, want %d", useStep, eng.Slot(), T)
		}
		return rep.CumReward(), eng.CumReward()
	}
	stepCli, stepDae := run(true)
	plainCli, plainDae := run(false)
	if math.Float64bits(stepCli) != math.Float64bits(plainCli) {
		t.Fatalf("client cum reward: step %x != plain %x", stepCli, plainCli)
	}
	if math.Float64bits(stepDae) != math.Float64bits(plainDae) {
		t.Fatalf("daemon cum reward: step %x != plain %x", stepDae, plainDae)
	}
	if math.Float64bits(stepCli) != math.Float64bits(stepDae) {
		t.Fatalf("client %x != daemon %x", stepCli, stepDae)
	}
}
