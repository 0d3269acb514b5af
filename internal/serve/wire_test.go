package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
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

// decodeWire parses body through the pooled decoder and returns the
// request object (caller inspects fields).
func decodeWire(t *testing.T, body string) *wireReq {
	t.Helper()
	q := newWireReq()
	q.body = append(q.body, body...)
	if err := q.decode(); err != nil {
		t.Fatalf("decode %q: %v", body, err)
	}
	return q
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
	if !reflect.DeepEqual(q.tasks, tasks) {
		t.Fatalf("tasks: got %+v want %+v", q.tasks, tasks)
	}
	if !reflect.DeepEqual(q.reports, reports) {
		t.Fatalf("reports: got %+v want %+v", q.reports, reports)
	}

	// Our own encoder's output decodes identically.
	q2 := newWireReq()
	q2.body = appendStepRequest(q2.body, 11, reports, tasks, true)
	if err := q2.decode(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q2.tasks, q.tasks) || !reflect.DeepEqual(q2.reports, q.reports) ||
		q2.slot != q.slot || q2.close != q.close {
		t.Fatal("own-encoder decode differs from stdlib-encoder decode")
	}
}

// TestWireDecodeTolerance pins the versioning rule: unknown fields of any
// shape are skipped, whitespace is free, field order is irrelevant, and a
// JSON null array means empty.
func TestWireDecodeTolerance(t *testing.T) {
	q := decodeWire(t, ` { "future" : {"a":[1,{"b":"x\"y"}],"c":null} ,
		"close" : true ,
		"tasks" : [ {"ctx":[0.5],"scns":[0],"note":"ignored"} ] ,
		"v2" : [[[]]] } `)
	if !q.close || len(q.tasks) != 1 || q.tasks[0].Ctx[0] != 0.5 || q.tasks[0].SCNs[0] != 0 {
		t.Fatalf("decoded: %+v", q.tasks)
	}
	if q.hasSlot || q.hasReps {
		t.Fatal("phantom fields set")
	}

	q = decodeWire(t, `{"tasks":null,"reports":null,"slot":3}`)
	if len(q.tasks) != 0 || len(q.reports) != 0 || !q.hasTasks || !q.hasReps || q.slot != 3 {
		t.Fatalf("null arrays: %+v", q)
	}

	// An escaped spelling of a known key is treated as unknown, not as the
	// field (the API's keys are plain ASCII).
	q = decodeWire(t, `{"t\\u0061sks":[{"ctx":[9],"scns":[9]}],"slot":1}`)
	if q.hasTasks || len(q.tasks) != 0 || q.slot != 1 {
		t.Fatalf("escaped key not skipped: %+v", q)
	}
}

// TestWireDecodeErrors enumerates malformed bodies: every one must error
// (never panic), and after reset the same pooled object must decode a
// valid body cleanly — no partial state survives.
func TestWireDecodeErrors(t *testing.T) {
	bad := []string{
		``, `   `, `[1,2]`, `"s"`, `42`, `null`,
		`{`, `{"tasks"`, `{"tasks":}`, `{"tasks":[}`,
		`{"tasks":[{"ctx":[0.5,],"scns":[0]}]}`,
		`{"tasks":[{"ctx":[0.5],"scns":[0]}]`,
		`{"tasks":[{"ctx":[0.5],"scns":[0]}]} trailing`,
		`{"tasks":[{"ctx":[0.5],"scns":[0]}]}{}`,
		`{"close":maybe}`, `{"slot":"7"}`, `{"slot":1e}`,
		`{"slot":1,"slot":2}`,
		`{"tasks":[],"tasks":[]}`,
		`{"reports":[{"task":0,"u":1,"v":1,"q":1}],"reports":[]}`,
		`{"reports":[{"task":0,"task":1,"u":1,"v":1,"q":1}]}`,
		`{"tasks":[{"ctx":[1],"ctx":[2],"scns":[0]}]}`,
		`{"x":` + strings.Repeat(`[`, 40) + strings.Repeat(`]`, 40) + `}`,
		`{"tasks":[{"ctx":[0.5],"scns":[0]}],,}`,
		`{"tasks" "x"}`,
	}
	good := `{"slot":5,"reports":[{"task":1,"u":0.5,"v":1,"q":0.25}],"tasks":[{"ctx":[0.125],"scns":[2]}],"close":true}`
	q := newWireReq()
	for _, body := range bad {
		q.reset()
		q.body = append(q.body, body...)
		if err := q.decode(); err == nil {
			t.Errorf("accepted %q", body)
		}
		// Reset-clean: the same object decodes a valid body exactly.
		q.reset()
		q.body = append(q.body, good...)
		if err := q.decode(); err != nil {
			t.Fatalf("after %q: good body rejected: %v", body, err)
		}
		if q.slot != 5 || !q.close || len(q.tasks) != 1 || len(q.reports) != 1 ||
			q.tasks[0].Ctx[0] != 0.125 || q.reports[0].Task != 1 {
			t.Fatalf("after %q: residue in decode: %+v", body, q)
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
// and duplicated-field inputs. Properties: never panics; on success the
// decode is idempotent (same bytes, same result) and the request
// re-encoded as a binary frame decodes DeepEqual; on error a reset
// object decodes a known-good body exactly (no partial mutation leaks
// into the pool).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte(`{"tasks":[{"ctx":[0.5,0.25],"scns":[0,1]}],"close":true}`))
	f.Add([]byte(`{"slot":3,"reports":[{"task":0,"u":0.5,"v":1,"q":0.1}]}`))
	f.Add(appendStepRequest(nil, 7, wireReports(), wireTasks(), true))
	f.Add([]byte(`{"slot":1,"slot":2}`))
	f.Add([]byte(`{"tasks":[{"ctx":[1e309],"scns":[0]}]}`))
	f.Add([]byte(`{"unknown":{"deep":[[[{"x":"\Z"}]]]},"tasks":null}`))
	f.Add([]byte(`{"tasks":[{"ctx":[0.5],"scns":[0]}]`))
	f.Add([]byte{})
	good := []byte(`{"slot":5,"reports":[{"task":1,"u":0.5,"v":1,"q":0.25}],"tasks":[{"ctx":[0.125],"scns":[2]}]}`)

	f.Fuzz(func(t *testing.T, data []byte) {
		q := newWireReq()
		q.body = append(q.body, data...)
		err := q.decode()
		if err == nil {
			// Idempotence: decoding the same bytes on a reset object gives
			// the same request.
			q2 := newWireReq()
			q2.body = append(q2.body, data...)
			if err2 := q2.decode(); err2 != nil {
				t.Fatalf("second decode failed: %v", err2)
			}
			if !reflect.DeepEqual(q.tasks, q2.tasks) || !reflect.DeepEqual(q.reports, q2.reports) ||
				q.slot != q2.slot || q.close != q2.close ||
				q.hasSlot != q2.hasSlot || q.hasTasks != q2.hasTasks || q.hasReps != q2.hasReps {
				t.Fatal("decode not deterministic")
			}
			requireCrossCodec(t, q)
		}
		// Error or not: after reset, the pooled object must decode a valid
		// body with no residue.
		q.reset()
		q.body = append(q.body, good...)
		if err := q.decode(); err != nil {
			t.Fatalf("reset object rejected good body: %v", err)
		}
		if q.slot != 5 || q.close || len(q.tasks) != 1 || len(q.reports) != 1 ||
			q.tasks[0].Ctx[0] != 0.125 || q.tasks[0].SCNs[0] != 2 || q.reports[0].U != 0.5 {
			t.Fatalf("residue after reset: %+v", q)
		}
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
