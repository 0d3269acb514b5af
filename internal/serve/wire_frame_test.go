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
	"slices"
	"testing"

	"lfsc/internal/env"
	"lfsc/internal/trace"
)

// frameFlagsOf returns the request-frame flags naming the sections q
// decoded, so a decoded request can be re-encoded as a frame.
func frameFlagsOf(q *wireReq) byte {
	var f byte
	if q.close {
		f |= frameClose
	}
	if q.hasSlot {
		f |= frameSlot
	}
	if q.hasReps {
		f |= frameReports
	}
	if q.hasTasks {
		f |= frameTasks
	}
	return f
}

// reencodeFrame encodes q's decoded fields as a request frame and decodes
// that frame into a fresh request.
func reencodeFrame(t *testing.T, q *wireReq) *wireReq {
	t.Helper()
	q2 := newWireReq()
	q2.body = appendRequestFrame(q2.body, frameFlagsOf(q), q.slot, q.reports, q.tasks)
	if err := q2.decodeFrame(); err != nil {
		t.Fatalf("re-encoded frame rejected: %v", err)
	}
	return q2
}

// requireCrossCodec is the cross-codec property: a request the JSON
// decoder accepted, re-encoded as a binary frame, decodes DeepEqual.
func requireCrossCodec(t *testing.T, q *wireReq) {
	t.Helper()
	qf := reencodeFrame(t, q)
	if !reflect.DeepEqual(q.tasks, qf.tasks) || !reflect.DeepEqual(q.reports, qf.reports) ||
		q.slot != qf.slot || q.close != qf.close ||
		q.hasSlot != qf.hasSlot || q.hasTasks != qf.hasTasks || q.hasReps != qf.hasReps {
		t.Fatalf("frame re-encoding differs:\n json  %+v\n frame %+v", q, qf)
	}
}

// sameDecoded compares two decoded requests field by field, floats by
// their bits (a frame may carry NaN, which DeepEqual never matches).
func sameDecoded(a, b *wireReq) bool {
	if a.close != b.close || a.slot != b.slot || a.hasSlot != b.hasSlot ||
		a.hasReps != b.hasReps || a.hasTasks != b.hasTasks ||
		len(a.tasks) != len(b.tasks) || len(a.reports) != len(b.reports) {
		return false
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a.tasks {
		if !slices.EqualFunc(a.tasks[i].Ctx, b.tasks[i].Ctx, sameBits) ||
			!slices.Equal(a.tasks[i].SCNs, b.tasks[i].SCNs) {
			return false
		}
	}
	for i := range a.reports {
		x, y := a.reports[i], b.reports[i]
		if x.Task != y.Task || !sameBits(x.U, y.U) || !sameBits(x.V, y.V) || !sameBits(x.Q, y.Q) {
			return false
		}
	}
	return true
}

// TestWireFrameMatchesJSON pins the tentpole's equivalence: the same
// request sent as a frame and as JSON decodes into DeepEqual pooled
// fields, on every data-plane request shape, and frame floats keep their
// exact bits.
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
			qf := newWireReq()
			qf.body = append(qf.body, tc.frame...)
			if err := qf.decodeFrame(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(qj.tasks, qf.tasks) || !reflect.DeepEqual(qj.reports, qf.reports) ||
				qj.slot != qf.slot || qj.close != qf.close || qj.hasSlot != qf.hasSlot ||
				qj.hasReps != qf.hasReps || qj.hasTasks != qf.hasTasks {
				t.Fatalf("frame decode differs from JSON decode:\n json  %+v\n frame %+v", qj, qf)
			}
			if len(tc.frame) >= len(tc.json) {
				t.Errorf("frame (%d B) not smaller than JSON (%d B)", len(tc.frame), len(tc.json))
			}
		})
	}
	t.Run("float-bits", func(t *testing.T) {
		odd := append(slices.Clone(gnarlyFloats), math.NaN(), math.Inf(-1), math.Copysign(0, -1))
		q := newWireReq()
		q.body = appendStepFrame(q.body, 0, nil, []TaskSpec{{Ctx: odd, SCNs: []int{math.MinInt64, -1, math.MaxInt64}}}, false)
		if err := q.decodeFrame(); err != nil {
			t.Fatal(err)
		}
		for i, v := range odd {
			if math.Float64bits(q.tasks[0].Ctx[i]) != math.Float64bits(v) {
				t.Fatalf("ctx[%d]: bits %x, want %x", i, math.Float64bits(q.tasks[0].Ctx[i]), math.Float64bits(v))
			}
		}
		if !slices.Equal(q.tasks[0].SCNs, []int{math.MinInt64, -1, math.MaxInt64}) {
			t.Fatalf("scns: %v", q.tasks[0].SCNs)
		}
	})
}

// goodFrame is the known-good body the error and fuzz tests decode after
// a failure, to prove the reset pooled object carries no residue.
func goodFrame() []byte {
	return appendStepFrame(nil, 5, []TaskReport{{Task: 1, U: 0.5, V: 1, Q: 0.25}},
		[]TaskSpec{{Ctx: []float64{0.125}, SCNs: []int{2}}}, false)
}

func checkGoodFrame(t *testing.T, q *wireReq, after string) {
	t.Helper()
	q.reset()
	q.body = append(q.body, goodFrame()...)
	if err := q.decodeFrame(); err != nil {
		t.Fatalf("after %s: good frame rejected: %v", after, err)
	}
	if q.slot != 5 || q.close || len(q.tasks) != 1 || len(q.reports) != 1 ||
		q.tasks[0].Ctx[0] != 0.125 || q.tasks[0].SCNs[0] != 2 || q.reports[0].U != 0.5 {
		t.Fatalf("after %s: residue in decode: %+v", after, q)
	}
}

// TestWireFrameDecodeErrors enumerates malformed frames: every one must
// error (never panic), and the reset pooled object must then decode a
// good frame exactly.
func TestWireFrameDecodeErrors(t *testing.T) {
	good := goodFrame()
	head := func(flags byte) []byte { return append(frameMagic[:len(frameMagic):len(frameMagic)], flags) }
	bad := map[string][]byte{
		"empty":           {},
		"magic-only":      frameMagic[:],
		"short-magic":     frameMagic[:3],
		"wrong-version":   {'L', 'F', 'B', 2, 0},
		"json":            []byte(`{"tasks":[]}`),
		"unknown-flag":    head(0x10),
		"slot-missing":    head(frameSlot),
		"varint-overflow": append(head(frameSlot), bytes.Repeat([]byte{0xff}, 11)...),
		"reports-short":   append(head(frameReports), 1, 0, 1, 2, 3),
		"task-ctx-short":  append(head(frameTasks), 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"task-scn-short":  append(head(frameTasks), 1, 0, 3, 2),
		"scn-varint-cut":  append(head(frameTasks), 1, 0, 1, 0x80),
		"trailing":        append(slices.Clone(good), 0),
		"truncated":       good[:len(good)-1],
	}
	q := newWireReq()
	for name, body := range bad {
		q.reset()
		q.body = append(q.body, body...)
		if err := q.decodeFrame(); err == nil {
			t.Errorf("%s: accepted % x", name, body)
		}
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
		buf  func(q *wireReq) int // capacity of the buffer the claim targets
	}{
		{"tasks", append(head(frameTasks), huge...), func(q *wireReq) int { return cap(q.offs) }},
		{"reports", append(head(frameSlot|frameReports, 0), huge...), func(q *wireReq) int { return cap(q.reports) }},
		{"ctx", append(head(frameTasks, 1), huge...), func(q *wireReq) int { return cap(q.ctxBuf) }},
		{"scns", append(head(frameTasks, 1, 0), huge...), func(q *wireReq) int { return cap(q.scnBuf) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := newWireReq()
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

// FuzzWireDecodeBinary hammers the frame decoder. Properties: never
// panics; buffers stay linear in the body size (a claimed count never
// outruns the bytes behind it); on success the decode is deterministic
// and re-encoding the decoded fields as a frame decodes to the same
// request; on error or not, a reset object decodes a known-good frame
// with no residue; and input the JSON decoder accepts satisfies the
// cross-codec property.
func FuzzWireDecodeBinary(f *testing.F) {
	f.Add(appendStepFrame(nil, 7, wireReports(), wireTasks(), true))
	f.Add(appendStepFrame(nil, 0, nil, wireTasks(), false))
	f.Add(appendReportFrame(nil, 3, wireReports()))
	f.Add(appendRequestFrame(nil, frameFlags, -1, nil, nil))
	f.Add(append(append(frameMagic[:len(frameMagic):len(frameMagic)], frameTasks), binary.AppendUvarint(nil, 1<<32)...))
	f.Add(append(append(frameMagic[:len(frameMagic):len(frameMagic)], frameSlot|frameReports, 0), binary.AppendUvarint(nil, 1<<32)...))
	f.Add([]byte(`{"tasks":[{"ctx":[0.5],"scns":[0]}]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		q := newWireReq()
		q.body = append(q.body, data...)
		err := q.decodeFrame()
		if total := cap(q.offs) + cap(q.reports) + cap(q.ctxBuf) + cap(q.scnBuf); total > 4*len(data)+64 {
			t.Fatalf("%d-byte body grew buffers to %d elements", len(data), total)
		}
		if err == nil {
			q2 := newWireReq()
			q2.body = append(q2.body, data...)
			if err2 := q2.decodeFrame(); err2 != nil || !sameDecoded(q, q2) {
				t.Fatalf("decode not deterministic: %v", err2)
			}
			if !sameDecoded(q, reencodeFrame(t, q)) {
				t.Fatal("re-encoded frame decodes differently")
			}
		}
		checkGoodFrame(t, q, "fuzz input")
		// The same bytes as JSON: when the JSON decoder accepts them, the
		// cross-codec property must hold.
		qj := newWireReq()
		qj.body = append(qj.body, data...)
		if qj.decode() == nil {
			requireCrossCodec(t, qj)
		}
	})
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
// by a plain net/http + encoding/json client and an identically seeded
// daemon driven by the binary Client, batched (/v1/step) and unbatched
// (/v1/submit + /v1/report), must agree on every slot's assignment and
// on the hex bits of the client and daemon cumulative rewards.
func TestLockstepJSONClientMatchesBinary(t *testing.T) {
	const T = 150
	sc := testScenario(T, 33)
	run := func(useStep, useJSON bool) ([][]int, float64, float64) {
		eng, srv, client := bootDaemon(t, sc, nil)
		defer srv.Close()
		rec := &recordConn{Conn: client}
		if useJSON {
			rec.Conn = &jsonConn{base: "http://" + srv.Addr()}
		}
		rep, err := NewReplayer(sc)
		if err != nil {
			t.Fatal(err)
		}
		rep.SetUseStep(useStep)
		st, err := rep.Run(rec, 0, T, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng.Stop()
		if st.ShedSlots != 0 || eng.Slot() != T {
			t.Fatalf("step=%v json=%v: shed %d, daemon at slot %d", useStep, useJSON, st.ShedSlots, eng.Slot())
		}
		return rec.assigned, rep.CumReward(), eng.CumReward()
	}
	for _, useStep := range []bool{true, false} {
		binAsg, binCli, binDae := run(useStep, false)
		jsonAsg, jsonCli, jsonDae := run(useStep, true)
		if len(binAsg) < T/2 || !reflect.DeepEqual(binAsg, jsonAsg) {
			t.Fatalf("step=%v: per-slot assignments differ between binary and JSON clients (%d vs %d slots)",
				useStep, len(binAsg), len(jsonAsg))
		}
		for _, p := range [][2]float64{{binCli, jsonCli}, {binDae, jsonDae}, {binCli, binDae}} {
			if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
				t.Fatalf("step=%v: cum reward %x != %x (binary client %x daemon %x, JSON client %x daemon %x)",
					useStep, p[0], p[1], binCli, binDae, jsonCli, jsonDae)
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
// daemon-side decode into a pooled request.
func BenchmarkWireCodec(b *testing.B) {
	sc := ReplayScenario{
		Synthetic: trace.DefaultSyntheticConfig(),
		EnvCfg:    env.DefaultConfig(30, 27),
		Capacity:  20, Alpha: 15, Beta: 27, H: 3, T: 4, Seed: 42,
	}
	rep, err := NewReplayer(sc)
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
			for i := 0; i < b.N; i++ {
				out = codec.encode(out[:0])
			}
		})
		b.Run("decode/"+codec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			q := newWireReq()
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
