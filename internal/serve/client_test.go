package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientStatsRejectsNon200: a non-200 /v1/stats reply whose body is
// a JSON object (the daemon's error envelope, or a proxy's) is an error
// carrying the status and the envelope's message, never a zero Stats
// that would restart `lfscload -resume` at slot 0.
func TestClientStatsRejectsNon200(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, `{"error":"down"}`) //nolint:errcheck
	}))
	defer srv.Close()
	st, err := NewClient(srv.Listener.Addr().String()).Stats()
	if err == nil {
		t.Fatalf("503 reply gave %+v and no error", st)
	}
	if want := "serve client: stats: 503: down"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestClientReplyBounded: a peer on the daemon's address cannot make the
// client buffer without limit. A reply body of maxWireBody bytes is
// read, whether it arrives chunked or with a Content-Length, and one
// byte more fails every call, Stats included.
func TestClientReplyBounded(t *testing.T) {
	var size atomic.Int64
	var withLength atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		n := int(size.Load())
		if withLength.Load() {
			w.Header().Set("Content-Length", strconv.Itoa(n))
		}
		head := `{"slot":7}`
		io.WriteString(w, head) //nolint:errcheck
		pad := bytes.Repeat([]byte{' '}, 64<<10)
		for rest := n - len(head); rest > 0; rest -= len(pad) {
			if _, err := w.Write(pad[:min(rest, len(pad))]); err != nil {
				return
			}
		}
	}))
	defer srv.Close()
	client := NewClient(srv.Listener.Addr().String())
	for _, length := range []bool{false, true} {
		withLength.Store(length)
		size.Store(maxWireBody)
		if st, err := client.Stats(); err != nil || st.Slot != 7 {
			t.Fatalf("content-length %v: %d-byte reply: %+v, %v", length, maxWireBody, st, err)
		}
		size.Store(maxWireBody + 1)
		_, err := client.Stats()
		var resp StepResponse
		stepErr := client.StepInto(0, nil, []TaskSpec{{Ctx: []float64{0.5, 0.5, 0.5}, SCNs: []int{0}}}, true, &resp)
		for _, err := range []error{err, stepErr} {
			if err == nil || !strings.Contains(err.Error(), "read: reply body over") {
				t.Fatalf("content-length %v: %d-byte reply: %v, want the reply bound", length, maxWireBody+1, err)
			}
		}
	}
}

// TestClientRedialsConnClosedWhileIdle: a pooled connection the daemon
// closed while it sat idle fails before the first reply byte, so the
// daemon never read the request; the client redials once and resends,
// and the replay stays bit-identical to an uninterrupted one. While the
// daemon has keep-alives off, every reply says Connection: close and the
// client dials for the next request instead of reusing the connection.
func TestClientRedialsConnClosedWhileIdle(t *testing.T) {
	const T = 60
	sc := testScenario(T, 5)
	wantDaemon, wantClient := runLockstep(t, sc, 1)

	eng, srv, client := bootDaemon(t, sc, nil)
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	steps := func(n int, wantNew, wantReused uint64) {
		t.Helper()
		for range n {
			if res, err := rep.Step(client); err != nil || res.Shed {
				t.Fatalf("slot %d: shed %v: %v", res.Slot, res.Shed, err)
			}
		}
		if created, reused := client.ConnStats(); created != wantNew || reused != wantReused {
			t.Fatalf("after slot %d: %d connections created, %d reused; want %d, %d",
				rep.Slot(), created, reused, wantNew, wantReused)
		}
	}
	steps(20, 1, 19)
	srv.srv.SetKeepAlivesEnabled(false)
	steps(1, 2, 20) // the pooled connection is dead: one redial
	steps(5, 7, 20) // Connection: close on every reply
	srv.srv.SetKeepAlivesEnabled(true)
	steps(T-26, 8, 20+T-27)
	if err := rep.Flush(client); err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	if d, c := eng.CumReward(), rep.CumReward(); math.Float64bits(d) != math.Float64bits(wantDaemon) ||
		math.Float64bits(c) != math.Float64bits(wantClient) {
		t.Fatalf("cum reward daemon %x client %x, uninterrupted run %x %x", d, c, wantDaemon, wantClient)
	}
}

// scriptedPeer is an HTTP/1.1 peer on a raw TCP listener. It reads each
// request, counts it and then, by the request's position across all
// connections, replies ("ok": a /v1/report reply frame), closes after
// the status line ("cut") or closes without a reply ("drop", also the
// default past the script).
type scriptedPeer struct {
	ln       net.Listener
	script   []string
	requests atomic.Int32

	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup
}

func startScriptedPeer(t *testing.T, script ...string) *scriptedPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &scriptedPeer{ln: ln, script: script}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns = append(p.conns, nc)
			p.mu.Unlock()
			p.wg.Add(1)
			go p.serve(nc)
		}
	}()
	return p
}

func (p *scriptedPeer) serve(nc net.Conn) {
	defer p.wg.Done()
	defer nc.Close()
	br := bufio.NewReader(nc)
	for {
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return
		}
		act := "drop"
		if n := int(p.requests.Add(1)) - 1; n < len(p.script) {
			act = p.script[n]
		}
		switch act {
		case "ok":
			body := appendVarint(append([]byte(nil), frameMagic[:]...), 1)
			fmt.Fprintf(nc, "HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s", frameContentType, len(body), body)
		case "cut":
			io.WriteString(nc, "HTTP/1.1 200 OK\r\n") //nolint:errcheck
			return
		default:
			return
		}
	}
}

// close stops the listener, ends every connection and waits for the
// peer's goroutines.
func (p *scriptedPeer) close() {
	p.ln.Close()
	p.mu.Lock()
	for _, nc := range p.conns {
		nc.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// TestClientResendsOnlyUnansweredPooledRequests pins the resend rule: a
// request on a pooled connection that ends before the first reply byte
// is sent once more on a new connection; a reply cut after its status
// line, a second failure, or a failure on a new connection is returned
// and the request never sent again.
func TestClientResendsOnlyUnansweredPooledRequests(t *testing.T) {
	for _, tc := range []struct {
		name     string
		script   []string
		wantOK   []bool // per call
		requests int32  // as the peer counted them
		created  uint64
		reused   uint64
	}{
		{"cut after status line", []string{"ok", "cut"}, []bool{true, false}, 2, 1, 1},
		{"pooled conn dropped", []string{"ok", "drop", "ok"}, []bool{true, true}, 3, 2, 1},
		{"resend dropped too", []string{"ok", "drop", "drop"}, []bool{true, false}, 3, 2, 1},
		{"new conn dropped", []string{"drop"}, []bool{false}, 1, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := startScriptedPeer(t, tc.script...)
			defer p.close()
			client := NewClient(p.ln.Addr().String())
			req := &ReportRequest{Slot: 1, Reports: []TaskReport{{Task: 0, U: 0.5, V: 1, Q: 1}}}
			for i, wantOK := range tc.wantOK {
				resp, err := client.Report(req)
				if ok := err == nil && resp.Accepted == 1; ok != wantOK {
					t.Fatalf("call %d: %+v, %v; want success %v", i, resp, err, wantOK)
				}
			}
			if n := p.requests.Load(); n != tc.requests {
				t.Fatalf("peer read %d requests, want %d", n, tc.requests)
			}
			if created, reused := client.ConnStats(); created != tc.created || reused != tc.reused {
				t.Fatalf("%d connections created, %d reused; want %d, %d", created, reused, tc.created, tc.reused)
			}
		})
	}
}

// TestClientStoppedDaemonErrors: a call to a daemon that has gone away
// returns an error instead of hanging. A stopped engine answers with an
// error status; a closed server fails the pooled connection, refuses its
// one redial, and the call returns.
func TestClientStoppedDaemonErrors(t *testing.T) {
	sc := testScenario(50, 3)
	eng, srv, client := bootDaemon(t, sc, nil)
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	for range 5 {
		if _, err := rep.Step(client); err != nil {
			t.Fatal(err)
		}
	}
	eng.Stop()
	for _, stage := range []string{"engine stopped", "server closed"} {
		if stage == "server closed" {
			srv.Close()
		}
		start := time.Now()
		if _, err := rep.Step(client); err == nil {
			t.Fatalf("%s: step succeeded", stage)
		}
		if el := time.Since(start); el > 5*time.Second {
			t.Fatalf("%s: step took %v to fail", stage, el)
		}
	}
}

// TestClientConcurrentCallers: goroutines sharing one Client each get
// the reply to their own request, so no two calls in flight share a
// connection, and the connections they open are reused from the idle
// pool. The peer echoes each request's body length, distinct for every
// call. `make client-smoke` runs it under -race -count=10.
func TestClientConcurrentCallers(t *testing.T) {
	var mu sync.Mutex
	remotes := map[string]bool{}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		mu.Lock()
		remotes[r.RemoteAddr] = true
		mu.Unlock()
		w.Header().Set("Content-Type", frameContentType)
		w.Write(appendVarint(append([]byte(nil), frameMagic[:]...), len(body))) //nolint:errcheck
	}))
	defer srv.Close()
	client := NewClient(srv.Listener.Addr().String())

	const workers, calls = 8, 40
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				req := &ReportRequest{Slot: w, Reports: make([]TaskReport, w*calls+i+1)}
				want := len(appendReportFrame(nil, req.Slot, req.Reports))
				resp, err := client.Report(req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Accepted != want {
					t.Errorf("worker %d call %d: reply for a %d-byte request, sent %d bytes", w, i, resp.Accepted, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	created, reused := client.ConnStats()
	mu.Lock()
	defer mu.Unlock()
	if created+reused != workers*calls || created > workers || int(created) != len(remotes) {
		t.Fatalf("%d calls: %d connections created, %d reused, %d seen by the peer (≤ %d workers)",
			workers*calls, created, reused, len(remotes), workers)
	}
}

// stepCohorts generates the first 16 slots' task cohorts of sc, copied
// out of the replayer's buffers, so a benchmark can replay them in turn
// with trace generation outside its clock.
func stepCohorts(b *testing.B, sc ReplayScenario) [][]TaskSpec {
	rep, err := NewReplayer(sc)
	if err != nil {
		b.Fatal(err)
	}
	cohorts := make([][]TaskSpec, 16)
	for i := range cohorts {
		rep.env.Advance(i)
		rep.gen.NextInto(i, &rep.slotBuf)
		rep.buildSpecs()
		for _, s := range rep.specs {
			cohorts[i] = append(cohorts[i], TaskSpec{Ctx: slices.Clone(s.Ctx), SCNs: slices.Clone(s.SCNs)})
		}
	}
	return cohorts
}

// BenchmarkClientStep measures one lockstep /v1/step round trip over
// loopback against an in-process daemon, at the 4-SCN serving shape and
// the paper's Sec. 5 shape (~2000 tasks): the frame encode, the write,
// the daemon's slot and the reply read and parse. Task cohorts are
// generated before the clock starts and replayed in turn, so trace
// generation stays out of the figure; each step reports outcomes for the
// previous slot's assigned tasks. allocs/op counts client and daemon,
// which share the process.
func BenchmarkClientStep(b *testing.B) {
	for _, bc := range []struct {
		name string
		sc   ReplayScenario
	}{
		{"small", testScenario(1<<20, 9)},
		{"paper", paperScenario(1<<20, 42)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cohorts := stepCohorts(b, bc.sc)
			eng, srv, client := bootDaemon(b, bc.sc, nil)
			defer srv.Close()
			defer eng.Stop()

			var resp StepResponse
			var reports []TaskReport
			step := func(i int) {
				if err := client.StepInto(resp.Slot, reports, cohorts[i%len(cohorts)], true, &resp); err != nil {
					b.Fatal(err)
				}
				reports = reports[:0]
				for idx, m := range resp.Assigned {
					if m >= 0 {
						reports = append(reports, TaskReport{Task: idx, U: 0.5, V: 1, Q: 1.5})
					}
				}
			}
			for i := range 50 {
				step(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step(i)
			}
			b.StopTimer()
			if len(reports) > 0 {
				if _, err := client.Report(&ReportRequest{Slot: resp.Slot, Reports: reports}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
