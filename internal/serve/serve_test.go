package serve

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// testScenario is a small but non-trivial serving scenario: 4 SCNs,
// overlapping coverage, 27 context cells.
func testScenario(T int, seed uint64) ReplayScenario {
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

// buildDaemon constructs an engine for the scenario without starting it.
// Serving knobs suit lockstep tests: generous report wait, no slot clock.
func buildDaemon(t *testing.T, sc ReplayScenario, mutate func(*Config)) *Engine {
	t.Helper()
	cfg, err := sc.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.ReportWait = 5 * time.Second
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func startDaemon(t *testing.T, eng *Engine) (*Server, *Client) {
	t.Helper()
	srv, err := StartServer("127.0.0.1:0", eng)
	if err != nil {
		t.Fatal(err)
	}
	eng.Start()
	return srv, NewClient(srv.Addr())
}

// bootDaemon is buildDaemon + startDaemon for the fresh-boot case.
func bootDaemon(t *testing.T, sc ReplayScenario, mutate func(*Config)) (*Engine, *Server, *Client) {
	t.Helper()
	eng := buildDaemon(t, sc, mutate)
	srv, client := startDaemon(t, eng)
	return eng, srv, client
}

// resumeDaemon builds an engine, restores the checkpoint at path before
// Start (the lfscd boot order), then serves. Reports whether a
// checkpoint was found.
func resumeDaemon(t *testing.T, sc ReplayScenario, path string, mutate func(*Config)) (*Engine, *Server, *Client, bool) {
	t.Helper()
	eng := buildDaemon(t, sc, mutate)
	restored, err := eng.RestoreIfPresent(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, client := startDaemon(t, eng)
	return eng, srv, client, restored
}

// TestLockstepEquivalentToOfflineSim is the end-to-end equivalence
// guarantee: a load generator replaying a seeded trace against the
// daemon over real HTTP yields the exact same cumulative reward —
// hex-float identical — as an offline sim.Run of LFSC on the same
// scenario, on the daemon side AND the client side.
func TestLockstepEquivalentToOfflineSim(t *testing.T) {
	const T, seed = 250, 42
	sc := testScenario(T, seed)

	eng, srv, client := bootDaemon(t, sc, nil)
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.Run(client, 0, T, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	if st.ShedSlots != 0 {
		t.Fatalf("lockstep replay shed %d slots", st.ShedSlots)
	}

	simSc := &sim.Scenario{
		Cfg: sim.Config{T: T, Capacity: sc.Capacity, Alpha: sc.Alpha, Beta: sc.Beta, H: sc.H},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(sc.Synthetic, r)
		},
		EnvCfg: sc.EnvCfg,
	}
	series, err := sim.Run(simSc, sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	offline := 0.0
	for _, r := range series.Reward {
		offline += r
	}

	if got := eng.CumReward(); got != offline {
		t.Fatalf("daemon cum reward %x != offline sim %x (%.10f vs %.10f)",
			got, offline, got, offline)
	}
	if got := rep.CumReward(); got != offline {
		t.Fatalf("client cum reward %x != offline sim %x", got, offline)
	}
	if eng.Slot() != T {
		t.Fatalf("daemon served %d slots, want %d", eng.Slot(), T)
	}
}

// TestServeSmoke is the kill-and-resume determinism check behind `make
// serve-smoke`: boot a daemon on an ephemeral port, drive 200 slots of a
// shared trace with periodic checkpointing, kill it hard at slot 120
// (no graceful checkpoint), resume a fresh daemon from the slot-100
// checkpoint, replay the remainder, and require the final cumulative
// reward to be bit-identical to an uninterrupted run.
func TestServeSmoke(t *testing.T) {
	const T, seed, every = 200, 7, 100
	sc := testScenario(T, seed)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "lfscd.ckpt")

	// Run A: serve 120 slots, then die without checkpointing.
	engA, srvA, clientA := bootDaemon(t, sc, func(c *Config) {
		c.CheckpointPath = ckpt
		c.CheckpointEvery = every
	})
	repA, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repA.Run(clientA, 0, 120, nil); err != nil {
		t.Fatal(err)
	}
	engA.Abort() // kill: slots 100..119 die with the process
	srvA.Close()

	// Run B: boot fresh, restore the periodic checkpoint, replay the rest.
	engB, srvB, clientB, restored := resumeDaemon(t, sc, ckpt, func(c *Config) {
		c.CheckpointPath = ckpt
		c.CheckpointEvery = every
	})
	defer srvB.Close()
	if !restored {
		t.Fatal("no checkpoint found after kill")
	}
	if engB.Slot() != every {
		t.Fatalf("restored at slot %d, want %d", engB.Slot(), every)
	}
	repB, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repB.Run(clientB, engB.Slot(), T, nil); err != nil {
		t.Fatal(err)
	}
	engB.Stop()

	// Run C: the uninterrupted control.
	engC, srvC, clientC := bootDaemon(t, sc, nil)
	defer srvC.Close()
	repC, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repC.Run(clientC, 0, T, nil); err != nil {
		t.Fatal(err)
	}
	engC.Stop()

	got, want := engB.CumReward(), engC.CumReward()
	if got != want {
		t.Fatalf("kill-and-resume diverged: resumed %x (%.12f) vs uninterrupted %x (%.12f)",
			got, got, want, want)
	}
	if engB.Slot() != engC.Slot() {
		t.Fatalf("slot counters diverged: %d vs %d", engB.Slot(), engC.Slot())
	}
}

// TestRestoreAfterGracefulStopResumesExactly checks the SIGTERM path:
// Stop writes a final checkpoint at the exact slot served, and a resumed
// daemon continues bit-identically from there.
func TestRestoreAfterGracefulStopResumesExactly(t *testing.T) {
	const T, seed = 150, 11
	sc := testScenario(T, seed)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "lfscd.ckpt")

	engA, srvA, clientA := bootDaemon(t, sc, func(c *Config) { c.CheckpointPath = ckpt })
	repA, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repA.Run(clientA, 0, 70, nil); err != nil {
		t.Fatal(err)
	}
	engA.Stop() // graceful: checkpoint at slot 70
	srvA.Close()

	engB, srvB, clientB, restored := resumeDaemon(t, sc, ckpt, nil)
	defer srvB.Close()
	if !restored {
		t.Fatal("no checkpoint found after graceful stop")
	}
	if engB.Slot() != 70 {
		t.Fatalf("graceful checkpoint at slot %d, want 70", engB.Slot())
	}
	repB, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repB.Run(clientB, 70, T, nil); err != nil {
		t.Fatal(err)
	}
	engB.Stop()

	engC, srvC, clientC := bootDaemon(t, sc, nil)
	defer srvC.Close()
	repC, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repC.Run(clientC, 0, T, nil); err != nil {
		t.Fatal(err)
	}
	engC.Stop()

	if engB.CumReward() != engC.CumReward() {
		t.Fatalf("graceful resume diverged: %x vs %x", engB.CumReward(), engC.CumReward())
	}
}

// TestOverloadShedsAndStaysAlive floods the daemon far past its bounded
// queues and requires: 429s with shed counters, no deadlock, and a
// daemon that still answers every endpoint afterwards.
func TestOverloadShedsAndStaysAlive(t *testing.T) {
	sc := testScenario(1000, 3)
	eng, srv, client := bootDaemon(t, sc, func(c *Config) {
		c.SlotEvery = 2 * time.Millisecond
		c.MaxBatch = 4
		c.QueueCap = 6
		c.SubQueue = 2
		c.ReportWait = time.Millisecond
	})
	defer srv.Close()

	const workers, perWorker = 16, 25
	var wg sync.WaitGroup
	var okCount, shedCount, otherErr atomic64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				req := &SubmitRequest{Tasks: []TaskSpec{
					{Ctx: []float64{0.1, 0.5, 0.3}, SCNs: []int{w % 4}},
					{Ctx: []float64{0.9, 0.2, 0.7}, SCNs: []int{(w + 1) % 4}},
				}}
				_, err := client.Submit(req)
				switch {
				case err == nil:
					okCount.add(1)
				default:
					if _, shed := err.(*ErrShed); shed {
						shedCount.add(1)
					} else {
						otherErr.add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if shedCount.load() == 0 {
		t.Fatal("overload produced no 429s — queues unbounded?")
	}
	if otherErr.load() != 0 {
		t.Fatalf("overload produced %d non-shed errors", otherErr.load())
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatalf("daemon dead after overload: %v", err)
	}
	if st.ShedRequests != shedCount.load() {
		t.Fatalf("daemon counted %d shed requests, clients saw %d", st.ShedRequests, shedCount.load())
	}
	if st.ShedTasks != 2*shedCount.load() {
		t.Fatalf("daemon counted %d shed tasks, want %d", st.ShedTasks, 2*shedCount.load())
	}

	// Shed counts must be visible on every surface.
	for _, path := range []string{"/lfsc/status", "/debug/vars"} {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		want := "shed"
		if path == "/debug/vars" {
			want = `"shed_requests"`
		}
		if !strings.Contains(string(body), want) {
			t.Fatalf("%s does not surface shed counters:\n%s", path, body)
		}
	}
	eng.Stop()
}

// atomic64 avoids importing sync/atomic types into test signatures.
type atomic64 struct {
	mu sync.Mutex
	v  uint64
}

func (a *atomic64) add(d uint64) { a.mu.Lock(); a.v += d; a.mu.Unlock() }
func (a *atomic64) load() uint64 { a.mu.Lock(); defer a.mu.Unlock(); return a.v }

// TestSubmitValidation exercises the request-rejection paths: a
// submission that does not fit the engine's shape must 400 with the same
// error text however it arrives — JSON or a binary frame, on /v1/submit
// or /v1/step — and the in-process Submit must return that text too,
// without perturbing the learner.
func TestSubmitValidation(t *testing.T) {
	sc := testScenario(100, 5)
	eng, srv, _ := bootDaemon(t, sc, nil)
	defer srv.Close()
	defer eng.Stop()

	dims, kMax := eng.cfg.Dims, eng.cfg.KMax
	ctx := func(v ...float64) []float64 {
		c := make([]float64, dims)
		for d := range c {
			c[d] = 0.5
		}
		copy(c, v)
		return c
	}
	crowd := make([]TaskSpec, kMax+1)
	for i := range crowd {
		crowd[i] = TaskSpec{Ctx: ctx(), SCNs: []int{0}}
	}
	ok := TaskSpec{Ctx: ctx(), SCNs: []int{0}}
	bad := []struct {
		tasks []TaskSpec
		want  string
	}{
		{nil, "serve: empty submission"},
		{[]TaskSpec{{Ctx: []float64{0.5}, SCNs: []int{0}}}, fmt.Sprintf("serve: task 0: context has 1 dims, want %d", dims)},
		{[]TaskSpec{{Ctx: ctx(0.5, 2.0), SCNs: []int{0}}}, "serve: task 0: context outside [0,1]"},
		{[]TaskSpec{{Ctx: ctx(), SCNs: nil}}, "serve: task 0: no visible SCNs"},
		{[]TaskSpec{ok, {Ctx: ctx(), SCNs: []int{99}}}, "serve: task 1: SCN 99 out of range"},
		{[]TaskSpec{{Ctx: ctx(), SCNs: []int{1, 1}}}, "serve: task 0 lists SCN 1 twice"},
		{crowd, fmt.Sprintf("serve: submission exceeds KMax=%d for SCN 0", kMax)},
	}
	base := "http://" + srv.Addr()
	for i, c := range bad {
		for _, enc := range []struct {
			ct   string
			body []byte
		}{
			{"application/json", appendStepRequest(nil, 0, nil, c.tasks, true)},
			{frameContentType, appendStepFrame(nil, 0, nil, c.tasks, true)},
		} {
			for _, path := range []string{"/v1/submit", "/v1/step"} {
				resp, err := http.Post(base+path, enc.ct, bytes.NewReader(enc.body))
				if err != nil {
					t.Fatal(err)
				}
				out, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				msg, _, _ := parseErrorBody(out)
				if resp.StatusCode != http.StatusBadRequest || msg != c.want {
					t.Errorf("case %d, %s %s: %d %q, want 400 %q", i, enc.ct, path, resp.StatusCode, msg, c.want)
				}
			}
		}
		if _, err := eng.Submit(&SubmitRequest{Tasks: c.tasks, Close: true}); err == nil || err.Error() != c.want {
			t.Errorf("case %d, in-process: %v, want %q", i, err, c.want)
		}
	}
	st := eng.Stats()
	if st.SlotsServed != 0 || st.SubmittedTasks != 0 {
		t.Fatalf("rejected submissions reached the learner: %+v", st)
	}
}

// TestReportValidation exercises report rejection: wrong slot, unknown
// task, unassigned task, duplicate, and malformed values — absorbed
// atomically or not at all.
func TestReportValidation(t *testing.T) {
	sc := testScenario(100, 6)
	eng, srv, client := bootDaemon(t, sc, nil)
	defer srv.Close()
	defer eng.Stop()

	// Reports with no open slot are late.
	_, err := client.Report(&ReportRequest{Slot: 0, Reports: []TaskReport{{Task: 0, U: 0.5, V: 1, Q: 1.5}}})
	if _, late := err.(*ErrLate); !late {
		t.Fatalf("report with no open slot: got %v, want late rejection", err)
	}

	// Open a slot with assigned tasks.
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	rep.env.Advance(0)
	rep.gen.NextInto(0, &rep.slotBuf)
	rep.buildSpecs()
	resp, err := client.Submit(&SubmitRequest{Tasks: rep.specs, Close: true})
	if err != nil {
		t.Fatal(err)
	}
	assignedIdx := -1
	for i, m := range resp.Assigned {
		if m >= 0 {
			assignedIdx = i
			break
		}
	}
	if assignedIdx == -1 {
		t.Skip("no task assigned in slot 0 for this seed")
	}
	badReports := []TaskReport{
		{Task: 10_000, U: 0.5, V: 1, Q: 1.5},      // out of range
		{Task: assignedIdx, U: 1.5, V: 1, Q: 1.5}, // reward out of range
		{Task: assignedIdx, U: 0.5, V: 0.5, Q: 1}, // non-binary completion
		{Task: assignedIdx, U: 0.5, V: 1, Q: 0},   // non-positive consumption
	}
	for i, r := range badReports {
		if _, err := client.Report(&ReportRequest{Slot: resp.Slot, Reports: []TaskReport{r}}); err == nil {
			t.Fatalf("bad report %d accepted", i)
		}
	}
	// A valid report still lands after all the rejected ones.
	if _, err := client.Report(&ReportRequest{
		Slot:    resp.Slot,
		Reports: []TaskReport{{Task: assignedIdx, U: 0.5, V: 1, Q: 1.5}},
	}); err != nil {
		t.Fatalf("valid report rejected after bad ones: %v", err)
	}
	// Duplicate of an absorbed report must be rejected.
	if _, err := client.Report(&ReportRequest{
		Slot:    resp.Slot,
		Reports: []TaskReport{{Task: assignedIdx, U: 0.5, V: 1, Q: 1.5}},
	}); err == nil {
		t.Fatal("duplicate report accepted")
	}
}

// TestClosedBatchQueuesSubmission pins the inline path's admission rule:
// a submission that arrives while the next batch is already closed (the
// open slot still waits for its reports) goes into the batch after it,
// as on the channel path, instead of joining the closed one.
func TestClosedBatchQueuesSubmission(t *testing.T) {
	eng := buildDaemon(t, testScenario(100, 9), nil)
	eng.Start()
	defer eng.Stop()
	ctx := make([]float64, eng.shape.dims)
	for i := range ctx {
		ctx[i] = 0.5
	}
	submit := func(scn int) (*SubmitResponse, error) {
		return eng.Submit(&SubmitRequest{Tasks: []TaskSpec{{Ctx: ctx, SCNs: []int{scn}}}, Close: true})
	}
	report := func(r *SubmitResponse) {
		t.Helper()
		if r.Assigned[0] < 0 {
			return // nothing to report: the slot closed at decide
		}
		if _, err := eng.Report(&ReportRequest{Slot: r.Slot, Reports: []TaskReport{{Task: r.Base, U: 0.5, V: 1, Q: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			eng.mu.Lock()
			ok := cond()
			eng.mu.Unlock()
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	type result struct {
		r   *SubmitResponse
		err error
	}
	async := func(scn int) chan result {
		ch := make(chan result, 1)
		go func() {
			r, err := submit(scn)
			ch <- result{r, err}
		}()
		return ch
	}

	a, err := submit(0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Assigned[0] < 0 {
		t.Skip("slot 0's task was not assigned, so no slot stays open")
	}
	bCh := async(1)
	waitFor("b to close the next batch", func() bool { return eng.batch.n == 1 })
	cCh := async(2)
	waitFor("c to queue", func() bool { return len(eng.subCh) == 1 || eng.batch.n > 1 })
	report(a)
	b := <-bCh
	if b.err != nil {
		t.Fatal(b.err)
	}
	report(b.r)
	c := <-cCh
	if c.err != nil {
		t.Fatal(c.err)
	}
	if b.r.Slot != a.Slot+1 || c.r.Slot != b.r.Slot+1 {
		t.Fatalf("slots a=%d b=%d c=%d, want consecutive: c joined b's closed batch", a.Slot, b.r.Slot, c.r.Slot)
	}
	report(c.r)
}

// TestRestoreRejectsCorruptCheckpoint covers the daemon-level restore
// error paths; the learner-level ones are fuzzed in internal/core.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	sc := testScenario(100, 8)
	cfg, err := sc.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := map[string]string{
		"garbage":     "not json",
		"bad-version": `{"version":9,"slot":1,"cum_reward":0,"policy":{}}`,
		"neg-slot":    `{"version":1,"slot":-1,"cum_reward":0,"policy":{}}`,
		"bad-policy":  `{"version":1,"slot":1,"cum_reward":0,"policy":{"version":99}}`,
	}
	for name, data := range cases {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := eng.Restore(p); err == nil {
			t.Fatalf("corrupt checkpoint %q restored", name)
		}
	}
	if _, err := eng.RestoreIfPresent(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("missing checkpoint treated as error: %v", err)
	}
}

// BenchmarkEngineSlot measures the in-process serving slot loop (no
// HTTP): submit one full slot, decide, report, observe. The entry
// serve_ns_per_slot may be added to BENCH_core.json; cmd/benchdiff
// reports unknown keys informationally without failing.
func BenchmarkEngineSlot(b *testing.B) {
	sc := testScenario(1<<30, 9)
	cfg, err := sc.EngineConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.ReportWait = 5 * time.Second
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rep, err := NewReplayer(sc)
	if err != nil {
		b.Fatal(err)
	}
	var reports []TaskReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.env.Advance(i)
		rep.gen.NextInto(i, &rep.slotBuf)
		rep.buildSpecs()
		resp, err := eng.Submit(&SubmitRequest{Tasks: rep.specs, Close: true})
		if err != nil {
			b.Fatal(err)
		}
		reports = reports[:0]
		for idx, m := range resp.Assigned {
			if m >= 0 {
				reports = append(reports, TaskReport{Task: idx, U: 0.5, V: 1, Q: 1.5})
			}
		}
		if len(reports) > 0 {
			if _, err := eng.Report(&ReportRequest{Slot: resp.Slot, Reports: reports}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	if eng.Slot() != b.N {
		b.Fatalf("served %d slots, want %d", eng.Slot(), b.N)
	}
}

// TestServerClosesStalledHeader is the slow-client limit: a connection
// that stalls mid-header is closed once readHeaderTimeout passes instead
// of pinning a server goroutine for as long as the client likes.
func TestServerClosesStalledHeader(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 100 * time.Millisecond
	eng, srv, _ := bootDaemon(t, testScenario(10, 1), nil)
	defer srv.Close()
	defer eng.Stop()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/step HTTP/1.1\r\nHost: lfscd\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck
	start := time.Now()
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after %v: %v", time.Since(start).Round(time.Millisecond), err)
	}
	if el := time.Since(start); el < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", el)
	}
}
