package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/rng"
)

// TestMultiClientSubmitReport drives the one-client-per-SCN-group shape:
// 2 and 4 serve.Clients over real HTTP, each owning a disjoint SCN set of
// the 4-SCN test scenario, each sending a closing /v1/submit and then a
// /v1/report for its assigned tasks, 100 rounds apiece. Every call must
// succeed, every slot must finish on its reports (no late slot, no late
// report, nothing shed), and every assigned task must be reported. Under
// -race (make serve-smoke) it also races the clients' ingest against the
// engine's slot close.
func TestMultiClientSubmitReport(t *testing.T) {
	const rounds = 100
	for _, clients := range []int{2, 4} {
		t.Run(fmt.Sprintf("clients=%d", clients), func(t *testing.T) {
			eng, srv, _ := bootDaemon(t, testScenario(1_000_000, 17), nil)
			defer srv.Close()
			errs := make([]error, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs[c] = submitReportRounds(NewClient(srv.Addr()), c, clients, eng.cfg.SCNs, eng.shape.dims, rounds)
				}(c)
			}
			wg.Wait()
			eng.Stop()
			for c, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", c, err)
				}
			}
			st := eng.Stats()
			if st.LateSlots != 0 || st.LateReports != 0 || st.ShedRequests != 0 {
				t.Fatalf("late slots %d, late reports %d, shed requests %d; want all 0",
					st.LateSlots, st.LateReports, st.ShedRequests)
			}
			if st.AssignedTasks == 0 || st.ReportedTasks != st.AssignedTasks {
				t.Fatalf("reported %d of %d assigned tasks", st.ReportedTasks, st.AssignedTasks)
			}
		})
	}
}

// TestMultiClientStep drives the same shape through lockstep /v1/step:
// each client's closing step carries its reports for the slot it was
// last told, and its final reports go by /v1/report. The open slot holds
// one client's tasks while the next batch is already closed on another
// client's, so the step that completes the open slot arrives while its
// own tasks cannot join a batch yet. Its report part must still finish
// the slot at once: every call succeeds with no report_error, no slot
// waits out the 400 ms report wait, nothing is late or shed, and every
// assigned task is reported. Shapes: 2 and 4 clients on the 4-SCN test
// scenario, and one client per SCN on a 30-SCN variant.
func TestMultiClientStep(t *testing.T) {
	sc30 := testScenario(1_000_000, 17)
	sc30.Synthetic.SCNs = 30
	sc30.EnvCfg = env.DefaultConfig(30, 27)
	for _, tc := range []struct {
		sc              ReplayScenario
		clients, rounds int
	}{
		{testScenario(1_000_000, 17), 2, 30},
		{testScenario(1_000_000, 17), 4, 30},
		{sc30, 30, 40},
	} {
		t.Run(fmt.Sprintf("clients=%d", tc.clients), func(t *testing.T) {
			eng, srv, _ := bootDaemon(t, tc.sc, func(c *Config) { c.ReportWait = 400 * time.Millisecond })
			defer srv.Close()
			errs := make([]error, tc.clients)
			var wg sync.WaitGroup
			for c := 0; c < tc.clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					errs[c] = stepRounds(NewClient(srv.Addr()), c, tc.clients, eng.cfg.SCNs, eng.shape.dims, tc.rounds)
				}(c)
			}
			wg.Wait()
			eng.Stop()
			for c, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", c, err)
				}
			}
			st := eng.Stats()
			if st.LateSlots != 0 || st.LateReports != 0 || st.ShedRequests != 0 {
				t.Fatalf("late slots %d, late reports %d, shed requests %d; want all 0",
					st.LateSlots, st.LateReports, st.ShedRequests)
			}
			if st.AssignedTasks == 0 || st.ReportedTasks != st.AssignedTasks {
				t.Fatalf("reported %d of %d assigned tasks", st.ReportedTasks, st.AssignedTasks)
			}
		})
	}
}

// ownedTasks fills tasks with one or two tasks for each SCN client c owns
// (m%clients == c), drawing their contexts from r.
func ownedTasks(r *rng.Stream, tasks []TaskSpec, c, clients, scns, dims int) []TaskSpec {
	tasks = tasks[:0]
	for m := c; m < scns; m += clients {
		for k := 1 + r.Intn(2); k > 0; k-- {
			ctx := make([]float64, dims)
			for d := range ctx {
				ctx[d] = r.Float64()
			}
			tasks = append(tasks, TaskSpec{Ctx: ctx, SCNs: []int{m}})
		}
	}
	return tasks
}

// outcomes fills reports with an outcome, drawn from r, for every task a
// decision (base, assigned) gave to an SCN.
func outcomes(r *rng.Stream, reports []TaskReport, base int, assigned []int) []TaskReport {
	reports = reports[:0]
	for i, m := range assigned {
		if m >= 0 {
			reports = append(reports, TaskReport{Task: base + i, U: r.Float64(), V: 1, Q: 1 + r.Float64()})
		}
	}
	return reports
}

// submitReportRounds is one client of TestMultiClientSubmitReport: each
// round it submits its owned tasks in a closing /v1/submit, then reports
// an outcome for every task the decision assigned.
func submitReportRounds(cl *Client, c, clients, scns, dims, rounds int) error {
	r := rng.New(uint64(100 + c))
	var tasks []TaskSpec
	var reports []TaskReport
	for round := 0; round < rounds; round++ {
		tasks = ownedTasks(r, tasks, c, clients, scns, dims)
		resp, err := cl.Submit(&SubmitRequest{Tasks: tasks, Close: true})
		if err != nil {
			return fmt.Errorf("round %d: submit: %w", round, err)
		}
		reports = outcomes(r, reports, resp.Base, resp.Assigned)
		if len(reports) == 0 {
			continue
		}
		if _, err := cl.Report(&ReportRequest{Slot: resp.Slot, Reports: reports}); err != nil {
			return fmt.Errorf("round %d: report for slot %d: %w", round, resp.Slot, err)
		}
	}
	return nil
}

// stepRounds is one client of TestMultiClientStep: each round it sends
// its owned tasks in a closing /v1/step that carries its reports for the
// previous round's slot, and it sends the last round's reports by
// /v1/report.
func stepRounds(cl *Client, c, clients, scns, dims, rounds int) error {
	r := rng.New(uint64(100 + c))
	var tasks []TaskSpec
	var reports []TaskReport
	slot := 0
	for round := 0; round < rounds; round++ {
		tasks = ownedTasks(r, tasks, c, clients, scns, dims)
		resp, err := cl.Step(&StepRequest{Slot: slot, Reports: reports, Tasks: tasks, Close: true})
		if err != nil {
			return fmt.Errorf("round %d: step: %w", round, err)
		}
		if resp.ReportError != "" {
			return fmt.Errorf("round %d: reports for slot %d: %s", round, slot, resp.ReportError)
		}
		slot = resp.Slot
		reports = outcomes(r, reports, resp.Base, resp.Assigned)
	}
	if len(reports) == 0 {
		return nil
	}
	if _, err := cl.Report(&ReportRequest{Slot: slot, Reports: reports}); err != nil {
		return fmt.Errorf("final report for slot %d: %w", slot, err)
	}
	return nil
}
