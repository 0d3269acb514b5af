package serve

import (
	"fmt"
	"sync"
	"testing"

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

// submitReportRounds is one client of TestMultiClientSubmitReport: it
// owns the SCNs m with m%clients == c and, each round, submits one or two
// tasks per owned SCN in a closing /v1/submit, then reports an outcome for
// every task the decision assigned.
func submitReportRounds(cl *Client, c, clients, scns, dims, rounds int) error {
	r := rng.New(uint64(100 + c))
	var tasks []TaskSpec
	var reports []TaskReport
	for round := 0; round < rounds; round++ {
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
		resp, err := cl.Submit(&SubmitRequest{Tasks: tasks, Close: true})
		if err != nil {
			return fmt.Errorf("round %d: submit: %w", round, err)
		}
		reports = reports[:0]
		for i, m := range resp.Assigned {
			if m >= 0 {
				reports = append(reports, TaskReport{Task: resp.Base + i, U: r.Float64(), V: 1, Q: 1 + r.Float64()})
			}
		}
		if len(reports) == 0 {
			continue
		}
		if _, err := cl.Report(&ReportRequest{Slot: resp.Slot, Reports: reports}); err != nil {
			return fmt.Errorf("round %d: report for slot %d: %w", round, resp.Slot, err)
		}
	}
	return nil
}
