package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync/atomic"

	"lfsc/internal/obs"
)

// registerMetrics wires the engine's telemetry into the Prometheus
// registry. Every series is func-backed over counters the engine
// already maintains (or an existing obs.Histogram), so registration —
// which runs once, in NewEngine — is the only cost: the wire path
// performs not a single extra store when metrics are enabled, which is
// what keeps instrumented serving bit-identical and at 0 allocs/request
// (pinned by TestServeWireZeroAllocObs and the obs identity tests).
//
// Naming scheme (DESIGN.md §12): everything under the lfsc_ prefix;
// monotone counts end in _total with label-split families
// (lfsc_tasks_total{stage=...}, lfsc_shed_total{kind=...}); durations
// are histograms in seconds (lfsc_request_duration_seconds{endpoint});
// per-shard series carry shard="K"; window summaries live under
// lfsc_slo_*.
func (e *Engine) registerMetrics(m *obs.Metrics) {
	m.Gauge("lfsc_slot", "Next slot index to be decided.",
		nil, func() float64 { return float64(e.Slot()) })
	m.Gauge("lfsc_cum_reward", "Cumulative compound reward over all served slots.",
		nil, e.CumReward)
	m.Gauge("lfsc_pending_tasks", "Tasks accepted into the queue but not yet decided (backpressure gauge).",
		nil, func() float64 { return float64(e.pending.Load()) })
	m.Counter("lfsc_slots_served_total", "Slots decided and observed by this process (excludes checkpoint-restored history).",
		nil, counterFn(&e.slotsServed))

	m.Counter("lfsc_tasks_total", "Tasks by pipeline stage.",
		[]obs.Label{{Name: "stage", Value: "submitted"}}, counterFn(&e.submittedTasks))
	m.Counter("lfsc_tasks_total", "Tasks by pipeline stage.",
		[]obs.Label{{Name: "stage", Value: "decided"}}, counterFn(&e.decidedTasks))
	m.Counter("lfsc_tasks_total", "Tasks by pipeline stage.",
		[]obs.Label{{Name: "stage", Value: "assigned"}}, counterFn(&e.assignedTasks))
	m.Counter("lfsc_tasks_total", "Tasks by pipeline stage.",
		[]obs.Label{{Name: "stage", Value: "reported"}}, counterFn(&e.reportedTasks))

	m.Counter("lfsc_shed_total", "Load shedding by the two backpressure gates (429s).",
		[]obs.Label{{Name: "kind", Value: "requests"}}, counterFn(&e.shedRequests))
	m.Counter("lfsc_shed_total", "Load shedding by the two backpressure gates (429s).",
		[]obs.Label{{Name: "kind", Value: "tasks"}}, counterFn(&e.shedTasks))
	m.Counter("lfsc_late_total", "Report-wait timeouts (slots) and reports arriving after their slot closed (reports).",
		[]obs.Label{{Name: "kind", Value: "slots"}}, counterFn(&e.lateSlots))
	m.Counter("lfsc_late_total", "Report-wait timeouts (slots) and reports arriving after their slot closed (reports).",
		[]obs.Label{{Name: "kind", Value: "reports"}}, counterFn(&e.lateReports))

	const ckptHelp = "Checkpoint commits by result; a failed commit leaves the previous checkpoint in place."
	m.Counter("lfsc_checkpoints_total", ckptHelp,
		[]obs.Label{{Name: "result", Value: "ok"}}, counterFn(&e.ckptOK))
	m.Counter("lfsc_checkpoints_total", ckptHelp,
		[]obs.Label{{Name: "result", Value: "failed"}}, counterFn(&e.ckptFailed))
	m.Gauge("lfsc_checkpoint_slot", "Slot of the last committed checkpoint (0 before the first).",
		nil, func() float64 { return float64(e.ckptSlot.Load()) })

	const reqHelp = "Request latency by endpoint (shed = the 429 paths, also counted in their endpoint)."
	m.Histogram("lfsc_request_duration_seconds", reqHelp,
		[]obs.Label{{Name: "endpoint", Value: "submit"}}, &e.submitLat)
	m.Histogram("lfsc_request_duration_seconds", reqHelp,
		[]obs.Label{{Name: "endpoint", Value: "report"}}, &e.reportLat)
	m.Histogram("lfsc_request_duration_seconds", reqHelp,
		[]obs.Label{{Name: "endpoint", Value: "step"}}, &e.stepLat)
	m.Histogram("lfsc_request_duration_seconds", reqHelp,
		[]obs.Label{{Name: "endpoint", Value: "shed"}}, &e.shedLat)

	// One Record per slot close (Merger.Resolve).
	m.Histogram("lfsc_serve_merge_ns", "Duration of the cross-shard edge-merge/resolution stage per slot.",
		nil, &e.mergeLat)

	for _, sh := range e.shards {
		sh := sh
		lbl := []obs.Label{{Name: "shard", Value: strconv.Itoa(sh.id)}}
		m.Gauge("lfsc_shard_owned_scns", "SCNs assigned to the shard by the consistent-hash ring.",
			lbl, func() float64 { return float64(len(sh.owned)) })
		m.Counter("lfsc_shard_routed_subs_total", "Accepted submissions attributed to their home shard.",
			lbl, counterFn(&sh.routedSubs))
		m.Counter("lfsc_shard_routed_tasks_total", "Accepted tasks attributed to their home shard.",
			lbl, counterFn(&sh.routedTasks))
		m.Counter("lfsc_shard_shed_tasks_total", "Shed tasks attributed to their home shard.",
			lbl, counterFn(&sh.shedTasks))
		m.Gauge("lfsc_shard_last_decide_seconds", "Duration of the shard's DecideLocal leg in the most recent slot.",
			lbl, secondsFn(&sh.lastDecideNS))
		m.Gauge("lfsc_shard_last_observe_seconds", "Duration of the shard's Observe leg in the most recent slot.",
			lbl, secondsFn(&sh.lastObserveNS))
		m.Gauge("lfsc_shard_last_stage_seconds", "Ingest-staging time attributed to the shard over the last slot's batch window (traced engines only).",
			lbl, secondsFn(&sh.lastStageNS))
	}

	if slo := e.cfg.SLO; slo != nil {
		m.Gauge("lfsc_slo_window_seconds", "Length of the rolling SLO window.",
			nil, func() float64 { return float64(slo.Window()) })
		m.Gauge("lfsc_slo_requests", "Requests observed in the current SLO window.",
			nil, func() float64 { return float64(slo.Report().Requests) })
		m.Gauge("lfsc_slo_shed_rate", "Shed fraction over the current SLO window.",
			nil, func() float64 { return slo.Report().ShedRate })
		m.Gauge("lfsc_slo_shed_budget", "Configured shed-rate budget.",
			nil, slo.Budget)
		m.Gauge("lfsc_slo_shed_within_budget", "1 when the window's shed rate honours the budget, else 0.",
			nil, func() float64 {
				if slo.Report().ShedWithinBudget {
					return 1
				}
				return 0
			})
		for _, q := range []struct {
			label string
			pick  func(obs.SLOReport) float64
		}{
			{"0.5", func(r obs.SLOReport) float64 { return r.P50NS }},
			{"0.99", func(r obs.SLOReport) float64 { return r.P99NS }},
			{"0.999", func(r obs.SLOReport) float64 { return r.P999NS }},
		} {
			q := q
			m.Gauge("lfsc_slo_latency_seconds", "Rolling-window request-latency quantiles.",
				[]obs.Label{{Name: "quantile", Value: q.label}},
				func() float64 { return q.pick(slo.Report()) / 1e9 })
		}
	}

	if tl := e.cfg.Scenario; tl != nil {
		// Scenario series are pure lookups into the immutable timeline at
		// the engine's atomic slot counter — scrape-time reads only, zero
		// hot-path work, same discipline as every other family here.
		m.Gauge("lfsc_scenario_up_scns", "Available SCNs at the current slot of the scenario timeline.",
			nil, func() float64 { return float64(tl.UpCount(e.Slot())) })
		m.Gauge("lfsc_scenario_period_slots", "Period of the scenario timeline in slots.",
			nil, func() float64 { return float64(tl.Slots()) })
		scenCounter := func(pick func(s, f, r uint64) uint64) func() float64 {
			return func() float64 {
				s, f, r := tl.CumEventTotals(e.Slot())
				return float64(pick(s, f, r))
			}
		}
		const evHelp = "Cumulative scenario events through the current slot (sleep-window entries, failures, recoveries)."
		m.Counter("lfsc_scenario_events_total", evHelp,
			[]obs.Label{{Name: "kind", Value: "sleep"}}, scenCounter(func(s, f, r uint64) uint64 { return s }))
		m.Counter("lfsc_scenario_events_total", evHelp,
			[]obs.Label{{Name: "kind", Value: "fail"}}, scenCounter(func(s, f, r uint64) uint64 { return f }))
		m.Counter("lfsc_scenario_events_total", evHelp,
			[]obs.Label{{Name: "kind", Value: "rejoin"}}, scenCounter(func(s, f, r uint64) uint64 { return r }))
	}

	if ring := e.cfg.SlotRing; ring != nil {
		m.Counter("lfsc_slot_trace_published_total", "Slot-lifecycle records published into the trace ring.",
			nil, func() float64 { return float64(ring.Published()) })
	}

	m.RegisterProbe(e.cfg.Probe)
}

// counterFn / secondsFn adapt an atomic to a scrape-time read function.
func counterFn(c *atomic.Uint64) func() float64 {
	return func() float64 { return float64(c.Load()) }
}

func secondsFn(c *atomic.Uint64) func() float64 {
	return func() float64 { return float64(c.Load()) / 1e9 }
}

// handleSlots serves the slot-trace ring as JSON (GET /lfsc/slots).
func (e *Engine) handleSlots(w http.ResponseWriter, r *http.Request) {
	type slotsBody struct {
		Published uint64         `json:"published"`
		Spans     []obs.SlotSpan `json:"spans"`
	}
	ring := e.cfg.SlotRing
	body := slotsBody{Published: ring.Published(), Spans: ring.Snapshot(nil)}
	if body.Spans == nil {
		body.Spans = []obs.SlotSpan{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(body) //nolint:errcheck // client gone is fine
}
