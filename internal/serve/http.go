package serve

import (
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"lfsc/internal/obs"
)

// Server is the daemon's HTTP front: the decision API plus the standard
// observability surface.
//
//	POST /v1/submit   submit task arrivals, blocks for the slot decision
//	POST /v1/report   deliver realised outcomes for the open slot
//	POST /v1/step     batched: previous slot's reports + next slot's tasks
//	GET  /v1/stats    serving counters as JSON
//	GET  /metrics     Prometheus text exposition (when Config.Metrics set)
//	GET  /lfsc/slots  slot-lifecycle trace ring as JSON (when Config.SlotRing set)
//	GET  /lfsc/status plain-text status (serving counters + phase table)
//	GET  /debug/vars  expvar (process defaults + "lfsc_serve")
//	     /debug/pprof the standard pprof handlers
//
// The three POST endpoints are the zero-allocation data plane: bodies
// decode in place into pooled request objects, validated against the
// engine's shape as they parse, and replies encode into pooled scratch
// (see wire.go); steady-state handling allocates nothing. Each takes JSON
// or a binary frame, selected by the request's Content-Type. A step or
// submit runs the slot machine on the handler's own stack when the engine
// is idle (Engine.submit), like the in-process API; a pure report goes
// through the engine goroutine.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Connection limits against slow or idle clients. A client must finish
// its request headers within readHeaderTimeout, and a kept-alive
// connection may sit idle between requests for idleTimeout. There is no
// write timeout: /debug/pprof/profile streams for 30 s.
var (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// serveExpvar mirrors the obs expvar pattern: Publish is forever, so the
// "lfsc_serve" var registers once and re-points at the latest engine.
var serveExpvar struct {
	once sync.Once
	mu   sync.Mutex
	eng  *Engine
}

// StartServer binds addr (e.g. ":9090" or "127.0.0.1:0" for tests) and
// serves the engine's API. Close the returned server when done; stopping
// the engine and closing the server are independent.
func StartServer(addr string, eng *Engine) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	serveExpvar.mu.Lock()
	serveExpvar.eng = eng
	serveExpvar.mu.Unlock()
	serveExpvar.once.Do(func() {
		expvar.Publish("lfsc_serve", expvar.Func(func() any {
			serveExpvar.mu.Lock()
			e := serveExpvar.eng
			serveExpvar.mu.Unlock()
			if e == nil {
				return nil
			}
			return e.Stats()
		}))
	})

	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/submit", eng.handleSubmit)
	mux.HandleFunc("/v1/report", eng.handleReport)
	mux.HandleFunc("/v1/step", eng.handleStep)
	mux.HandleFunc("/v1/stats", eng.handleStats)
	if eng.cfg.Metrics != nil {
		mux.Handle("/metrics", eng.cfg.Metrics.Handler())
	}
	if eng.cfg.SlotRing != nil {
		mux.HandleFunc("/lfsc/slots", eng.handleSlots)
	}
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/lfsc/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		eng.writeStatus(w, time.Since(start))
	})

	s := &Server{ln: ln, srv: &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Close
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the HTTP server down (the engine keeps running).
func (s *Server) Close() error { return s.srv.Close() }

// ctJSON and ctFrame are the shared Content-Type values the hot handlers
// install by direct map assignment — http.Header.Set allocates a fresh
// []string per call, which would break the 0 allocs/request pin.
var (
	ctJSON  = []string{"application/json"}
	ctFrame = []string{frameContentType}
)

// isFrame reports whether a request's Content-Type names the binary frame
// encoding (media type compared case-insensitively, parameters ignored).
// Anything else is JSON.
func isFrame(h http.Header) bool {
	ct := h.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), frameContentType)
}

// readReq takes a pooled request and reads and decodes r's body into it,
// in the encoding r's Content-Type selects; decoding validates the tasks
// against the engine's shape. On failure it has already answered 400 and
// recycled the request, and returns nil.
func (e *Engine) readReq(w http.ResponseWriter, r *http.Request) *wireReq {
	q := e.getReq()
	q.frame = isFrame(r.Header)
	if err := q.readBody(r.Body); err != nil {
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
		return nil
	}
	var err error
	if q.frame {
		err = q.decodeFrame()
	} else {
		err = q.decode()
	}
	if err != nil {
		msg := err.Error()
		if _, ok := err.(errInvalid); !ok {
			msg = "serve: decode: " + msg
		}
		q.reset()
		e.writeErrReq(w, q, http.StatusBadRequest, msg, 0)
		return nil
	}
	return q
}

// writeBody sends the encoded response in q.out and recycles q.
func (e *Engine) writeBody(w http.ResponseWriter, q *wireReq, status int, ct []string) {
	w.Header()["Content-Type"] = ct
	w.WriteHeader(status)
	w.Write(q.out) //nolint:errcheck // client gone is fine
	e.putReq(q)
}

// writeOK sends the 200 reply in q.out, in the encoding of its request.
func (e *Engine) writeOK(w http.ResponseWriter, q *wireReq) {
	ct := ctJSON
	if q.frame {
		ct = ctFrame
	}
	e.writeBody(w, q, http.StatusOK, ct)
}

// writeErrReq encodes the error envelope into q's scratch (q is owned by
// the handler again) and recycles it. Errors are JSON in both encodings.
func (e *Engine) writeErrReq(w http.ResponseWriter, q *wireReq, status int, msg string, accepted int) {
	q.out = appendErrorBody(q.out[:0], msg, accepted)
	e.writeBody(w, q, status, ctJSON)
}

// writeErrAlloc is the cold-path error writer for when no pooled request
// is available (or the request can no longer be recycled).
func writeErrAlloc(w http.ResponseWriter, status int, msg string) {
	w.Header()["Content-Type"] = ctJSON
	w.WriteHeader(status)
	w.Write(appendErrorBody(nil, msg, 0)) //nolint:errcheck
}

func (e *Engine) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.submitLat, start, out) }()
	if r.Method != http.MethodPost {
		writeErrAlloc(w, http.StatusMethodNotAllowed, "serve: POST only")
		return
	}
	q := e.readReq(w, r)
	if q == nil {
		return
	}
	if len(q.cells) == 0 {
		e.writeErrReq(w, q, http.StatusBadRequest, errEmptySubmission.Error(), 0)
		return
	}
	rep, err := e.submit(q)
	switch {
	case err == nil:
		out = sloOK
		q.replySubmit(rep.slot, rep.base, rep.assigned)
		e.writeOK(w, q)
	case IsShed(err):
		out = sloShed
		e.shedLat.Observe(start)
		e.writeErrReq(w, q, http.StatusTooManyRequests, err.Error(), 0)
	case errors.Is(err, errStopped):
		// The engine may still hold (or race a reply into) q — do not
		// recycle it.
		writeErrAlloc(w, http.StatusBadRequest, err.Error())
	default:
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
	}
}

func (e *Engine) handleReport(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.reportLat, start, out) }()
	if r.Method != http.MethodPost {
		writeErrAlloc(w, http.StatusMethodNotAllowed, "serve: POST only")
		return
	}
	q := e.readReq(w, r)
	if q == nil {
		return
	}
	if len(q.reports) == 0 {
		e.writeErrReq(w, q, http.StatusBadRequest, "serve: empty report", 0)
		return
	}
	// Through the engine goroutine, not inline: that goroutine replies as
	// soon as the reports are absorbed and only then finishes the slot, so
	// the 200 is not held behind Observe, a checkpoint or the next decide.
	// The client's next request decodes on its handler meanwhile and
	// enters the slot machine once the slot is finished.
	rep, err := e.dispatchReport(q)
	switch {
	case err == nil:
		out = sloOK
		q.replyReport(rep.accepted)
		e.writeOK(w, q)
	case IsLateReport(err):
		out = sloOK
		e.writeErrReq(w, q, http.StatusGone, err.Error(), 0)
	case errors.Is(err, errStopped):
		writeErrAlloc(w, http.StatusBadRequest, err.Error())
	default:
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
	}
}

// handleStep serves the batched round trip: absorb the previous slot's
// reports, enter the new tasks into the batcher, reply with the next
// decision. A shed step still delivers its report part (the open slot's
// Observe must not starve behind backpressure on the next slot) and
// reports the absorption count in the 429 envelope.
func (e *Engine) handleStep(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	out := sloSkip
	defer func() { e.reqDone(&e.stepLat, start, out) }()
	if r.Method != http.MethodPost {
		writeErrAlloc(w, http.StatusMethodNotAllowed, "serve: POST only")
		return
	}
	q := e.readReq(w, r)
	if q == nil {
		return
	}
	if len(q.cells) == 0 {
		e.writeErrReq(w, q, http.StatusBadRequest, errEmptySubmission.Error(), 0)
		return
	}
	rep, err := e.submit(q)
	switch {
	case err == nil:
		out = sloOK
		repErr := ""
		if rep.repErr != nil {
			repErr = rep.repErr.Error()
		}
		q.replyStep(rep.accepted, repErr, rep.slot, rep.base, rep.assigned)
		e.writeOK(w, q)
	case IsShed(err):
		out = sloShed
		e.shedLat.Observe(start)
		accepted := 0
		if len(q.reports) > 0 {
			rrep, rerr := e.dispatchReport(q)
			if rerr == nil {
				accepted = rrep.accepted
			} else if errors.Is(rerr, errStopped) {
				writeErrAlloc(w, http.StatusTooManyRequests, err.Error())
				return
			}
		}
		e.writeErrReq(w, q, http.StatusTooManyRequests, err.Error(), accepted)
	case errors.Is(err, errStopped):
		writeErrAlloc(w, http.StatusBadRequest, err.Error())
	default:
		e.writeErrReq(w, q, http.StatusBadRequest, err.Error(), 0)
	}
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	json.NewEncoder(w).Encode(e.Stats()) //nolint:errcheck // client gone is fine
}

// writeStatus renders the plain-text serving status: counters, request
// latencies, then the shared obs phase/run breakdown when wired.
func (e *Engine) writeStatus(w http.ResponseWriter, up time.Duration) {
	st := e.Stats()
	fmt.Fprintf(w, "lfscd — up %v\n", up.Round(time.Millisecond))
	fmt.Fprintf(w, "slot %d  cum reward %.4f\n", st.Slot, st.CumReward)
	fmt.Fprintf(w, "tasks: submitted %d  decided %d  assigned %d  reported %d\n",
		st.SubmittedTasks, st.DecidedTasks, st.AssignedTasks, st.ReportedTasks)
	fmt.Fprintf(w, "shed: requests %d  tasks %d\n", st.ShedRequests, st.ShedTasks)
	fmt.Fprintf(w, "late: slots %d  reports %d\n", st.LateSlots, st.LateReports)
	if sn := st.Scenario; sn != nil {
		fmt.Fprintf(w, "scenario %s: period %d  up %d  events: sleeps %d fails %d rejoins %d\n",
			sn.Digest, sn.Slots, sn.UpSCNs, sn.Sleeps, sn.Fails, sn.Rejoins)
	}
	if st.SLO != nil {
		s := st.SLO
		budget := "ok"
		if !s.ShedWithinBudget {
			budget = "OVER BUDGET"
		}
		fmt.Fprintf(w, "slo[%ds]: n=%d  p50=%v p99=%v p999=%v  shed %.2f%% (budget %.2f%%, %s)\n",
			s.WindowSec, s.Requests,
			time.Duration(s.P50NS).Round(time.Microsecond),
			time.Duration(s.P99NS).Round(time.Microsecond),
			time.Duration(s.P999NS).Round(time.Microsecond),
			100*s.ShedRate, 100*s.ShedBudget, budget)
	}
	// Per-shard lines read only the shard atomics — the learner state
	// itself belongs to the engine goroutine.
	for _, sh := range st.Shards {
		fmt.Fprintf(w, "shard %d: scns %d  routed subs %d  tasks %d  shed %d  last decide %v observe %v\n",
			sh.Shard, sh.SCNs, sh.RoutedSubs, sh.RoutedTasks, sh.ShedTasks,
			time.Duration(sh.LastDecideNS).Round(time.Microsecond),
			time.Duration(sh.LastObserveNS).Round(time.Microsecond))
	}
	for _, ls := range []obs.PhaseStat{st.SubmitLatency, st.ReportLatency, st.StepLatency, st.ShedLatency} {
		if ls.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "%s latency: n=%d mean=%v p50=%v p90=%v p99=%v p999=%v\n",
			ls.Phase, ls.Count,
			time.Duration(ls.MeanNS).Round(time.Microsecond),
			time.Duration(ls.P50NS).Round(time.Microsecond),
			time.Duration(ls.P90NS).Round(time.Microsecond),
			time.Duration(ls.P99NS).Round(time.Microsecond),
			time.Duration(ls.P999NS).Round(time.Microsecond))
	}
	if e.cfg.Probe != nil || e.cfg.Registry != nil {
		fmt.Fprintf(w, "\n")
		obs.WriteStatus(w, e.cfg.Probe, e.cfg.Registry, up)
	}
}
