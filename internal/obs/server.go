package obs

import (
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// Server surfaces live telemetry over HTTP for watching long runs:
//
//	/debug/vars    expvar JSON (process defaults + the "lfsc" var below)
//	/debug/pprof/  the standard pprof index (profile, heap, trace, ...)
//	/lfsc/status   plain-text status: uptime, per-run progress and slot
//	               rates, and the per-phase timing breakdown
//	/metrics       Prometheus text exposition (the Metrics registry; a
//	               default registry over the probe when none is given)
//
// The server runs on its own goroutine and its own mux, so it never
// interferes with the simulation loop beyond the atomic counter reads the
// handlers perform.
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

// expvarState is the process-global source behind the published "lfsc"
// expvar. expvar.Publish is forever (re-publishing panics), so the var is
// registered once and re-pointed at the latest server's probe/registry.
var expvarState struct {
	once sync.Once
	mu   sync.Mutex
	p    *Probe
	reg  *Registry
}

// StartServer listens on addr (e.g. ":8080" or "127.0.0.1:0") and serves
// telemetry for the given probe and registry (either may be nil — the
// corresponding sections are omitted). metrics backs /metrics; pass nil
// to get a fresh registry pre-wired with the probe's phase histograms
// and the registry's aggregate counters. Close the returned server when
// done.
func StartServer(addr string, probe *Probe, reg *Registry, metrics *Metrics) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	expvarState.mu.Lock()
	expvarState.p, expvarState.reg = probe, reg
	expvarState.mu.Unlock()
	expvarState.once.Do(func() {
		expvar.Publish("lfsc", expvar.Func(func() any {
			expvarState.mu.Lock()
			p, g := expvarState.p, expvarState.reg
			expvarState.mu.Unlock()
			return statusData(p, g)
		}))
	})

	if metrics == nil {
		metrics = NewMetrics()
		metrics.RegisterProbe(probe)
		if reg != nil {
			metrics.Counter("lfsc_run_slots_total", "Slots completed across all registered runs.",
				nil, func() float64 { return float64(reg.TotalSlots()) })
		}
	}

	start := time.Now()
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler())
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/lfsc/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		WriteStatus(w, probe, reg, time.Since(start))
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

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

// statusVars is the expvar JSON shape of the "lfsc" variable.
type statusVars struct {
	Slots  int64       `json:"slots"`
	Runs   []runEvent  `json:"runs"`
	Phases []PhaseStat `json:"phases"`
}

func statusData(p *Probe, g *Registry) statusVars {
	v := statusVars{Slots: g.TotalSlots(), Phases: p.Stats()}
	for _, r := range g.Runs() {
		v.Runs = append(v.Runs, runEvent{
			Type: "run", Policy: r.Policy, Slots: r.Slots(),
			CumReward: r.CumReward(), ElapsedNS: r.Elapsed().Nanoseconds(),
		})
	}
	return v
}

// WriteStatus renders the plain-text status page: per-run progress with
// slot rates and cumulative reward, then phase timing percentiles.
func WriteStatus(w io.Writer, p *Probe, g *Registry, up time.Duration) {
	fmt.Fprintf(w, "lfsc status — up %v\n", up.Round(time.Millisecond))
	runs := g.Runs()
	if len(runs) > 0 {
		fmt.Fprintf(w, "\nruns (%d):\n", len(runs))
		for _, r := range runs {
			state := "running"
			if r.Done() {
				state = "done"
			}
			progress := ""
			if r.T > 0 {
				progress = fmt.Sprintf(" (%.1f%%)", 100*float64(r.Slots())/float64(r.T))
			}
			fmt.Fprintf(w, "  %-10s slot %d/%d%s  %.0f slots/s  cum reward %.4f  [%s]\n",
				r.Policy, r.Slots(), r.T, progress, r.Rate(), r.CumReward(), state)
		}
	}
	stats := p.Stats()
	if len(stats) > 0 {
		fmt.Fprintf(w, "\nphases:\n")
		fmt.Fprintf(w, "  %-10s %12s %12s %10s %10s %10s %10s %10s\n",
			"phase", "count", "total", "mean", "p50", "p90", "p99", "p999")
		for _, st := range stats {
			fmt.Fprintf(w, "  %-10s %12d %12v %10v %10v %10v %10v %10v\n",
				st.Phase, st.Count,
				time.Duration(st.TotalNS).Round(time.Millisecond),
				time.Duration(st.MeanNS).Round(time.Microsecond),
				time.Duration(st.P50NS).Round(time.Microsecond),
				time.Duration(st.P90NS).Round(time.Microsecond),
				time.Duration(st.P99NS).Round(time.Microsecond),
				time.Duration(st.P999NS).Round(time.Microsecond))
		}
	}
}

// StartProgressLogger prints aggregate slot-rate updates to w every
// interval until the returned stop function is called. Lines go through
// one Fprintf each, so the logger is safe to point at stderr while
// results stream to stdout.
func StartProgressLogger(w io.Writer, g *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		var lastSlots int64
		lastTime := time.Now()
		for {
			select {
			case <-done:
				return
			case now := <-tick.C:
				slots := g.TotalSlots()
				rate := float64(slots-lastSlots) / now.Sub(lastTime).Seconds()
				running := 0
				for _, r := range g.Runs() {
					if !r.Done() {
						running++
					}
				}
				fmt.Fprintf(w, "progress: %d slots done, %.0f slots/s, %d run(s) active\n",
					slots, rate, running)
				lastSlots, lastTime = slots, now
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
