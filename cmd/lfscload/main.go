// Command lfscload replays a seeded synthetic trace against a running
// lfscd daemon over HTTP: it regenerates the workload slot by slot,
// submits each slot's arrivals, realises outcomes for the returned
// assignment with the simulator's common-random-number scheme, and
// reports them back. At the end it prints throughput, shed rate,
// connection reuse, client-observed latency percentiles, and the
// cumulative reward — which, when the daemon was started with the
// matching scenario and seed, is bit-identical to an offline
// `lfscsim -policies lfsc` run.
//
// By default the generator rides the batched /v1/step endpoint (one
// round trip per slot: previous slot's outcomes + next slot's arrivals)
// over a pooled keep-alive connection, each request sent in one write
// and its reply read on the calling goroutine; -no-step selects the
// classic /v1/submit + /v1/report pair.
//
// Usage:
//
//	lfscload [-addr localhost:9090] [-T 1000] [-from 0] [-resume]
//	         [-scns 30] [-min 35] [-max 100] [-overlap 0.3]
//	         [-c 20] [-alpha 15] [-beta 27] [-h 3] [-seed 42]
//	         [-latency-ctx] [-progress 0] [-no-step] [-shards 1]
//	         [-scenario churn.scn] [-scenario-T 10000]
//	         [-slo-json BENCH_serve.json]
//
// The end-of-run report includes the client-observed SLO summary
// (p50/p90/p99/p999 latency + shed rate) and, when the daemon runs an
// SLO tracker, the daemon-side rolling-window view. -slo-json appends
// the whole summary as one JSON line to a history file (one entry per
// run — BENCH_serve.json by convention), so load-test SLOs accumulate
// a comparable trajectory the way BENCH_core.json does for perf.
//
// -resume asks the daemon for its current slot and replays from there —
// the companion to lfscd's checkpointed restart.
//
// -scenario declares the scenario timeline the daemon is expected to be
// serving under (same file and -scns/-c/-seed as the daemon, with
// -scenario-T equal to the daemon's schedule horizon -T — the drive
// range -T may be shorter): before replaying, the generator compares
// its timeline digest against the daemon's /v1/stats and refuses to run
// on a mismatch — replaying against the wrong dynamics would produce
// silently divergent rewards. The digest is also recorded in the
// -slo-json history line.
//
// -shards > 1 fans requests over a per-shard connection pool using the
// daemon's consistent-hash routing (match the daemon's -shards), so each
// shard's traffic keeps connection affinity. The protocol and rewards
// are identical either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/obs"
	"lfsc/internal/scenario"
	"lfsc/internal/serve"
	"lfsc/internal/trace"
)

// loadConn is what the generator needs from its transport — the replay
// protocol plus the stats/reuse introspection the summary prints.
// Satisfied by *serve.Client and *serve.ShardPool.
type loadConn interface {
	serve.Conn
	Stats() (*serve.Stats, error)
	ConnStats() (created, reused uint64)
}

func main() {
	var (
		addr     = flag.String("addr", "localhost:9090", "daemon address (host:port)")
		horizon  = flag.Int("T", 1000, "replay through slot T")
		from     = flag.Int("from", 0, "first slot to replay")
		resume   = flag.Bool("resume", false, "start from the daemon's current slot (overrides -from)")
		scns     = flag.Int("scns", 30, "number of SCNs")
		minTasks = flag.Int("min", 35, "min tasks per SCN per slot")
		maxTasks = flag.Int("max", 100, "max tasks per SCN per slot")
		overlap  = flag.Float64("overlap", 0.3, "coverage overlap probability")
		capacity = flag.Int("c", 20, "per-SCN beam budget (scenario echo)")
		alpha    = flag.Float64("alpha", 15, "QoS floor (scenario echo)")
		beta     = flag.Float64("beta", 27, "resource ceiling (scenario echo)")
		hGrain   = flag.Int("h", 3, "hypercube granularity per context dim")
		seed     = flag.Uint64("seed", 42, "master seed (must match the daemon's)")
		latCtx   = flag.Bool("latency-ctx", false, "use the 4-D context with the latency class")
		progress = flag.Int("progress", 0, "print a progress line every N slots (0 = off)")
		noStep   = flag.Bool("no-step", false, "use the classic submit+report pair instead of batched /v1/step")
		shards   = flag.Int("shards", 1, "route over a per-shard connection pool (match the daemon's -shards)")
		scenFile = flag.String("scenario", "", "scenario config the daemon serves under (digest-checked against /v1/stats)")
		scenT    = flag.Int("scenario-T", 10000, "scenario timeline horizon — must match the daemon's -T (the drive range -T can be shorter)")
		sloJSON  = flag.String("slo-json", "", "append the end-of-run SLO report as one JSON line to this history file (e.g. BENCH_serve.json)")
	)
	flag.Parse()

	sc := serve.ReplayScenario{
		Synthetic: trace.SyntheticConfig{
			SCNs: *scns, MinTasks: *minTasks, MaxTasks: *maxTasks,
			Overlap: *overlap, LatencySensitiveFrac: 0.5,
		},
		EnvCfg:   env.DefaultConfig(*scns, 27),
		Capacity: *capacity, Alpha: *alpha, Beta: *beta,
		H: *hGrain, T: *horizon,
		UseLatencyContext: *latCtx,
		Seed:              *seed,
	}
	var scenDigest string
	if *scenFile != "" {
		scfg, err := scenario.ParseFile(*scenFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscload: scenario: %v\n", err)
			os.Exit(1)
		}
		tl, err := scenario.Build(scfg, *scns, *scenT, *capacity, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscload: scenario: %v\n", err)
			os.Exit(1)
		}
		sc.Scenario = tl
		scenDigest = tl.Digest()
	}
	rep, err := serve.NewReplayer(sc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfscload: %v\n", err)
		os.Exit(1)
	}
	rep.SetUseStep(!*noStep)
	var client loadConn = serve.NewClient(*addr)
	if *shards > 1 {
		client = serve.NewShardPool(*addr, *shards)
	}

	// Verify the scenario contract up front: replaying against a daemon
	// with different (or no) dynamics would diverge silently, so check
	// the digest before submitting a single task.
	if *scenFile != "" {
		dst, err := client.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscload: -scenario: %v\n", err)
			os.Exit(1)
		}
		switch {
		case dst.Scenario == nil:
			fmt.Fprintf(os.Stderr, "lfscload: -scenario: daemon serves the static topology (start lfscd with the same -scenario file)\n")
			os.Exit(1)
		case dst.Scenario.Digest != scenDigest:
			fmt.Fprintf(os.Stderr, "lfscload: -scenario: digest mismatch: client %s, daemon %s (check -scenario/-scns/-c/-scenario-T/-seed; -scenario-T must equal the daemon's -T)\n",
				scenDigest, dst.Scenario.Digest)
			os.Exit(1)
		}
	}

	start := *from
	if *resume {
		st, err := client.Stats()
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscload: -resume: %v\n", err)
			os.Exit(1)
		}
		start = st.Slot
		fmt.Fprintf(os.Stderr, "lfscload: daemon at slot %d, resuming there\n", start)
	}
	if start >= *horizon {
		fmt.Fprintf(os.Stderr, "lfscload: nothing to do (from=%d, T=%d)\n", start, *horizon)
		return
	}

	var onSlot func(serve.SlotResult)
	if *progress > 0 {
		onSlot = func(r serve.SlotResult) {
			if (r.Slot+1)%*progress == 0 {
				fmt.Fprintf(os.Stderr, "lfscload: slot %d/%d  cum reward %.4f\n",
					r.Slot+1, *horizon, rep.CumReward())
			}
		}
	}

	t0 := time.Now()
	st, err := rep.Run(client, start, *horizon, onSlot)
	wall := time.Since(t0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfscload: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("slots:      %d (%.1f/s over %v)\n",
		st.Slots, float64(st.Slots)/wall.Seconds(), wall.Round(time.Millisecond))
	fmt.Printf("tasks:      %d submitted, %d assigned\n", st.Tasks, st.Assigned)
	fmt.Printf("shed slots: %d (%.2f%%)\n",
		st.ShedSlots, 100*float64(st.ShedSlots)/float64(max(st.Slots, 1)))
	fmt.Printf("cum reward: %.6f\n", st.CumReward)
	if created, reused := client.ConnStats(); created+reused > 0 {
		fmt.Printf("conn reuse: %.2f%% (%d new, %d reused)\n",
			100*float64(reused)/float64(created+reused), created, reused)
	}
	ls := rep.Latency.Stat("request")
	if ls.Count > 0 {
		fmt.Printf("latency:    n=%d mean=%v p50=%v p90=%v p99=%v p999=%v\n",
			ls.Count,
			time.Duration(ls.MeanNS).Round(time.Microsecond),
			time.Duration(ls.P50NS).Round(time.Microsecond),
			time.Duration(ls.P90NS).Round(time.Microsecond),
			time.Duration(ls.P99NS).Round(time.Microsecond),
			time.Duration(ls.P999NS).Round(time.Microsecond))
	}
	shedRate := float64(st.ShedSlots) / float64(max(st.Slots, 1))
	entry := sloEntry{
		Name: "lfscload", Timestamp: time.Now().UTC().Format(time.RFC3339),
		From: start, TSlots: *horizon, Slots: st.Slots, Shards: *shards,
		Seed: *seed, WallMS: float64(wall.Milliseconds()),
		SlotsPerSec: float64(st.Slots) / wall.Seconds(),
		Tasks:       st.Tasks, Assigned: st.Assigned,
		ShedSlots: st.ShedSlots, ShedRate: shedRate,
		CumReward: st.CumReward, Scenario: scenDigest,
		LatMeanNS: ls.MeanNS, LatP50NS: ls.P50NS, LatP90NS: ls.P90NS,
		LatP99NS: ls.P99NS, LatP999NS: ls.P999NS,
	}
	if dst, err := client.Stats(); err == nil {
		fmt.Printf("daemon:     slot %d  cum reward %.6f  shed requests %d  late slots %d\n",
			dst.Slot, dst.CumReward, dst.ShedRequests, dst.LateSlots)
		if dst.SLO != nil {
			s := dst.SLO
			fmt.Printf("daemon slo: window %ds  n=%d  p50=%v p99=%v p999=%v  shed %.2f%% (budget %.2f%%)\n",
				s.WindowSec, s.Requests,
				time.Duration(s.P50NS).Round(time.Microsecond),
				time.Duration(s.P99NS).Round(time.Microsecond),
				time.Duration(s.P999NS).Round(time.Microsecond),
				100*s.ShedRate, 100*s.ShedBudget)
			entry.DaemonSLO = s
		}
	}
	if *sloJSON != "" {
		if err := appendSLOEntry(*sloJSON, &entry); err != nil {
			fmt.Fprintf(os.Stderr, "lfscload: -slo-json: %v\n", err)
			os.Exit(1)
		}
	}
}

// sloEntry is one BENCH_serve.json history line: the end-of-run SLO
// report in machine-readable form.
type sloEntry struct {
	Name      string `json:"name"`
	Timestamp string `json:"timestamp"`
	From      int    `json:"from"`
	TSlots    int    `json:"t_slots"`
	Slots     int    `json:"slots"`
	Shards    int    `json:"shards"`
	Seed      uint64 `json:"seed"`

	WallMS      float64 `json:"wall_ms"`
	SlotsPerSec float64 `json:"slots_per_sec"`
	Tasks       int     `json:"tasks"`
	Assigned    int     `json:"assigned"`
	ShedSlots   int     `json:"shed_slots"`
	ShedRate    float64 `json:"shed_rate"`
	CumReward   float64 `json:"cum_reward"`
	// Scenario is the timeline digest the run replayed under (empty for
	// the static topology).
	Scenario string `json:"scenario,omitempty"`

	LatMeanNS float64 `json:"lat_mean_ns"`
	LatP50NS  float64 `json:"lat_p50_ns"`
	LatP90NS  float64 `json:"lat_p90_ns"`
	LatP99NS  float64 `json:"lat_p99_ns"`
	LatP999NS float64 `json:"lat_p999_ns"`

	// DaemonSLO is the daemon's rolling-window view at run end (when the
	// daemon was started with an SLO tracker).
	DaemonSLO *obs.SLOReport `json:"daemon_slo,omitempty"`
}

// appendSLOEntry appends the entry as one JSON line (the history file is
// JSON Lines: one run per line, append-only).
func appendSLOEntry(path string, e *sloEntry) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	return json.NewEncoder(f).Encode(e)
}
