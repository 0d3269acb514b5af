// Command lfscd is the online decision-serving daemon: the MBS side of
// the paper's framework, run as a service. Clients POST task arrivals
// (context vector + visible SCNs) to /v1/submit; a slot-clocked batcher
// aggregates them into a slot, runs the LFSC decision, and returns each
// task's SCN assignment. Realised outcomes come back through /v1/report
// and drive the bandit update; /v1/step batches both into one round
// trip (previous slot's outcomes + next slot's arrivals). The hot
// endpoints run a zero-allocation wire path — pooled request objects,
// in-place decoding, append-based encoding. Queues are bounded — under
// overload the daemon sheds submissions with 429 instead of building
// unbounded backlog.
//
// Usage:
//
//	lfscd [-addr :9090] [-scns 30] [-c 20] [-alpha 15] [-beta 27]
//	      [-h 3] [-kmax 200] [-T 10000] [-seed 42] [-latency-ctx]
//	      [-shards 1] [-scenario churn.scn]
//	      [-slot-every 100ms] [-max-batch 0] [-queue-cap 0]
//	      [-report-wait 2s]
//	      [-checkpoint lfscd.ckpt] [-checkpoint-every 100]
//	      [-snapshots f.jsonl] [-snap-every 100]
//	      [-metrics] [-slot-trace 256] [-slot-trace-jsonl f.jsonl]
//	      [-slo-window 60] [-slo-shed-budget 0.01]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -shards splits the learner into consistent-hash SCN groups that decide
// and observe in parallel; decisions stay bit-identical at any shard
// count, and the default single shard runs on the goroutine closing the
// slot (DESIGN.md §11).
//
// -scenario imposes a timeline of SCN dynamics (sleep schedules, random
// churn, capacity and budget cycles — see DESIGN.md §13) on serving:
// each decided slot masks down SCNs out of the view and applies the
// per-SCN capacity/budget vectors. The timeline derives from -seed, so
// daemon, load generator, and offline simulator replaying the same
// scenario file and seed see identical dynamics. Checkpoints record the
// scenario digest and a restore under a different (or missing) scenario
// is refused.
//
// Lifecycle: on boot the daemon restores -checkpoint when the file
// exists and resumes the learner bit-exactly (weights, multipliers,
// slot counter, RNG streams, reward accumulator). It checkpoints
// atomically every -checkpoint-every slots and again on SIGINT/SIGTERM
// before exiting, so a kill at any point loses at most the slots since
// the last periodic write — never the file. The daemon writes one file
// per shard plus a manifest at the -checkpoint path, and restores it at
// any -shards count (each shard takes its rows from whichever file
// carries them); a single-file checkpoint from before the manifest
// layout restores the same way.
//
// Observability: /lfsc/status (plain text), /v1/stats (JSON),
// /metrics (Prometheus text exposition, on by default — disable with
// -metrics=false), /lfsc/slots (the slot-lifecycle trace ring as JSON;
// -slot-trace sets the ring size, -slot-trace-jsonl additionally streams
// every record to a file), /debug/vars (expvar, including "lfsc_serve"),
// /debug/pprof. -slo-window/-slo-shed-budget configure the rolling
// latency/shed SLO tracker surfaced on all three status surfaces. None
// of it perturbs serving: instrumented runs are bit-identical to bare
// runs and the wire path stays at 0 allocs/request (DESIGN.md §12).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"lfsc/internal/obs"
	"lfsc/internal/scenario"
	"lfsc/internal/serve"
	"lfsc/internal/task"
)

func main() {
	var (
		addr     = flag.String("addr", ":9090", "HTTP listen address")
		scns     = flag.Int("scns", 30, "number of SCNs")
		capacity = flag.Int("c", 20, "per-SCN beam budget")
		alpha    = flag.Float64("alpha", 15, "QoS floor (min completed tasks)")
		beta     = flag.Float64("beta", 27, "resource ceiling")
		hGrain   = flag.Int("h", 3, "hypercube granularity per context dim")
		kmax     = flag.Int("kmax", 200, "bound on per-SCN visible tasks per slot")
		horizon  = flag.Int("T", 10000, "schedule horizon (slots)")
		seed     = flag.Uint64("seed", 42, "master seed (policy stream = Derive(3))")
		latCtx   = flag.Bool("latency-ctx", false, "use the 4-D context with the latency class")
		shards   = flag.Int("shards", 1, "learner shards (consistent-hash SCN groups; decisions are bit-identical at any count)")
		scenFile = flag.String("scenario", "", "scenario config file: SCN sleep/churn/capacity/budget dynamics over slots")

		slotEvery  = flag.Duration("slot-every", 100*time.Millisecond, "slot clock (0 = close only at KMax/MaxBatch/explicit close)")
		maxBatch   = flag.Int("max-batch", 0, "close the slot at this many tasks (0 = SCNs*KMax)")
		queueCap   = flag.Int("queue-cap", 0, "pending-task budget before shedding (0 = 4*MaxBatch)")
		subQueue   = flag.Int("sub-queue", 0, "submission channel depth (0 = 64)")
		reportWait = flag.Duration("report-wait", 2*time.Second, "how long a decided slot waits for outcome reports")

		ckptPath  = flag.String("checkpoint", "", "checkpoint file (restore on boot, write periodically and on shutdown)")
		ckptEvery = flag.Int("checkpoint-every", 100, "periodic checkpoint interval in slots (0 = only on shutdown)")

		snapPath = flag.String("snapshots", "", "write policy-state snapshots as JSONL to this file")
		snapK    = flag.Int("snap-every", 100, "snapshot sampling period in slots")

		metricsOn = flag.Bool("metrics", true, "serve Prometheus metrics at /metrics")
		traceN    = flag.Int("slot-trace", 256, "slot-lifecycle trace ring size, served at /lfsc/slots (0 = off)")
		traceOut  = flag.String("slot-trace-jsonl", "", "additionally stream every slot-trace record to this JSONL file")
		sloWindow = flag.Int("slo-window", 60, "rolling SLO window in seconds (0 = off)")
		sloBudget = flag.Float64("slo-shed-budget", 0.01, "shed-rate budget for the SLO window (fraction of requests)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the serving run to this file (stopped at shutdown)")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at shutdown")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscd: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "lfscd: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		// Deferred, so it runs after eng.Stop(): the heap picture is the
		// quiesced daemon — pooled buffers and learner state, not
		// in-flight requests.
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lfscd: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "lfscd: memprofile: %v\n", err)
			}
		}()
	}

	dims := task.ContextDims
	if *latCtx {
		dims++
	}
	cfg := serve.Config{
		SCNs: *scns, Capacity: *capacity, Alpha: *alpha, Beta: *beta,
		Dims: dims, H: *hGrain, KMax: *kmax, Horizon: *horizon, Seed: *seed,
		Shards:    *shards,
		SlotEvery: *slotEvery, MaxBatch: *maxBatch, QueueCap: *queueCap,
		SubQueue: *subQueue, ReportWait: *reportWait,
		CheckpointPath: *ckptPath, CheckpointEvery: *ckptEvery,
		Probe:    obs.NewProbe(),
		Registry: obs.NewRegistry(),
	}
	if *scenFile != "" {
		scfg, err := scenario.ParseFile(*scenFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscd: scenario: %v\n", err)
			os.Exit(1)
		}
		tl, err := scenario.Build(scfg, *scns, *horizon, *capacity, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscd: scenario: %v\n", err)
			os.Exit(1)
		}
		cfg.Scenario = tl
		fmt.Fprintf(os.Stderr, "lfscd: %s\n", tl)
	}
	if *snapPath != "" {
		f, err := os.Create(*snapPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscd: snapshots: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.SnapshotEvery = *snapK
		cfg.SnapshotSink = obs.NewJSONLWriter(f)
	}
	if *metricsOn {
		cfg.Metrics = obs.NewMetrics()
	}
	if *sloWindow > 0 {
		cfg.SLO = obs.NewSLO(*sloWindow, *sloBudget)
	}
	if *traceN > 0 {
		cfg.SlotRing = obs.NewSlotRing(*traceN, *shards)
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "lfscd: slot-trace-jsonl: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			cfg.SlotRing.SetSink(obs.NewJSONLWriter(f))
		}
	}

	eng, err := serve.NewEngine(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfscd: %v\n", err)
		os.Exit(1)
	}
	if *ckptPath != "" {
		restored, err := eng.RestoreIfPresent(*ckptPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "lfscd: restore: %v\n", err)
			os.Exit(1)
		}
		if restored {
			fmt.Fprintf(os.Stderr, "lfscd: restored %s: resuming at slot %d, cum reward %.4f\n",
				*ckptPath, eng.Slot(), eng.CumReward())
		}
	}

	srv, err := serve.StartServer(*addr, eng)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lfscd: %v\n", err)
		os.Exit(1)
	}
	eng.Start()
	fmt.Fprintf(os.Stderr, "lfscd: serving http://%s/lfsc/status (M=%d c=%d α=%g β=%g h=%d kmax=%d T=%d seed=%d shards=%d)\n",
		srv.Addr(), *scns, *capacity, *alpha, *beta, *hGrain, *kmax, *horizon, *seed, *shards)

	// Graceful shutdown: finish the slot in flight, write the final
	// checkpoint, then exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "lfscd: %v: checkpointing and shutting down\n", s)
	srv.Close()
	eng.Stop()
	fmt.Fprintf(os.Stderr, "lfscd: stopped at slot %d, cum reward %.4f\n", eng.Slot(), eng.CumReward())
}
