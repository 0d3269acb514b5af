// Command lfscbench regenerates the paper's evaluation artifacts (figures,
// tables, ablations) at any horizon and writes their raw series as CSV.
//
// Usage:
//
//	lfscbench [-exp all|fig2a|fig2b|fig2c|fig3|fig4|ratio|abl-...] \
//	          [-T 10000] [-seed 42] [-outdir results/] [-workers 0] \
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof] \
//	          [-benchjson BENCH_core.json] [-benchserve BENCH_core.json] \
//	          [-benchshards BENCH_shards.json]
//
// Experiment ids and what they reproduce are listed by -list. The full
// five-policy paper run (T=10000) takes a few minutes on a laptop; the
// base run is shared across fig2a/fig2b/fig2c/ratio.
//
// -benchjson runs the single-policy perf harness instead of the
// experiment suite: five live LFSC runs over the paper scenario, scored
// by the fastest one's Decide and Observe probe phases per slot and its
// allocs/slot, and one oracle run for the reward ratio, written as JSON
// (see benchResult in bench.go). -benchserve runs the serve-layer
// harness (internal/serve RunBench: in-process handler loop + real-HTTP
// round trips) and merges its serve_* keys into the same artifact — both
// modes merge rather than overwrite, so they share one BENCH_core.json.
// -benchshards runs only the shard-scaling curve (serve.RunShardBench at
// Shards=1/2/4) and merges its serve_shard_rps_* keys; it's the cheap CI
// smoke behind `make bench-serve-shards`.
// -cpuprofile/-memprofile wrap whichever mode runs in pprof capture.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"lfsc/internal/experiments"
	"lfsc/internal/obs"
	"lfsc/internal/report"
)

func main() {
	var (
		exp         = flag.String("exp", "all", "experiment id or 'all'")
		horizon     = flag.Int("T", 10000, "time horizon (paper: 10000)")
		seed        = flag.Uint64("seed", 42, "master random seed")
		outdir      = flag.String("outdir", "", "directory for CSV exports (optional)")
		workers     = flag.Int("workers", 0, "parallel workers (0 = all cores)")
		list        = flag.Bool("list", false, "list experiment ids and exit")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
		benchjson   = flag.String("benchjson", "", "run the perf harness and write its JSON result to this file")
		benchserve  = flag.String("benchserve", "", "run the serve-layer perf harness and merge its keys into this JSON file")
		benchshards = flag.String("benchshards", "", "run only the serve shard-scaling curve and merge its serve_shard_rps_* keys into this JSON file")
		serveSlots  = flag.Int("serve-slots", 5000, "in-process slots for -benchserve")
		serveHTTP   = flag.Int("serve-http-slots", 2000, "real-HTTP slots for -benchserve and -benchshards")
		observe     = flag.String("observe", "", "serve live telemetry on this address (/lfsc/status, /debug/vars, /debug/pprof)")
	)
	flag.Parse()

	if *list {
		fmt.Println("experiments:")
		for _, id := range experiments.Order() {
			fmt.Printf("  %s\n", id)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}

	// -observe watches any long run live: the per-phase probe and run
	// registry are threaded through every simulation the experiment suite
	// (or the perf harness) starts. Without -observe the experiment suite
	// keeps the probe's nil fast path; -benchjson attaches a private probe,
	// since its figure is read off the probe's phases.
	var obsOpts *obs.Options
	if *observe != "" {
		obsOpts = &obs.Options{Probe: obs.NewProbe(), Registry: obs.NewRegistry()}
		srv, err := obs.StartServer(*observe, obsOpts.Probe, obsOpts.Registry, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "observe: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "observe: serving http://%s/lfsc/status\n", srv.Addr())
	}

	if *benchjson != "" || *benchserve != "" || *benchshards != "" {
		if *benchjson != "" {
			if err := runBenchJSON(*benchjson, *horizon, *seed, obsOpts); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *benchserve != "" {
			if err := runBenchServe(*benchserve, *serveSlots, *serveHTTP, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		if *benchshards != "" {
			if err := runBenchShards(*benchshards, *serveHTTP, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
		}
		return
	}

	opts := experiments.DefaultOptions()
	opts.T = *horizon
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Obs = obsOpts

	ids := experiments.Order()
	if *exp != "all" {
		if experiments.Registry()[*exp] == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
			os.Exit(2)
		}
		ids = []string{*exp}
	}

	// The four base-run figures share one simulation.
	needsBase := map[string]bool{"fig2a": true, "fig2b": true, "fig2c": true, "ratio": true}
	var base *experiments.Base
	getBase := func() (*experiments.Base, error) {
		if base != nil {
			return base, nil
		}
		fmt.Printf("running base scenario (5 policies, T=%d, seed=%d)...\n", opts.T, opts.Seed)
		start := time.Now()
		b, err := experiments.RunBase(opts)
		if err != nil {
			return nil, err
		}
		fmt.Printf("base run finished in %v\n\n", time.Since(start).Round(time.Millisecond))
		base = b
		return base, nil
	}

	for _, id := range ids {
		var res *experiments.Result
		var err error
		start := time.Now()
		if needsBase[id] {
			var b *experiments.Base
			if b, err = getBase(); err == nil {
				switch id {
				case "fig2a":
					res = experiments.Fig2a(b)
				case "fig2b":
					res = experiments.Fig2b(b)
				case "fig2c":
					res = experiments.Fig2c(b)
				case "ratio":
					res = experiments.Ratio(b)
				}
			}
		} else {
			fmt.Printf("running %s (T=%d)...\n", id, opts.T)
			res, err = experiments.Registry()[id](opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Printf("=== %s — %s (%v)\n\n", res.ID, res.Title, time.Since(start).Round(time.Millisecond))
		if res.Table != nil {
			fmt.Println(res.Table.String())
		}
		for _, ch := range res.Charts {
			fmt.Println(ch.String())
		}
		for _, n := range res.Notes {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println()
		if *outdir != "" && len(res.CSVSeries) > 0 {
			if err := os.MkdirAll(*outdir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "outdir: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*outdir, res.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
				os.Exit(1)
			}
			if err := report.WriteSeriesCSV(f, res.CSVHeaders, res.CSVSeries); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
				f.Close()
				os.Exit(1)
			}
			f.Close()
			fmt.Printf("wrote %s\n\n", path)
		}
	}
}
