// Command perfbench is the repository's end-to-end benchmark. It drives
// the real system from outside: serve workloads build cmd/lfscd from the
// tree, boot it as a child process on 127.0.0.1:0 and replay a seeded
// trace against it in lockstep over loopback HTTP; the offline workload
// calls sim.Run in-process. Every run is checked: the client's,
// daemon's and an offline sim.Run's cumulative rewards must agree bit
// for bit (paper-sim: repeat exactly), or the benchmark exits non-zero
// without printing metrics.
//
// Usage, from the repository root (run.sh builds this program first):
//
//	bash perfbench/run.sh [--workload all|paper-step|small-step|paper-sim|churn-shard2-ckpt]
//	                      [--seed 42] [--seconds 10] [--trace 0|1]
//
// --trace 0 measures the end-to-end metrics on an untraced run. --trace 1
// makes an untraced and a traced run of the workload and reports the
// per-layer metrics, printing a layer table first. The last line of
// standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
//
// Metrics a workload's path does not contain are reported as 0 (for
// instance the serve layers on paper-sim).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"lfsc/internal/sim"
)

// metricDef is one reported metric, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"slots_per_s", "1/s"},
	{"step_p50_ms", "ms"},
	{"reward_ratio", "ratio"},
	{"cpu_us_per_slot", "us"},
	{"peak_rss_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"client.step_p99_ms", "ms"},
	{"client.prep_us", "us"},
	{"serve.wire_us", "us"},
	{"serve.engine.stage_us", "us"},
	{"serve.engine.view_us", "us"},
	{"serve.engine.decide_us", "us"},
	{"serve.engine.merge_us", "us"},
	{"serve.engine.observe_us", "us"},
	{"serve.engine.checkpoint_us", "us"},
	{"serve.engine.shard_skew", "ratio"},
	{"serve.rx_bytes_per_slot", "B"},
	{"serve.tx_bytes_per_slot", "B"},
	{"serve.syscalls_per_slot", "count"},
	{"serve.cpu_sys_share", "ratio"},
	{"serve.mallocs_per_slot", "count"},
	{"serve.gc_pause_us_per_slot", "us"},
	{"serve.conn_reuse_ratio", "ratio"},
	{"core.decide_us", "us"},
	{"core.decide_p99_us", "us"},
	{"core.observe_us", "us"},
	{"core.observe_p99_us", "us"},
	{"core.tasks_per_slot", "count"},
	{"core.assigned_per_slot", "count"},
	{"core.fill_ratio", "ratio"},
	{"trace.next_us", "us"},
	{"sim.rest_us", "us"},
	{"trace_overhead", "ratio"},
	{"attributed_share", "ratio"},
}

// workload is one named input set (BENCHMARK.json says why each was
// chosen). serve is nil for the in-process paper-sim.
type workload struct {
	name  string
	serve *serveWorkload
}

var workloads = []workload{
	{
		name: "paper-step",
		serve: &serveWorkload{
			replay: paperReplay(10000), warmup: 200, rewardSlots: 1000,
		},
	},
	{
		name: "small-step",
		serve: &serveWorkload{
			replay: smallReplay(300000), warmup: 2000, rewardSlots: 10000,
		},
	},
	{
		name: "paper-sim",
	},
	{
		name: "churn-shard2-ckpt",
		serve: &serveWorkload{
			replay: paperReplay(10000), scenario: "scenarios/churn.scn",
			shards: 2, checkpointEvery: 10, warmup: 200, rewardSlots: 1000,
		},
	},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root holding go.mod, cmd/lfscd and scenarios/")
	work := fs.String("work", "", "directory for binaries and temporary files (default <root>/.bench_build/perfbench)")
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 42, "workload seed")
	seconds := fs.Int("seconds", 10, "timed window per run, seconds")
	traceFlag := fs.Int("trace", 0, "1 = add a traced run and report per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	if *work == "" {
		*work = filepath.Join(*root, ".bench_build", "perfbench")
	}
	traced := *traceFlag == 1

	b, err := newBench(*root, *work, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer b.close()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		b.close()
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", s)
		os.Exit(1)
	}()

	for _, w := range selected {
		if w.serve != nil {
			if b.daemonBin, err = buildDaemon(b.root, b.dir); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				return 1
			}
			break
		}
	}

	final := report{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range selected {
		o, err := b.runWorkload(w, traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		rep, err := o.toReport(traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		o.print(stdout, w.name, b, traced)
		final.Attempted += rep.Attempted
		final.Failed += rep.Failed
		if len(selected) == 1 {
			final.Metrics = rep.Metrics
			break
		}
		line, _ := json.Marshal(rep) // a report of finite floats always marshals
		fmt.Fprintf(stdout, "%s %s\n", w.name, line)
		for k, v := range rep.Metrics {
			final.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// bench is one invocation's shared state.
type bench struct {
	root      string
	dir       string // this invocation's temporary directory
	seed      uint64
	seconds   time.Duration
	sup       *supervisor
	hc        *http.Client
	daemonBin string
	dirs      int
}

func newBench(root, work string, seed uint64, seconds time.Duration) (*bench, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(work, "runs", fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &bench{
		root: root, dir: dir, seed: seed, seconds: seconds,
		sup: newSupervisor(),
		hc:  &http.Client{Timeout: 10 * time.Second},
	}, nil
}

// close stops every child and removes the invocation's temporary files.
func (b *bench) close() {
	b.sup.killAll()
	_ = os.RemoveAll(b.dir) // temporary files only; nothing to report
}

// freshDir returns a new, empty directory for one daemon's files.
func (b *bench) freshDir() (string, error) {
	b.dirs++
	d := filepath.Join(b.dir, fmt.Sprintf("daemon-%02d", b.dirs))
	return d, os.MkdirAll(d, 0o755)
}

// outcome is what one workload invocation measured.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64 // untraced run, at nominal host speed
	raw               map[string]float64 // the same, as measured
	speed             float64            // the untraced run's host speed factor
	stolen            time.Duration      // by the host in its timed window
	refSamples        int
	layers            map[string]float64 // traced invocations only
	rows              []layerRow
	wallNS            float64 // traced wall time per slot
	slots, timed      int     // timed slots are also the step latency samples

	reward         float64 // LFSC's cumulative reward over the whole run
	checked        string  // what the correctness gate compared
	prefix, oracle float64 // LFSC's and the oracle's over the first prefixSlots
	prefixSlots    int
}

func (b *bench) runWorkload(w workload, traced bool) (*outcome, error) {
	if w.serve == nil {
		return b.runPaperSim(traced)
	}
	base, err := w.serve.run(b, false)
	if err != nil {
		return nil, err
	}
	f := base.host.speed()
	o := &outcome{
		attempted: base.attempted, failed: base.failed,
		e2e: base.endToEnd(f), raw: base.endToEnd(asMeasured), speed: f, refSamples: len(base.host.rates),
		stolen: base.stolen, slots: base.slots, timed: len(base.rttNS),
		reward: base.clientReward, prefix: base.rewardPrefix, oracle: base.oracleReward,
		checked:     "client == daemon == offline sim.Run",
		prefixSlots: w.serve.rewardSlots,
	}
	if !traced {
		return o, nil
	}
	tr, err := w.serve.run(b, true)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	o.attempted += tr.attempted
	o.failed += tr.failed
	o.layers = map[string]float64{"client.step_p99_ms": o.raw["step_p99_ms"]}
	base.processLayers(o.layers)
	if o.rows, err = tr.engineLayers(o.layers); err != nil {
		return nil, err
	}
	o.wallNS = tr.wallPerSlotNS()
	o.layers["trace_overhead"] = tr.slotNS(tr.host.speed())/base.slotNS(f) - 1
	return o, nil
}

func (b *bench) runPaperSim(traced bool) (*outcome, error) {
	base, err := runSim(b.seed, b.seconds, false)
	if err != nil {
		return nil, err
	}
	if base.oracle, err = oracleReward(sim.PaperScenario(), ratioSlots, b.seed); err != nil {
		return nil, err
	}
	f := base.host.speed()
	o := &outcome{
		attempted: base.slots,
		e2e:       base.endToEnd(f), raw: base.endToEnd(asMeasured), speed: f, refSamples: len(base.host.rates),
		stolen: base.stolen, slots: base.slots, timed: len(base.slotNS),
		reward: base.reward, prefix: base.prefix, oracle: base.oracle, prefixSlots: ratioSlots,
		checked: "identical in every repetition",
	}
	if !traced {
		return o, nil
	}
	tr, err := runSim(b.seed, b.seconds, true)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if math.Float64bits(tr.reward) != math.Float64bits(base.reward) {
		return nil, fmt.Errorf("traced run reward %x != untraced %x", tr.reward, base.reward)
	}
	o.attempted += tr.slots
	o.layers = map[string]float64{"client.step_p99_ms": o.raw["step_p99_ms"]}
	o.rows = tr.layers(o.layers)
	o.wallNS = tr.wallNS / float64(tr.slots)
	o.layers["trace_overhead"] = tr.medianSlotNS(tr.host.speed())/base.medianSlotNS(f) - 1
	return o, nil
}

// metricValue is one metric in the JSON report.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report builds the JSON report: every end-to-end metric untraced, every
// per-layer metric traced (0 where the workload's path lacks the layer).
func (o *outcome) toReport(traced bool) (report, error) {
	defs, vals := endToEndMetrics, o.e2e
	if traced {
		defs, vals = perLayerMetrics, o.layers
	}
	r := report{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return r, nil
}

// print writes the human-readable report: the run stamp, every
// end-to-end metric by name with its unit, and (traced) the layer table.
func (o *outcome) print(w io.Writer, name string, b *bench, traced bool) {
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%v trace=%v go=%s num_cpu=%d gomaxprocs=%d slots=%d timed_slots=%d\n",
		name, b.seed, b.seconds.Seconds(), traced, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), o.slots, o.timed)
	fmt.Fprintf(w, "# attempted=%d failed=%d fail_ratio=%g\n", o.attempted, o.failed, float64(o.failed)/float64(o.attempted))
	fmt.Fprintf(w, "# cum_reward=%.6f over %d slots (%s); first %d slots: lfsc %.6f, oracle %.6f\n",
		o.reward, o.slots, o.checked, o.prefixSlots, o.prefix, o.oracle)
	fmt.Fprintf(w, "# host: speed factor %.4f (reference %.0f/s median over %d samples, nominal %.0f/s); %v stolen from the timed window\n",
		o.speed, o.speed*refNominal, o.refSamples, refNominal, o.stolen)
	fmt.Fprintf(w, "%-18s %16s %16s %s\n", "metric", "value", "raw", "unit")
	// The step p99 is printed here but reported as a per-layer figure:
	// on a shared host it mostly measures the host's scheduling stalls.
	shown := append(append([]metricDef(nil), endToEndMetrics...), metricDef{"step_p99_ms", "ms"})
	for _, d := range shown {
		note := ""
		switch d.name {
		case "step_p50_ms":
			note = fmt.Sprintf("  (n=%d, %d beyond)", o.timed, beyond(p50, o.timed))
		case "step_p99_ms":
			note = fmt.Sprintf("  (n=%d, %d beyond)", o.timed, beyond(p99, o.timed))
		}
		fmt.Fprintf(w, "%-18s %16.6f %16.6f %-6s%s\n", d.name, o.e2e[d.name], o.raw[d.name], d.unit, note)
	}
	if !traced {
		return
	}
	fmt.Fprintf(w, "\n%-26s %12s %12s %12s %8s\n", "layer (per slot)", "mean_us", "p50_us", "p99_us", "share")
	for _, r := range o.rows {
		label := r.name
		if !r.counted {
			label = "  " + r.name + " (in decide)"
		}
		fmt.Fprintf(w, "%-26s %12.2f %12.2f %12.2f %7.2f%%\n", label, r.s.Mean/1e3, r.s.P50/1e3, r.s.P99/1e3, 100*r.share)
	}
	fmt.Fprintf(w, "%-26s %12.2f\n", "traced wall", o.wallNS/1e3)
	fmt.Fprintf(w, "attributed_share %.4f  trace_overhead %+.4f\n\n", o.layers["attributed_share"], o.layers["trace_overhead"])
	for _, d := range perLayerMetrics {
		fmt.Fprintf(w, "%-28s %16.6f %s\n", d.name, o.layers[d.name], d.unit)
	}
}

// layerRow is one line of the traced layer table.
type layerRow struct {
	name    string
	s       summary // nanoseconds per slot
	share   float64 // mean over traced wall time per slot
	counted bool    // false for a stage nested inside another row
}

func newRow(name string, ns []float64, wallNS float64, counted bool) layerRow {
	s := summarize(ns)
	return layerRow{name: name, s: s, share: s.Mean / wallNS, counted: counted}
}

// attributed sums the mean time of the rows that partition a slot.
func attributed(rows []layerRow) float64 {
	t := 0.0
	for _, r := range rows {
		if r.counted {
			t += r.s.Mean
		}
	}
	return t
}
