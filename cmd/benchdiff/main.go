// Command benchdiff compares two BENCH_core.json perf-trajectory artifacts
// (see cmd/lfscbench -benchjson / -benchserve) and reports the deltas in
// the figures the repo tracks across commits: ns/slot, allocs/slot, the
// LFSC/Oracle reward ratio, and — when present — the serve-layer block
// (serve_ns_per_slot, serve_allocs_per_slot, serve_allocs_per_req,
// serve_http_rps).
//
// Usage:
//
//	benchdiff [flags] OLD.json NEW.json
//	benchdiff -slo-history BENCH_serve.json
//
// -slo-history switches benchdiff from artifact diffing to history
// validation: the named file is the JSON-Lines SLO history appended by
// lfscload -slo-json, and every line must be a complete, well-formed
// entry. A malformed line, a partial trailing line (an interrupted
// append), or an entry with nonsense figures fails with the offending
// line number instead of being silently skipped — the history is a
// measurement record, and a reader that tolerates corruption will one
// day average over it. Exit status 0 for a clean history, 1 for a
// corrupt one, 2 on IO/usage errors.
//
// The exit status encodes the verdict so the comparison can gate CI or a
// local pre-commit check (make bench-diff): 0 when NEW is within the
// regression thresholds, 1 on a perf regression or a reward-ratio drift,
// 2 on usage/IO errors. Timing is compared with a relative threshold
// (default 25%, generous because single-run wall clock on a shared box is
// noisy); the reward ratio is compared with an absolute epsilon (default
// 1e-9) because the simulation is deterministic — any drift there means
// the computation itself changed, not the machine.
//
// Optional keys are guarded, not merely informational: a key present in
// OLD that disappears from NEW fails the diff (a harness silently
// dropping a figure is itself a regression). core_workers_speedup is
// compared against an absolute floor (-min-workers-speedup; nominally
// 1.0 with noise grace for single-core machines). Serve timing shares
// the ns/slot threshold, serve allocs/req gets a +0.5 absolute grace on
// top of the relative one (its baseline is 0), and serve HTTP throughput
// fails when it drops below 75% of OLD.
//
// serve_ns_per_slot_obs (the same loop with the observability stack
// enabled) is gated against NEW's own serve_ns_per_slot_probe — the
// shipped metrics-off baseline (lfscd always runs its slot-phase
// probe) — not against OLD: it must stay within 105% of that figure,
// pinning the design rule that metric series are scrape-time reads and
// the slot tracer/SLO share the probe's clock reads rather than adding
// hot-path work of their own.
//
// The shard scaling curve (serve_shard_rps_1/2/4) is gated num_cpu-aware.
// rps_1 carries the same 75%-of-OLD floor as the headline throughput.
// rps_2/rps_4 are checked against NEW's own rps_1 — at least 97% of it
// when NEW's machine has at least that many CPUs (the curve must be
// monotone non-decreasing where it has room to run; 3% is measurement
// grace, not a scaling allowance), and at least 35% of it
// otherwise (on a starved box the parallel phase can only add overhead,
// but it must not crater the data plane).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchResult mirrors the fields of cmd/lfscbench's artifact schema that
// the diff consumes; unknown fields are ignored so the schemas can evolve
// independently. The serve-layer block is optional (pointer fields — nil
// means the artifact predates the serve harness or didn't run it); extra
// keys beyond both blocks are reported informationally, never fatally.
type benchResult struct {
	Name          string  `json:"name"`
	Timestamp     string  `json:"timestamp"`
	TSlots        int     `json:"t_slots"`
	Seed          uint64  `json:"seed"`
	NsPerSlot     float64 `json:"ns_per_slot"`
	AllocsPerSlot float64 `json:"allocs_per_slot"`
	Ratio         float64 `json:"lfsc_oracle_ratio"`

	// CoreWorkersSpeedup (Workers=1 ns/slot over Workers=NumCPU ns/slot)
	// is optional: artifacts predating the worker-sweep bench lack it.
	CoreWorkersSpeedup *float64 `json:"core_workers_speedup"`

	ServeNsPerSlot *float64 `json:"serve_ns_per_slot"`
	// ServeNsPerSlotProbe is the shipped probe-on baseline; the obs gate's
	// reference point.
	ServeNsPerSlotProbe *float64 `json:"serve_ns_per_slot_probe"`
	// ServeNsPerSlotObs is the same loop with observability enabled; it is
	// gated against NEW's own ServeNsPerSlotProbe (≤5% overhead), not
	// against OLD, so the check prices instrumentation rather than machine
	// drift.
	ServeNsPerSlotObs  *float64 `json:"serve_ns_per_slot_obs"`
	ServeAllocsPerSlot *float64 `json:"serve_allocs_per_slot"`
	ServeAllocsPerReq  *float64 `json:"serve_allocs_per_req"`
	ServeHTTPRps       *float64 `json:"serve_http_rps"`

	// NumCPU qualifies the shard scaling curve: the rps_2/rps_4
	// monotonicity gates only bind where the machine had the cores to
	// show a speedup.
	NumCPU         *float64 `json:"num_cpu"`
	ServeShardRps1 *float64 `json:"serve_shard_rps_1"`
	ServeShardRps2 *float64 `json:"serve_shard_rps_2"`
	ServeShardRps4 *float64 `json:"serve_shard_rps_4"`

	extra []string // unknown top-level keys, sorted
}

// knownKeys are the artifact fields benchdiff either diffs or understands
// as lfscbench provenance; anything else is an "extra" key.
var knownKeys = map[string]bool{
	"name": true, "timestamp": true, "go_version": true,
	"goos": true, "goarch": true, "num_cpu": true,
	"t_slots": true, "seed": true, "workers": true,
	"ns_per_slot": true, "allocs_per_slot": true,
	"lfsc_total_reward": true, "oracle_total_reward": true,
	"lfsc_oracle_ratio": true, "core_workers_speedup": true,
	"serve_ns_per_slot": true, "serve_ns_per_slot_probe": true, "serve_ns_per_slot_obs": true,
	"serve_allocs_per_slot": true,
	"serve_allocs_per_req":  true, "serve_http_rps": true,
	"serve_shard_rps_1": true, "serve_shard_rps_2": true,
	"serve_shard_rps_4": true,
}

func load(path string) (*benchResult, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchResult
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.TSlots <= 0 || r.NsPerSlot <= 0 {
		return nil, fmt.Errorf("%s: not a lfscbench artifact (t_slots=%d, ns_per_slot=%v)",
			path, r.TSlots, r.NsPerSlot)
	}
	var all map[string]json.RawMessage
	if err := json.Unmarshal(buf, &all); err == nil {
		for k := range all {
			if !knownKeys[k] {
				r.extra = append(r.extra, k)
			}
		}
		sort.Strings(r.extra)
	}
	return &r, nil
}

// sloHistoryEntry mirrors the lfscload -slo-json line fields the
// validator checks; unknown fields are ignored so the schemas can evolve
// independently (same contract as benchResult).
type sloHistoryEntry struct {
	Name        string  `json:"name"`
	Timestamp   string  `json:"timestamp"`
	TSlots      int     `json:"t_slots"`
	Slots       int     `json:"slots"`
	Shards      int     `json:"shards"`
	ShedRate    float64 `json:"shed_rate"`
	SlotsPerSec float64 `json:"slots_per_sec"`
	CumReward   float64 `json:"cum_reward"`
	Scenario    string  `json:"scenario"`
}

func isHexDigest(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// validateSLOHistory checks a BENCH_serve.json history (JSON Lines, one
// lfscload run per line, append-only). It returns one summary line per
// entry and the first corruption found, identified by 1-based line
// number. An empty file is a valid zero-run history; a file whose last
// line lacks the terminating newline is not — that is the signature of
// an interrupted append, and accepting the fragment would mean accepting
// a line that the next append will fuse into garbage.
func validateSLOHistory(data []byte) (summary []string, err error) {
	if len(data) == 0 {
		return nil, nil
	}
	if data[len(data)-1] != '\n' {
		n := 1 + strings.Count(string(data), "\n")
		return nil, fmt.Errorf("line %d: partial trailing line (interrupted append?) — truncate to the last newline-terminated line", n)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			return nil, fmt.Errorf("line %d: blank line in history", ln)
		}
		var e sloHistoryEntry
		if uerr := json.Unmarshal([]byte(line), &e); uerr != nil {
			return nil, fmt.Errorf("line %d: %v", ln, uerr)
		}
		switch {
		case e.Name == "":
			return nil, fmt.Errorf("line %d: missing name", ln)
		case e.TSlots <= 0:
			return nil, fmt.Errorf("line %d: t_slots must be positive (got %d)", ln, e.TSlots)
		case e.Slots < 0 || e.Slots > e.TSlots:
			return nil, fmt.Errorf("line %d: slots %d outside [0, t_slots=%d]", ln, e.Slots, e.TSlots)
		case e.ShedRate < 0 || e.ShedRate > 1:
			return nil, fmt.Errorf("line %d: shed_rate %g outside [0, 1]", ln, e.ShedRate)
		case e.Scenario != "" && !isHexDigest(e.Scenario):
			return nil, fmt.Errorf("line %d: scenario digest %q is not a 16-hex-digit timeline digest", ln, e.Scenario)
		}
		scen := e.Scenario
		if scen == "" {
			scen = "static"
		}
		summary = append(summary, fmt.Sprintf("  %-20s %6d/%d slots  shards %d  shed %5.2f%%  %10.1f slots/s  reward %14.4f  %s",
			e.Timestamp, e.Slots, e.TSlots, e.Shards, 100*e.ShedRate, e.SlotsPerSec, e.CumReward, scen))
	}
	return summary, nil
}

func pct(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old * 100
}

// thresholds bundles the regression gates (see the flag docs in main).
type thresholds struct {
	maxNsRegress      float64
	maxAllocRegress   float64
	maxRatioDrift     float64
	minWorkersSpeedup float64
}

// diff renders the comparison and applies the gates, returning the report
// lines and whether any gate failed. Split from main so the gating logic
// is testable without exec'ing the binary.
func diff(old, new_ *benchResult, th thresholds) (lines []string, failed bool) {
	addf := func(format string, args ...any) {
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	addf("  %-20s %14.1f -> %14.1f  (%+.1f%%)", "ns/slot", old.NsPerSlot, new_.NsPerSlot, pct(old.NsPerSlot, new_.NsPerSlot))
	addf("  %-20s %14.2f -> %14.2f  (%+.1f%%)", "allocs/slot", old.AllocsPerSlot, new_.AllocsPerSlot, pct(old.AllocsPerSlot, new_.AllocsPerSlot))
	addf("  %-20s %14.10f -> %14.10f  (Δ %.3e)", "reward ratio", old.Ratio, new_.Ratio, new_.Ratio-old.Ratio)

	if new_.NsPerSlot > old.NsPerSlot*(1+th.maxNsRegress) {
		addf("  FAIL ns/slot regressed beyond %.0f%%", th.maxNsRegress*100)
		failed = true
	}
	if new_.AllocsPerSlot > old.AllocsPerSlot*(1+th.maxAllocRegress)+2 {
		addf("  FAIL allocs/slot regressed beyond %.0f%%", th.maxAllocRegress*100)
		failed = true
	}
	if math.Abs(new_.Ratio-old.Ratio) > th.maxRatioDrift {
		addf("  FAIL reward ratio drifted beyond %g — the deterministic computation changed", th.maxRatioDrift)
		failed = true
	}

	// Optional guarded keys: every key is compared when both sides carry
	// it; a key OLD pins that NEW lost fails the diff outright (a harness
	// silently dropping a figure is itself a regression).
	guardKey := func(name string, oldV, newV *float64, check func(o, n float64) (string, bool)) {
		switch {
		case oldV == nil && newV == nil:
			return
		case oldV == nil:
			addf("  %-20s %14s -> %14.2f  (new key, not compared)", name, "-", *newV)
		case newV == nil:
			addf("  FAIL %s present in OLD but missing from NEW — a guarded figure was dropped", name)
			failed = true
		default:
			addf("  %-20s %14.2f -> %14.2f  (%+.1f%%)", name, *oldV, *newV, pct(*oldV, *newV))
			if msg, bad := check(*oldV, *newV); bad {
				addf("  FAIL %s", msg)
				failed = true
			}
		}
	}
	guardKey("workers speedup", old.CoreWorkersSpeedup, new_.CoreWorkersSpeedup, func(o, n float64) (string, bool) {
		return fmt.Sprintf("core_workers_speedup fell below the %.2f floor — the parallel Decide path lost its edge", th.minWorkersSpeedup),
			n < th.minWorkersSpeedup
	})
	guardKey("serve ns/slot", old.ServeNsPerSlot, new_.ServeNsPerSlot, func(o, n float64) (string, bool) {
		return fmt.Sprintf("serve ns/slot regressed beyond %.0f%%", th.maxNsRegress*100),
			n > o*(1+th.maxNsRegress)
	})
	guardKey("serve ns/slot probe", old.ServeNsPerSlotProbe, new_.ServeNsPerSlotProbe, func(o, n float64) (string, bool) {
		// Guarded like the bare figure — and a dropped key fails, so the
		// obs gate below can never lose its baseline silently.
		return fmt.Sprintf("serve ns/slot (probe baseline) regressed beyond %.0f%%", th.maxNsRegress*100),
			n > o*(1+th.maxNsRegress)
	})
	guardKey("serve ns/slot obs", old.ServeNsPerSlotObs, new_.ServeNsPerSlotObs, func(o, n float64) (string, bool) {
		if new_.ServeNsPerSlotProbe == nil || *new_.ServeNsPerSlotProbe <= 0 {
			return "", false // no baseline figure on NEW to price against (its absence fails separately if OLD pinned it)
		}
		base := *new_.ServeNsPerSlotProbe
		return fmt.Sprintf("serve_ns_per_slot_obs exceeds 105%% of NEW's serve_ns_per_slot_probe (%.1f vs %.1f) — observability leaked into the hot path",
			n, base), n > base*1.05
	})
	guardKey("serve allocs/slot", old.ServeAllocsPerSlot, new_.ServeAllocsPerSlot, func(o, n float64) (string, bool) {
		return fmt.Sprintf("serve allocs/slot regressed beyond %.0f%%", th.maxAllocRegress*100),
			n > o*(1+th.maxAllocRegress)+2
	})
	guardKey("serve allocs/req", old.ServeAllocsPerReq, new_.ServeAllocsPerReq, func(o, n float64) (string, bool) {
		return fmt.Sprintf("serve allocs/req regressed beyond %.0f%% (+0.5 grace)", th.maxAllocRegress*100),
			n > o*(1+th.maxAllocRegress)+0.5
	})
	guardKey("serve http rps", old.ServeHTTPRps, new_.ServeHTTPRps, func(o, n float64) (string, bool) {
		return "serve http rps dropped below 75% of OLD", n < o*0.75
	})

	// Shard scaling curve: rps_1 carries the throughput floor; rps_2/rps_4
	// are compared to NEW's own rps_1, with the grace chosen by whether
	// NEW's machine had the cores to scale (see the package doc).
	guardKey("shard rps x1", old.ServeShardRps1, new_.ServeShardRps1, func(o, n float64) (string, bool) {
		return "serve_shard_rps_1 dropped below 75% of OLD", n < o*0.75
	})
	shardGate := func(name string, shards int, oldV, newV *float64) {
		guardKey(name, oldV, newV, func(o, n float64) (string, bool) {
			if new_.ServeShardRps1 == nil || *new_.ServeShardRps1 <= 0 {
				return "", false // no rps_1 on NEW to scale against (its absence fails separately if OLD pinned it)
			}
			base := *new_.ServeShardRps1
			grace, why := 0.35, "single-core sanity floor"
			if new_.NumCPU != nil && *new_.NumCPU >= float64(shards) {
				grace, why = 0.97, fmt.Sprintf("num_cpu %.0f ≥ %d shards: the curve must be monotone", *new_.NumCPU, shards)
			}
			return fmt.Sprintf("serve_shard_rps_%d fell below %.0f%% of NEW's serve_shard_rps_1 (%s)",
				shards, grace*100, why), n < base*grace
		})
	}
	shardGate("shard rps x2", 2, old.ServeShardRps2, new_.ServeShardRps2)
	shardGate("shard rps x4", 4, old.ServeShardRps4, new_.ServeShardRps4)
	return lines, failed
}

func main() {
	maxNsRegress := flag.Float64("max-ns-regress", 0.25,
		"fail when ns/slot (core or serve) grows by more than this fraction")
	maxAllocRegress := flag.Float64("max-alloc-regress", 0.25,
		"fail when allocs/slot grows by more than this fraction (plus a +2 absolute grace for tiny baselines; +0.5 for serve allocs/req)")
	maxRatioDrift := flag.Float64("max-ratio-drift", 1e-9,
		"fail when |Δ lfsc_oracle_ratio| exceeds this absolute epsilon")
	minWorkersSpeedup := flag.Float64("min-workers-speedup", 0.9,
		"fail when core_workers_speedup falls below this floor (nominally 1.0; the default leaves noise grace for single-core boxes where the parallel path can only tie)")
	sloHistory := flag.String("slo-history", "",
		"validate an lfscload -slo-json history file (JSON Lines) instead of diffing artifacts")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: benchdiff [flags] OLD.json NEW.json\n")
		fmt.Fprintf(os.Stderr, "       benchdiff -slo-history BENCH_serve.json\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *sloHistory != "" {
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		buf, err := os.ReadFile(*sloHistory)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		summary, err := validateSLOHistory(buf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", *sloHistory, err)
			os.Exit(1)
		}
		fmt.Printf("benchdiff: %s: %d run(s), history OK\n", *sloHistory, len(summary))
		for _, l := range summary {
			fmt.Println(l)
		}
		return
	}
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	old, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	new_, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	fmt.Printf("benchdiff: %s (T=%d seed=%d) -> %s (T=%d seed=%d)\n",
		flag.Arg(0), old.TSlots, old.Seed, flag.Arg(1), new_.TSlots, new_.Seed)
	if old.TSlots != new_.TSlots || old.Seed != new_.Seed {
		fmt.Println("  warning: horizons/seeds differ; figures are not directly comparable")
	}
	lines, failed := diff(old, new_, thresholds{
		maxNsRegress:      *maxNsRegress,
		maxAllocRegress:   *maxAllocRegress,
		maxRatioDrift:     *maxRatioDrift,
		minWorkersSpeedup: *minWorkersSpeedup,
	})
	for _, l := range lines {
		fmt.Println(l)
	}
	for i, r := range []*benchResult{old, new_} {
		if len(r.extra) > 0 {
			fmt.Printf("  note: %s carries %d non-core key(s), not compared: %s\n",
				flag.Arg(i), len(r.extra), strings.Join(r.extra, ", "))
		}
	}
	if failed {
		os.Exit(1)
	}
	fmt.Println("  OK within thresholds")
}
