package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeArtifact(t *testing.T, name, data string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const coreArtifact = `{
  "name": "lfsc-core", "t_slots": 1000, "seed": 42,
  "ns_per_slot": 400000, "allocs_per_slot": 2.2,
  "lfsc_oracle_ratio": 0.84
}`

func TestLoadCoreArtifact(t *testing.T) {
	r, err := load(writeArtifact(t, "core.json", coreArtifact))
	if err != nil {
		t.Fatal(err)
	}
	if r.TSlots != 1000 || r.NsPerSlot != 400000 || r.Ratio != 0.84 {
		t.Fatalf("bad decode: %+v", r)
	}
	if len(r.extra) != 0 {
		t.Fatalf("core artifact flagged extras: %v", r.extra)
	}
}

// TestLoadToleratesServeLayerKeys pins the schema-evolution contract:
// serve-layer benchmark entries ride in BENCH_core.json as first-class
// guarded fields, and genuinely unknown keys are surfaced as extras, not
// errors.
func TestLoadToleratesServeLayerKeys(t *testing.T) {
	withServe := `{
  "name": "lfsc-core", "t_slots": 1000, "seed": 42,
  "ns_per_slot": 400000, "allocs_per_slot": 2.2,
  "lfsc_oracle_ratio": 0.84,
  "serve_ns_per_slot": 9600,
  "serve_allocs_per_slot": 14,
  "serve_future_metric": {"nested": [1, 2, 3]}
}`
	r, err := load(writeArtifact(t, "serve.json", withServe))
	if err != nil {
		t.Fatalf("serve-layer keys broke the load: %v", err)
	}
	if r.NsPerSlot != 400000 || r.Ratio != 0.84 {
		t.Fatalf("core fields perturbed by extras: %+v", r)
	}
	if r.ServeNsPerSlot == nil || *r.ServeNsPerSlot != 9600 {
		t.Fatalf("serve_ns_per_slot not decoded: %+v", r.ServeNsPerSlot)
	}
	if r.ServeAllocsPerSlot == nil || *r.ServeAllocsPerSlot != 14 {
		t.Fatalf("serve_allocs_per_slot not decoded: %+v", r.ServeAllocsPerSlot)
	}
	if r.ServeAllocsPerReq != nil || r.ServeHTTPRps != nil {
		t.Fatalf("absent serve keys decoded non-nil: %+v", r)
	}
	got := strings.Join(r.extra, ",")
	want := "serve_future_metric"
	if got != want {
		t.Fatalf("extras = %q, want %q", got, want)
	}
}

func f64(v float64) *float64 { return &v }

func baseResult() *benchResult {
	return &benchResult{
		TSlots: 1000, Seed: 42,
		NsPerSlot: 400000, AllocsPerSlot: 2.2, Ratio: 0.84,
		ServeNsPerSlot:     f64(4500),
		ServeAllocsPerSlot: f64(0),
		ServeAllocsPerReq:  f64(0),
		ServeHTTPRps:       f64(15000),
	}
}

var defaultTh = thresholds{maxNsRegress: 0.25, maxAllocRegress: 0.25, maxRatioDrift: 1e-9}

func runDiff(t *testing.T, old, new_ *benchResult) (string, bool) {
	t.Helper()
	lines, failed := diff(old, new_, defaultTh)
	return strings.Join(lines, "\n"), failed
}

// TestDiffServeGuards pins the serve-layer gates: timing shares the core
// ns threshold, allocs/req gets the +0.5 absolute grace over a zero
// baseline, throughput fails below 75% of OLD, and a guarded key that
// vanishes from NEW fails the diff.
func TestDiffServeGuards(t *testing.T) {
	t.Run("identical passes", func(t *testing.T) {
		if out, failed := runDiff(t, baseResult(), baseResult()); failed {
			t.Fatalf("identical artifacts failed:\n%s", out)
		}
	})
	t.Run("serve ns within threshold passes", func(t *testing.T) {
		n := baseResult()
		n.ServeNsPerSlot = f64(4500 * 1.2)
		if out, failed := runDiff(t, baseResult(), n); failed {
			t.Fatalf("20%% serve ns growth failed at 25%% threshold:\n%s", out)
		}
	})
	t.Run("serve ns regression fails", func(t *testing.T) {
		n := baseResult()
		n.ServeNsPerSlot = f64(4500 * 1.3)
		out, failed := runDiff(t, baseResult(), n)
		if !failed || !strings.Contains(out, "serve ns/slot regressed") {
			t.Fatalf("30%% serve ns growth passed:\n%s", out)
		}
	})
	t.Run("allocs/req grace over zero baseline", func(t *testing.T) {
		n := baseResult()
		n.ServeAllocsPerReq = f64(0.4)
		if out, failed := runDiff(t, baseResult(), n); failed {
			t.Fatalf("0.4 allocs/req failed the +0.5 grace over a 0 baseline:\n%s", out)
		}
		n.ServeAllocsPerReq = f64(0.6)
		out, failed := runDiff(t, baseResult(), n)
		if !failed || !strings.Contains(out, "serve allocs/req regressed") {
			t.Fatalf("0.6 allocs/req passed over a 0 baseline:\n%s", out)
		}
	})
	t.Run("http rps floor", func(t *testing.T) {
		n := baseResult()
		n.ServeHTTPRps = f64(15000 * 0.8)
		if out, failed := runDiff(t, baseResult(), n); failed {
			t.Fatalf("-20%% rps failed at the 75%% floor:\n%s", out)
		}
		n.ServeHTTPRps = f64(15000 * 0.7)
		out, failed := runDiff(t, baseResult(), n)
		if !failed || !strings.Contains(out, "serve http rps dropped") {
			t.Fatalf("-30%% rps passed the 75%% floor:\n%s", out)
		}
	})
	t.Run("dropped guarded key fails", func(t *testing.T) {
		n := baseResult()
		n.ServeHTTPRps = nil
		out, failed := runDiff(t, baseResult(), n)
		if !failed || !strings.Contains(out, "missing from NEW") {
			t.Fatalf("dropped serve_http_rps passed:\n%s", out)
		}
	})
	t.Run("serve block absent on both sides passes", func(t *testing.T) {
		o, n := baseResult(), baseResult()
		o.ServeNsPerSlot, o.ServeAllocsPerSlot, o.ServeAllocsPerReq, o.ServeHTTPRps = nil, nil, nil, nil
		n.ServeNsPerSlot, n.ServeAllocsPerSlot, n.ServeAllocsPerReq, n.ServeHTTPRps = nil, nil, nil, nil
		if out, failed := runDiff(t, o, n); failed {
			t.Fatalf("pre-serve artifacts failed:\n%s", out)
		}
	})
	t.Run("new key on NEW side only passes", func(t *testing.T) {
		o := baseResult()
		o.ServeAllocsPerReq = nil
		if out, failed := runDiff(t, o, baseResult()); failed {
			t.Fatalf("serve key newly added in NEW failed:\n%s", out)
		}
	})
}

// TestDiffObsOverheadGuard pins the serve_ns_per_slot_obs gate: the
// instrumented loop is compared to NEW's own serve_ns_per_slot_probe
// (the shipped probe-on baseline, ≤5% overhead), never to OLD, and the
// usual dropped-key/new-key rules apply.
func TestDiffObsOverheadGuard(t *testing.T) {
	with := func(probe, obs *float64) *benchResult {
		r := baseResult()
		r.ServeNsPerSlot = f64(4400)
		r.ServeNsPerSlotProbe = probe
		r.ServeNsPerSlotObs = obs
		return r
	}
	old := with(f64(4500), f64(4550))

	t.Run("within 5% of NEW baseline passes", func(t *testing.T) {
		if out, failed := runDiff(t, old, with(f64(4500), f64(4700))); failed {
			t.Fatalf("4.4%% obs overhead failed the 5%% gate:\n%s", out)
		}
	})
	t.Run("beyond 5% of NEW baseline fails", func(t *testing.T) {
		out, failed := runDiff(t, old, with(f64(4500), f64(4800)))
		if !failed || !strings.Contains(out, "serve_ns_per_slot_obs exceeds 105%") {
			t.Fatalf("6.7%% obs overhead passed the 5%% gate:\n%s", out)
		}
	})
	t.Run("gate scales with NEW baseline, not OLD", func(t *testing.T) {
		// NEW's obs figure is double OLD's, but it sits within 5% of NEW's
		// own probe baseline — the gate prices instrumentation, not drift.
		if out, failed := runDiff(t, with(f64(8800), f64(4550)), with(f64(9000), f64(9300))); failed {
			t.Fatalf("obs within 5%% of NEW's own baseline failed:\n%s", out)
		}
	})
	t.Run("dropped obs key fails", func(t *testing.T) {
		out, failed := runDiff(t, old, with(f64(4500), nil))
		if !failed || !strings.Contains(out, "missing from NEW") {
			t.Fatalf("dropped serve_ns_per_slot_obs passed:\n%s", out)
		}
	})
	t.Run("dropped probe baseline fails", func(t *testing.T) {
		// The probe key is guarded in its own right, so the obs gate can
		// never lose its reference point silently.
		out, failed := runDiff(t, old, with(nil, f64(4700)))
		if !failed || !strings.Contains(out, "missing from NEW") {
			t.Fatalf("dropped serve_ns_per_slot_probe passed:\n%s", out)
		}
	})
	t.Run("probe baseline regression fails", func(t *testing.T) {
		out, failed := runDiff(t, old, with(f64(4500*1.3), f64(4600)))
		if !failed || !strings.Contains(out, "probe baseline") {
			t.Fatalf("30%% probe-baseline regression passed:\n%s", out)
		}
	})
	t.Run("new obs key on NEW side only passes", func(t *testing.T) {
		out, failed := runDiff(t, with(f64(4500), nil), with(f64(4500), f64(4600)))
		if failed {
			t.Fatalf("newly added obs key was gated:\n%s", out)
		}
		if !strings.Contains(out, "new key, not compared") {
			t.Fatalf("new obs key not reported informationally:\n%s", out)
		}
	})
	t.Run("absent on both sides passes", func(t *testing.T) {
		if out, failed := runDiff(t, with(f64(4500), nil), with(f64(4500), nil)); failed {
			t.Fatalf("pre-obs artifacts failed:\n%s", out)
		}
	})
}

// TestDiffShardRpsGuards pins the shard-scaling-curve gates as a table:
// rps_1 carries the 75%-of-OLD floor; rps_2/rps_4 are compared to NEW's
// own rps_1 with a num_cpu-aware grace (97% — monotone with measurement
// slack — where the machine has ≥ that many cores, 35% sanity floor
// otherwise); and dropped keys fail like every guarded figure.
func TestDiffShardRpsGuards(t *testing.T) {
	shardResult := func(numCPU float64, r1, r2, r4 *float64) *benchResult {
		r := baseResult()
		r.ServeHTTPRps = f64(9000)
		r.NumCPU = f64(numCPU)
		r.ServeShardRps1, r.ServeShardRps2, r.ServeShardRps4 = r1, r2, r4
		return r
	}
	oldCurve := shardResult(1, f64(10000), f64(9800), f64(9500))

	cases := []struct {
		name     string
		new_     *benchResult
		wantFail bool
		wantMsg  string
	}{
		{
			name: "flat single-core curve passes",
			new_: shardResult(1, f64(10000), f64(9700), f64(9400)),
		},
		{
			name:     "rps_1 below 75% of OLD fails",
			new_:     shardResult(1, f64(7400), f64(7300), f64(7200)),
			wantFail: true, wantMsg: "serve_shard_rps_1 dropped below 75% of OLD",
		},
		{
			name: "rps_1 at 80% of OLD passes",
			new_: shardResult(1, f64(8000), f64(7900), f64(7800)),
		},
		{
			// num_cpu 1 < 4 shards: the 35% sanity floor applies, and 50%
			// of rps_1 clears it.
			name: "single-core overhead within sanity floor passes",
			new_: shardResult(1, f64(10000), f64(6000), f64(5000)),
		},
		{
			name:     "single-core crater below 35% of rps_1 fails",
			new_:     shardResult(1, f64(10000), f64(9000), f64(3000)),
			wantFail: true, wantMsg: "serve_shard_rps_4 fell below 35% of NEW's serve_shard_rps_1",
		},
		{
			// num_cpu 8 ≥ 4: monotonicity binds at 97%; 60% of rps_1 at
			// Shards=4 means sharding lost to the single-shard plane on a
			// machine where it had room to run.
			name:     "multi-core rps_4 below 97% of rps_1 fails",
			new_:     shardResult(8, f64(10000), f64(11000), f64(6000)),
			wantFail: true, wantMsg: "serve_shard_rps_4 fell below 97% of NEW's serve_shard_rps_1",
		},
		{
			name: "multi-core scaling curve passes",
			new_: shardResult(8, f64(10000), f64(17000), f64(30000)),
		},
		{
			// A multi-core curve that merely ties rps_1 is fine — 97% is
			// measurement grace on a monotone requirement, not a scaling
			// allowance.
			name: "multi-core tie within 3% grace passes",
			new_: shardResult(8, f64(10000), f64(9750), f64(10100)),
		},
		{
			name:     "multi-core rps_2 just under the 3% grace fails",
			new_:     shardResult(8, f64(10000), f64(9600), f64(10100)),
			wantFail: true, wantMsg: "serve_shard_rps_2 fell below 97% of NEW's serve_shard_rps_1",
		},
		{
			// num_cpu 2: rps_2 binds at 97%, rps_4 only at the sanity floor.
			name: "grace chosen per shard count",
			new_: shardResult(2, f64(10000), f64(9800), f64(4000)),
		},
		{
			name:     "num_cpu 2 with rps_2 below 97% fails",
			new_:     shardResult(2, f64(10000), f64(8000), f64(9800)),
			wantFail: true, wantMsg: "serve_shard_rps_2 fell below 97% of NEW's serve_shard_rps_1",
		},
		{
			name:     "dropped rps_4 fails",
			new_:     shardResult(1, f64(10000), f64(9800), nil),
			wantFail: true, wantMsg: "missing from NEW",
		},
		{
			name:     "dropped rps_1 fails",
			new_:     shardResult(1, nil, f64(9800), f64(9500)),
			wantFail: true, wantMsg: "missing from NEW",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, failed := runDiff(t, oldCurve, tc.new_)
			if failed != tc.wantFail {
				t.Fatalf("failed = %v, want %v:\n%s", failed, tc.wantFail, out)
			}
			if tc.wantMsg != "" && !strings.Contains(out, tc.wantMsg) {
				t.Fatalf("output missing %q:\n%s", tc.wantMsg, out)
			}
		})
	}

	t.Run("curve absent on both sides passes", func(t *testing.T) {
		if out, failed := runDiff(t, baseResult(), baseResult()); failed {
			t.Fatalf("pre-curve artifacts failed:\n%s", out)
		}
	})
	t.Run("curve newly added in NEW passes", func(t *testing.T) {
		o := baseResult()
		o.ServeHTTPRps = f64(9000)
		out, failed := runDiff(t, o, shardResult(1, f64(10000), f64(9800), f64(9500)))
		if failed {
			t.Fatalf("newly added curve was gated:\n%s", out)
		}
		if !strings.Contains(out, "new key, not compared") {
			t.Fatalf("new curve keys not reported informationally:\n%s", out)
		}
	})
}

// TestDiffCoreGuards keeps the pre-serve gates intact.
func TestDiffCoreGuards(t *testing.T) {
	t.Run("ns regression fails", func(t *testing.T) {
		n := baseResult()
		n.NsPerSlot = 400000 * 1.3
		out, failed := runDiff(t, baseResult(), n)
		if !failed || !strings.Contains(out, "ns/slot regressed") {
			t.Fatalf("30%% core ns growth passed:\n%s", out)
		}
	})
	t.Run("ratio drift fails", func(t *testing.T) {
		n := baseResult()
		n.Ratio = 0.84 + 1e-6
		out, failed := runDiff(t, baseResult(), n)
		if !failed || !strings.Contains(out, "reward ratio drifted") {
			t.Fatalf("ratio drift passed:\n%s", out)
		}
	})
}

// TestValidateSLOHistory pins the -slo-history contract as a table: a
// well-formed JSON-Lines history passes with one summary line per run,
// and every corruption mode — partial trailing line, malformed JSON,
// blank line, nonsense figures, bad scenario digest — is rejected with
// its line number instead of being silently skipped.
func TestValidateSLOHistory(t *testing.T) {
	const run1 = `{"name":"lfscload","timestamp":"2026-08-08T10:00:00Z","t_slots":500,"slots":500,"shards":1,"seed":42,"shed_rate":0,"slots_per_sec":980.5,"cum_reward":61234.5}`
	const run2 = `{"name":"lfscload","timestamp":"2026-08-08T10:05:00Z","t_slots":500,"slots":480,"shards":4,"seed":42,"shed_rate":0.04,"slots_per_sec":1103.2,"cum_reward":58999.1,"scenario":"696b0a7aa985e812"}`

	cases := []struct {
		name    string
		data    string
		entries int
		wantErr string // substring of the error, "" = must pass
	}{
		{name: "empty history", data: "", entries: 0},
		{name: "single run", data: run1 + "\n", entries: 1},
		{name: "two runs with scenario digest", data: run1 + "\n" + run2 + "\n", entries: 2},
		{
			name:    "unknown fields tolerated",
			data:    `{"name":"lfscload","t_slots":10,"slots":10,"future_key":{"nested":[1]}}` + "\n",
			entries: 1,
		},
		{
			name:    "partial trailing line",
			data:    run1 + "\n" + `{"name":"lfscload","t_slots":500,"slo`,
			wantErr: "line 2: partial trailing line",
		},
		{
			name:    "malformed JSON mid-file",
			data:    run1 + "\n" + "not json\n" + run2 + "\n",
			wantErr: "line 2:",
		},
		{
			name:    "blank interior line",
			data:    run1 + "\n\n" + run2 + "\n",
			wantErr: "line 2: blank line",
		},
		{
			name:    "missing name",
			data:    `{"t_slots":500,"slots":500}` + "\n",
			wantErr: "line 1: missing name",
		},
		{
			name:    "zero t_slots",
			data:    `{"name":"lfscload","t_slots":0,"slots":0}` + "\n",
			wantErr: "line 1: t_slots must be positive",
		},
		{
			name:    "slots beyond horizon",
			data:    `{"name":"lfscload","t_slots":100,"slots":101}` + "\n",
			wantErr: "line 1: slots 101 outside",
		},
		{
			name:    "shed rate out of range",
			data:    `{"name":"lfscload","t_slots":100,"slots":100,"shed_rate":1.5}` + "\n",
			wantErr: "line 1: shed_rate 1.5 outside",
		},
		{
			name:    "bad scenario digest",
			data:    `{"name":"lfscload","t_slots":100,"slots":100,"scenario":"XYZ"}` + "\n",
			wantErr: `line 1: scenario digest "XYZ"`,
		},
		{
			name:    "error names the right line in a long history",
			data:    run1 + "\n" + run2 + "\n" + `{"name":"","t_slots":1,"slots":1}` + "\n",
			wantErr: "line 3: missing name",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			summary, err := validateSLOHistory([]byte(tc.data))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("valid history rejected: %v", err)
				}
				if len(summary) != tc.entries {
					t.Fatalf("summary lines = %d, want %d:\n%s", len(summary), tc.entries, strings.Join(summary, "\n"))
				}
				return
			}
			if err == nil {
				t.Fatalf("corrupt history accepted:\n%s", strings.Join(summary, "\n"))
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %q, want substring %q", err, tc.wantErr)
			}
		})
	}

	t.Run("summary carries the scenario digest", func(t *testing.T) {
		summary, err := validateSLOHistory([]byte(run1 + "\n" + run2 + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(summary[0], "static") {
			t.Fatalf("static run not labelled: %q", summary[0])
		}
		if !strings.Contains(summary[1], "696b0a7aa985e812") {
			t.Fatalf("scenario run missing its digest: %q", summary[1])
		}
	})
}

func TestLoadRejectsNonArtifacts(t *testing.T) {
	cases := map[string]string{
		"empty-object": `{}`,
		"garbage":      `not json`,
		"zero-slots":   `{"t_slots": 0, "ns_per_slot": 1}`,
		"zero-ns":      `{"t_slots": 10, "ns_per_slot": 0}`,
	}
	for name, data := range cases {
		if _, err := load(writeArtifact(t, name, data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}
