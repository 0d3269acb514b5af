package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lfsc/internal/obs"
	"lfsc/internal/sim"
)

// TestRunBenchJSONLive runs the core harness at a short horizon into an
// artifact that already holds the committed serve block, the way `make
// json` rewrites BENCH_core.json. The serve keys must survive byte for
// byte, every core key must be written with the rewards of plain sim.Runs,
// and every timed pass must earn the same reward.
func TestRunBenchJSONLive(t *testing.T) {
	const T, seed = 200, 42
	committed := map[string]json.RawMessage{}
	buf, err := os.ReadFile("../../BENCH_core.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &committed); err != nil {
		t.Fatal(err)
	}
	serveBlock := map[string]json.RawMessage{}
	for k, v := range committed {
		if strings.HasPrefix(k, "serve_") {
			serveBlock[k] = v
		}
	}
	if len(serveBlock) == 0 {
		t.Fatal("BENCH_core.json holds no serve_ keys")
	}
	path := filepath.Join(t.TempDir(), "BENCH_core.json")
	if buf, err = json.MarshalIndent(serveBlock, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	if err := runBenchJSON(path, T, seed, &obs.Options{Probe: obs.NewProbe(), Registry: reg}); err != nil {
		t.Fatal(err)
	}

	merged := map[string]json.RawMessage{}
	if buf, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &merged); err != nil {
		t.Fatal(err)
	}
	for k, v := range serveBlock {
		if !bytes.Equal(merged[k], v) {
			t.Errorf("serve key %s: %s after the core run, %s before", k, merged[k], v)
		}
	}
	for _, k := range []string{"name", "timestamp", "go_version", "goos", "goarch", "num_cpu",
		"t_slots", "seed", "workers", "ns_per_slot", "allocs_per_slot",
		"lfsc_total_reward", "oracle_total_reward", "lfsc_oracle_ratio"} {
		if _, ok := merged[k]; !ok {
			t.Errorf("core key %s not written", k)
		}
	}
	var res benchResult
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatal(err)
	}
	if res.TSlots != T || res.Seed != seed || res.NsPerSlot <= 0 {
		t.Errorf("t_slots %d, seed %d, ns_per_slot %v; want %d, %d and a positive figure",
			res.TSlots, res.Seed, res.NsPerSlot, T, seed)
	}
	sc := sim.PaperScenario()
	sc.Cfg.T = T
	lfsc, err := sim.Run(sc, sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sim.Run(sc, sim.OracleFactory(false), seed)
	if err != nil {
		t.Fatal(err)
	}
	if res.LFSCTotalReward != lfsc.TotalReward() || res.OracleTotalReward != oracle.TotalReward() {
		t.Errorf("rewards LFSC %x, Oracle %x; plain sim.Runs earn %x and %x",
			res.LFSCTotalReward, res.OracleTotalReward, lfsc.TotalReward(), oracle.TotalReward())
	}
	if want := lfsc.TotalReward() / oracle.TotalReward(); res.LFSCOracleRatio != want {
		t.Errorf("lfsc_oracle_ratio %v, want %v", res.LFSCOracleRatio, want)
	}

	var passes []*obs.RunStatus
	for _, r := range reg.Runs() {
		if r.Policy == lfsc.Policy {
			passes = append(passes, r)
		}
	}
	if len(passes) != benchReps {
		t.Fatalf("%d LFSC passes registered, want %d", len(passes), benchReps)
	}
	for i, p := range passes {
		if p.Slots() != T || p.CumReward() != passes[0].CumReward() {
			t.Errorf("pass %d: %d slots, reward %x; pass 0 earned %x over %d",
				i, p.Slots(), p.CumReward(), passes[0].CumReward(), T)
		}
	}
}
