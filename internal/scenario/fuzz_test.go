package scenario

import (
	"strings"
	"testing"
)

// troughCfg puts every SCN's capacity·value exactly on the rounding edge
// 9.5 at capacity 20 at every trough slot (t = 207 mod 400).
const troughCfg = "scns = 30\n[diurnal]\nperiod = 400\noffset = 7\nmin-cap = 0.475\n"

// FuzzScenarioParse hammers the config parser with arbitrary bytes:
// truncated files, duplicate keys, out-of-range slots and SCN ids must
// come back as errors, never as panics or unbounded allocations. Inputs
// that Parse+Validate accept must re-validate and build deterministically
// (two Builds from the same accepted config are digest-identical) and
// exactly as buildReference does, over a horizon of 64–4096 slots and a
// nominal capacity of 1–30 that the input picks, and acceptance itself
// must be stable across the golden table that seeds the corpus.
func FuzzScenarioParse(f *testing.F) {
	// Horizon 0 and capacity 4 pick 64 slots at capacity 5.
	for _, g := range goldenConfigs {
		f.Add(g.src, uint16(0), uint8(4))
	}
	f.Add("[sleep]\nperiod = 99999999999999999999\nduration = 1\n", uint16(0), uint8(4))
	f.Add("[churn]\nmean-up = 1e400\nmean-down = -0\n", uint16(0), uint8(4))
	f.Add("[blockage]\nrate = 0.5\nwidth = 2147483647\nduration = 1\n", uint16(0), uint8(4))
	f.Add("scns = 30\n[budget]\nperiod = 1\nalpha-min = 0.0000001\n", uint16(0), uint8(4))
	f.Add(strings.Repeat("[sleep]\nperiod=2\nduration=1\n", 300), uint16(0), uint8(4))
	f.Add(troughCfg, uint16(4096-64), uint8(19))
	f.Fuzz(func(t *testing.T, src string, horizon uint16, nominal uint8) {
		cfg, err := Parse([]byte(src))
		if err != nil {
			return
		}
		if err := cfg.Validate(30); err != nil {
			return
		}
		slots, capacity := 64+int(horizon)%(4096-64+1), 1+int(nominal)%30
		// Accepted configs must build, and build deterministically.
		a, errA := Build(cfg, 30, slots, capacity, 17)
		b, errB := Build(cfg, 30, slots, capacity, 17)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Build nondeterministic: %v vs %v", errA, errB)
		}
		if errA != nil {
			t.Fatalf("validated config failed Build: %v", errA)
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("digest nondeterministic: %s vs %s", a.Digest(), b.Digest())
		}
		checkAgainstReference(t, "fuzzed config", cfg, 30, slots, capacity, 17)
		var v View
		for _, slot := range []int{0, slots / 2, slots - 1, slots, 1000, -1} {
			a.ViewInto(slot, &v)
			if len(v.Up) != 30 {
				t.Fatalf("view has %d SCNs, want 30", len(v.Up))
			}
		}
	})
}
