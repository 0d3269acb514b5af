package scenario

import (
	"strings"
	"testing"
)

// FuzzScenarioParse hammers the config parser with arbitrary bytes:
// truncated files, duplicate keys, out-of-range slots and SCN ids must
// come back as errors, never as panics or unbounded allocations. Inputs
// that Parse+Validate accept must re-validate and build deterministically
// (two Builds from the same accepted config are digest-identical) and
// exactly as buildReference does, and acceptance itself must be stable
// across the golden table that seeds the corpus.
func FuzzScenarioParse(f *testing.F) {
	for _, g := range goldenConfigs {
		f.Add(g.src)
	}
	f.Add("[sleep]\nperiod = 99999999999999999999\nduration = 1\n")
	f.Add("[churn]\nmean-up = 1e400\nmean-down = -0\n")
	f.Add("[blockage]\nrate = 0.5\nwidth = 2147483647\nduration = 1\n")
	f.Add("scns = 30\n[budget]\nperiod = 1\nalpha-min = 0.0000001\n")
	f.Add(strings.Repeat("[sleep]\nperiod=2\nduration=1\n", 300))
	f.Fuzz(func(t *testing.T, src string) {
		cfg, err := Parse([]byte(src))
		if err != nil {
			return
		}
		if err := cfg.Validate(30); err != nil {
			return
		}
		// Accepted configs must build, and build deterministically.
		a, errA := Build(cfg, 30, 64, 5, 17)
		b, errB := Build(cfg, 30, 64, 5, 17)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("Build nondeterministic: %v vs %v", errA, errB)
		}
		if errA != nil {
			// Only the capacity gate may fire after Validate passed.
			if !strings.Contains(errA.Error(), "capacity") {
				t.Fatalf("validated config failed Build: %v", errA)
			}
			return
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("digest nondeterministic: %s vs %s", a.Digest(), b.Digest())
		}
		checkAgainstReference(t, "fuzzed config", cfg, 30, 64, 5, 17)
		var v View
		for _, slot := range []int{0, 31, 63, 64, 1000} {
			a.ViewInto(slot, &v)
			if len(v.Up) != 30 {
				t.Fatalf("view has %d SCNs, want 30", len(v.Up))
			}
		}
	})
}
