package sim

import (
	"fmt"
	"testing"

	"lfsc/internal/scenario"
)

// buildTimeline parses and builds a scenario timeline for the paper
// workload (30 SCNs) over the given horizon.
func buildTimeline(t *testing.T, text string, slots, capacity int, seed uint64) *scenario.Timeline {
	t.Helper()
	cfg, err := scenario.Parse([]byte(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	tl, err := scenario.Build(cfg, 30, slots, capacity, seed)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return tl
}

const churnScenarioText = `
scns = 30

[sleep]
scns = 0-4
period = 20
duration = 6

[churn]
scns = 10-19
mean-up = 25
mean-down = 8

[diurnal]
scns = *
period = 40
min-cap = 0.5

[budget]
scns = 5-9
period = 30
alpha-min = 0.6
beta-min = 0.7
`

// TestScenarioAllUpBitIdentical pins the backward-compatibility contract:
// an attached timeline with no events (every SCN up, full capacity, unit
// budget multipliers) must leave every policy's series bit-identical to a
// run with no timeline at all.
func TestScenarioAllUpBitIdentical(t *testing.T) {
	const seed = 42
	tl := buildTimeline(t, "scns = 30\n", 80, DefaultConfig().Capacity, seed)
	if !tl.AllUp() {
		t.Fatal("event-free timeline should report AllUp")
	}
	for _, f := range StandardFactories() {
		plain := PaperScenarioWithT(80)
		a, err := Run(plain, f, seed)
		if err != nil {
			t.Fatal(err)
		}
		dyn := PaperScenarioWithT(80)
		dyn.Dyn = tl
		b, err := Run(dyn, f, seed)
		if err != nil {
			t.Fatal(err)
		}
		assertSeriesEqual(t, fmt.Sprintf("all-up[%s]", a.Policy), a, b)
	}
}

// TestScenarioChurnDeterministic pins timeline-driven runs as pure
// functions of (scenario, seed): two independent runs under an active
// churn scenario must produce bit-identical series, and a different
// timeline seed must actually change the dynamics.
func TestScenarioChurnDeterministic(t *testing.T) {
	const seed = 42
	mk := func(tlSeed uint64) *Scenario {
		sc := PaperScenarioWithT(80)
		sc.Cfg.Strict = true
		sc.Dyn = buildTimeline(t, churnScenarioText, 80, sc.Cfg.Capacity, tlSeed)
		return sc
	}
	a, err := Run(mk(7), LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(mk(7), LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	assertSeriesEqual(t, "churn determinism", a, b)

	c, err := Run(mk(8), LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Reward {
		if a.Reward[i] != c.Reward[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different timeline seeds produced identical reward series")
	}
}

// TestScenarioRunAllWorkersBitIdentical drives the concurrent path under
// churn: RunAll with several workers must equal serial runs, so the
// timeline is read-race-free and position-independent (this test runs
// under -race in make ci).
func TestScenarioRunAllWorkersBitIdentical(t *testing.T) {
	const seed = 42
	factories := StandardFactories()
	tl := buildTimeline(t, churnScenarioText, 60, DefaultConfig().Capacity, 7)

	sc := PaperScenarioWithT(60)
	sc.Dyn = tl
	par, err := RunAll(sc, factories, seed, 4)
	if err != nil {
		t.Fatal(err)
	}
	for fi, f := range factories {
		ref := PaperScenarioWithT(60)
		ref.Dyn = tl
		serial, err := Run(ref, f, seed)
		if err != nil {
			t.Fatalf("serial run %d: %v", fi, err)
		}
		assertSeriesEqual(t, fmt.Sprintf("RunAll churn[%s]", serial.Policy), serial, par[fi])
	}
}

// TestScenarioMaskedSCNsIdle verifies masking end to end under Strict
// validation: with a scenario that takes SCNs down, every policy still
// returns structurally legal assignments (no task lands on a down SCN —
// its coverage row is empty, so Strict would reject it), and the runs
// complete over a horizon long enough to cross sleep and churn
// transitions in both directions.
func TestScenarioMaskedSCNsIdle(t *testing.T) {
	const seed = 42
	tl := buildTimeline(t, churnScenarioText, 120, DefaultConfig().Capacity, 7)
	for _, f := range StandardFactories() {
		sc := PaperScenarioWithT(120)
		sc.Cfg.Strict = true
		sc.Dyn = tl
		if _, err := Run(sc, f, seed); err != nil {
			t.Fatalf("strict churn run: %v", err)
		}
	}
}

// TestScenarioSCNMismatchRejected pins the wiring guard: a timeline built
// for a different SCN count must be rejected up front, not read out of
// bounds mid-run.
func TestScenarioSCNMismatchRejected(t *testing.T) {
	cfg, err := scenario.Parse([]byte("scns = 7\n"))
	if err != nil {
		t.Fatal(err)
	}
	tl, err := scenario.Build(cfg, 7, 40, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc := PaperScenarioWithT(40)
	sc.Dyn = tl
	if _, err := Run(sc, LFSCFactory(nil), 42); err == nil {
		t.Fatal("expected SCN-count mismatch error")
	}
}
