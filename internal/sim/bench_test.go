package sim

import (
	"testing"

	"lfsc/internal/obs"
)

// BenchmarkRunLFSC measures the full simulation loop (generation + view
// building + Decide + execution + Observe) at paper scale; b.N counts slots.
func BenchmarkRunLFSC(b *testing.B) {
	sc := PaperScenario()
	sc.Cfg.T = b.N
	if sc.Cfg.T < 10 {
		sc.Cfg.T = 10
	}
	b.ResetTimer()
	if _, err := Run(sc, LFSCFactory(nil), 42); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunLFSCProbeOff is BenchmarkRunLFSC with an explicit (but
// empty) obs.Options — the configuration every probe hook nil-checks
// against. Compare against BenchmarkRunLFSCProbeOn to price the
// observability layer; the off/on delta is the true probe cost and the
// off/BenchmarkRunLFSC delta must be noise.
func BenchmarkRunLFSCProbeOff(b *testing.B) {
	sc := PaperScenario()
	sc.Cfg.T = b.N
	if sc.Cfg.T < 10 {
		sc.Cfg.T = 10
	}
	sc.Cfg.Obs = &obs.Options{}
	b.ResetTimer()
	if _, err := Run(sc, LFSCFactory(nil), 42); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunLFSCProbeOn measures the full loop with phase timing and
// run telemetry enabled: five clock reads plus a dozen atomic adds per
// slot, against a ~hundreds-of-µs slot.
func BenchmarkRunLFSCProbeOn(b *testing.B) {
	sc := PaperScenario()
	sc.Cfg.T = b.N
	if sc.Cfg.T < 10 {
		sc.Cfg.T = 10
	}
	sc.Cfg.Obs = &obs.Options{Probe: obs.NewProbe(), Registry: obs.NewRegistry()}
	b.ResetTimer()
	if _, err := Run(sc, LFSCFactory(nil), 42); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRunAllStandard measures the five-policy comparison on one
// worker, each run generating its own workload.
func BenchmarkRunAllStandard(b *testing.B) {
	sc := PaperScenario()
	sc.Cfg.T = b.N
	if sc.Cfg.T < 10 {
		sc.Cfg.T = 10
	}
	b.ResetTimer()
	if _, err := RunAll(sc, StandardFactories(), 42, 1); err != nil {
		b.Fatal(err)
	}
}
