// Trace-driven: record a workload trace to CSV, load it back, and replay
// it through the simulator — the integration path for real-world traces.
// Pass a path to your own trace (package trace CSV format, see
// cmd/tracegen) as the first argument to replay it instead.
//
//	go run ./examples/tracedriven [trace.csv]
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"lfsc"

	"lfsc/internal/env"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

const numSCNs = 8

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	path := ""
	if len(os.Args) > 1 {
		path = os.Args[1]
	} else {
		// No trace supplied: record a reproducible synthetic one first, in
		// a directory removed before the program exits.
		dir, err := os.MkdirTemp("", "lfsc-example-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path = filepath.Join(dir, "trace.csv")
		if err := recordTrace(path); err != nil {
			return err
		}
		fmt.Printf("recorded synthetic trace to %s\n", path)
	}

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	slots, err := trace.ReadCSV(f, numSCNs)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d slots\n", len(slots))

	// Replay the recorded workload; the horizon may exceed the trace
	// length — the replay cycles, so learners see several passes.
	sc := &lfsc.Scenario{
		Cfg: lfsc.Config{T: 4 * len(slots), Capacity: 5, Alpha: 2.5, Beta: 8, H: 3},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewReplay(slots, numSCNs)
		},
		EnvCfg: env.DefaultConfig(numSCNs, 27),
	}
	series, err := sim.RunAll(sc, []sim.Factory{
		sim.OracleFactory(false),
		sim.LFSCFactory(nil),
		sim.VUCBFactory(),
		sim.RandomFactory(),
	}, 11, 0)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-8s %12s %12s %8s\n", "policy", "reward", "violations", "ratio")
	for _, s := range series {
		fmt.Printf("%-8s %12.1f %12.1f %8.3f\n",
			s.Policy, s.TotalReward(), s.TotalViolations(), s.PerformanceRatio())
	}
	return nil
}

func recordTrace(path string) error {
	gen, err := trace.NewSynthetic(trace.SyntheticConfig{
		SCNs: numSCNs, MinTasks: 10, MaxTasks: 25, Overlap: 0.4,
		LatencySensitiveFrac: 0.5,
	}, rng.New(99))
	if err != nil {
		return err
	}
	recorded := make([]*trace.Slot, 400)
	for t := range recorded {
		recorded[t] = gen.Next(t)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return trace.WriteCSV(f, recorded)
}
