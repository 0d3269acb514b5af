package core

import (
	"bytes"
	"testing"

	"lfsc/internal/rng"
)

// FuzzCheckpointLoad feeds arbitrary bytes (seeded with a valid
// checkpoint, a v1 one Load refuses, and near-miss corruptions) into LFSC.Load and checks the
// hardening contract: Load never panics, and a Load that returns an error
// leaves the learner's observable state — weights, multipliers, slot
// counter — exactly as it was.
func FuzzCheckpointLoad(f *testing.F) {
	l := MustNew(testConfig(), rng.New(50))
	r := rng.New(51)
	truth := map[int][3]float64{
		0: {0.9, 0.9, 1.1}, 1: {0.2, 0.4, 1.8},
		2: {0.6, 0.7, 1.3}, 3: {0.4, 0.2, 1.9},
	}
	for t0 := 0; t0 < 20; t0++ {
		view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		runSlot(l, view, truth, r)
	}

	// Seed corpus: a genuine v2 checkpoint, a v1 document (refused on its
	// version), and v2 corruptions exercising every validation branch.
	var valid bytes.Buffer
	if err := save(&valid, l); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{"version":1,"scns":2,"cells":4,"log_weights":[[0,0,0,0],[0.5,-1,0,0]],"lambda1":[0,0.25],"lambda2":[0,0]}`))
	f.Add([]byte(`{"version":2,"scns":2,"cells":4,"t":7,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[9,7,5]]}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`{"version":2,"scns":2,"cells":4,"t":-3,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`))
	f.Add([]byte(`{"version":2,"scns":2,"cells":4,"t":7,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,2,5],[1,3,5]]}`))
	f.Add([]byte(`{"version":2,"scns":3,"cells":4,"t":7,"log_weights":[[0,0,0,0],[0,0,0,0],[0,0,0,0]],"lambda1":[0,0,0],"lambda2":[0,0,0],"rng":[[1,3,5],[1,3,5],[1,3,5]]}`))
	f.Add([]byte(`{"version":2,"scns":2,"cells":4,"t":7,"log_weights":[[0,0,0],[0,0,0,0]],"lambda1":[0,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`))
	f.Add([]byte(`{"version":2,"scns":2,"cells":4,"t":7,"log_weights":[[0,0,0,0],[0,0,0,0]],"lambda1":[-1,0],"lambda2":[0,0],"rng":[[1,3,5],[1,3,5]]}`))
	f.Add([]byte(`not a checkpoint`))
	f.Add([]byte(`{"version":2,"scns":2,`))
	f.Add([]byte(``))

	f.Fuzz(func(t *testing.T, data []byte) {
		target := MustNew(testConfig(), rng.New(52))
		// Pre-train a little so "unchanged" is distinguishable from "reset".
		rr := rng.New(53)
		for t0 := 0; t0 < 3; t0++ {
			view := makeView(t0, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
			runSlot(target, view, truth, rr)
		}
		before := snapshotState(target)
		err := target.Load(bytes.NewReader(data))
		if err != nil {
			if !statesEqual(before, snapshotState(target)) {
				t.Fatalf("failed Load mutated policy state (err=%v)", err)
			}
			return
		}
		// A successful load must leave the learner usable: one full slot
		// must run without panicking and produce a valid assignment.
		view := makeView(99, [][]int{{0, 1, 2, 3, 0, 1}, {2, 3, 0, 1}})
		runSlot(target, view, truth, rr)
	})
}
