package core

import (
	"bytes"
	"math"
	"testing"

	"lfsc/internal/assign"
	"lfsc/internal/hypercube"
	"lfsc/internal/policy"
	"lfsc/internal/rng"
	"lfsc/internal/trace"
)

// shardFixture builds a full learner and an equivalent sharded deployment
// (numShards partial learners + a Merger) from the same seed, with SCNs
// assigned round-robin to shards.
func shardFixture(t *testing.T, cfg Config, seed uint64, numShards int) (*LFSC, []*LFSC, []int, *Merger) {
	t.Helper()
	full := MustNew(cfg, rng.New(seed))
	owner := make([]int, cfg.SCNs)
	ownedOf := make([][]int, numShards)
	for m := 0; m < cfg.SCNs; m++ {
		k := m % numShards
		owner[m] = k
		ownedOf[k] = append(ownedOf[k], m)
	}
	shards := make([]*LFSC, numShards)
	for k := range shards {
		l, err := NewPartial(cfg, rng.New(seed), ownedOf[k])
		if err != nil {
			t.Fatal(err)
		}
		shards[k] = l
	}
	merger, err := NewMerger(cfg, shards, owner)
	if err != nil {
		t.Fatal(err)
	}
	return full, shards, owner, merger
}

// TestShardedMatchesFullLearner drives a full learner and a 3-shard
// partial-learner deployment through 300 synthetic slots in lockstep and
// requires bit-identical assignments, log-weights, and multipliers every
// slot — the core half of the Shards=1-vs-N identity guarantee.
func TestShardedMatchesFullLearner(t *testing.T) {
	const slots = 300
	gen, err := trace.NewSynthetic(trace.SyntheticConfig{
		SCNs: 7, MinTasks: 6, MaxTasks: 20,
		Overlap: 0.35, LatencySensitiveFrac: 0.5,
	}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	part := hypercube.MustNew(3, 3)
	cfg := Config{
		SCNs: gen.SCNs(), Capacity: 3, Alpha: 2, Beta: 6,
		Cells: part.Cells(), KMax: gen.MaxPerSCN(), Horizon: slots,
	}
	full, shards, _, merger := shardFixture(t, cfg, 5, 3)

	cells := make([]int, 0, 256)
	for ts := 0; ts < slots; ts++ {
		slot := gen.Next(ts)
		cells = cells[:0]
		for _, tk := range slot.Tasks {
			cells = append(cells, part.IndexTask(tk, false))
		}
		view := &policy.SlotView{T: ts, NumTasks: len(slot.Tasks), Cells: cells}
		for _, cov := range slot.Coverage {
			view.SCNs = append(view.SCNs, policy.SCNView{Cover: cov})
		}

		fullAssign := full.Decide(view)
		for _, sh := range shards {
			sh.DecideLocal(view)
		}
		shardAssign := merger.Resolve(view)
		for i := range fullAssign {
			if fullAssign[i] != shardAssign[i] {
				t.Fatalf("slot %d task %d: full assigned %d, sharded %d",
					ts, i, fullAssign[i], shardAssign[i])
			}
		}

		fb := &policy.Feedback{}
		slotFB := rng.New(123).Derive(uint64(ts))
		for taskIdx, m := range fullAssign {
			if m < 0 {
				continue
			}
			v := 0.0
			if slotFB.Bernoulli(0.8) {
				v = 1
			}
			fb.Execs = append(fb.Execs, policy.Exec{
				SCN: m, Task: taskIdx, Cell: cells[taskIdx],
				U: slotFB.Float64(), V: v, Q: slotFB.Uniform(0.5, 1.5),
			})
		}
		full.Observe(view, fullAssign, fb)
		for _, sh := range shards {
			sh.Observe(view, shardAssign, fb)
		}

		for m := 0; m < cfg.SCNs; m++ {
			sa := full.scns[m]
			sb := shards[m%3].scns[m]
			for f := range sa.logW {
				if math.Float64bits(sa.logW[f]) != math.Float64bits(sb.logW[f]) {
					t.Fatalf("slot %d SCN %d cell %d: full logW %x != sharded %x",
						ts, m, f, sa.logW[f], sb.logW[f])
				}
			}
			if math.Float64bits(sa.lambda1) != math.Float64bits(sb.lambda1) ||
				math.Float64bits(sa.lambda2) != math.Float64bits(sb.lambda2) {
				t.Fatalf("slot %d SCN %d: multipliers diverged", ts, m)
			}
		}
	}
}

// TestMergerLockstepTwins pins the merge-order equality at 1/2/4/7
// shards: a sharded deployment whose Merger k-way-merges edge lists
// spread across partial learners must stay bit-identical — assignments,
// log-weights, multipliers — to a full learner merging its own lists.
// The workload is edge-heavy, and Deterministic mode keeps every covered
// task an edge so the merge is the whole resolution stage.
func TestMergerLockstepTwins(t *testing.T) {
	const slots = 120
	for _, numShards := range []int{1, 2, 4, 7} {
		gen, err := trace.NewSynthetic(trace.SyntheticConfig{
			SCNs: 7, MinTasks: 80, MaxTasks: 120,
			Overlap: 0.4, LatencySensitiveFrac: 0.5,
		}, rng.New(31))
		if err != nil {
			t.Fatal(err)
		}
		part := hypercube.MustNew(3, 3)
		cfg := Config{
			SCNs: gen.SCNs(), Capacity: 3, Alpha: 2, Beta: 6,
			Cells: part.Cells(), KMax: gen.MaxPerSCN(), Horizon: slots,
			Mode: Deterministic,
		}
		full, shards, owner, merger := shardFixture(t, cfg, 13, numShards)

		cells := make([]int, 0, 1024)
		var exported [][]assign.Edge
		for ts := 0; ts < slots; ts++ {
			slot := gen.Next(ts)
			cells = cells[:0]
			for _, tk := range slot.Tasks {
				cells = append(cells, part.IndexTask(tk, false))
			}
			view := &policy.SlotView{T: ts, NumTasks: len(slot.Tasks), Cells: cells}
			for _, cov := range slot.Coverage {
				view.SCNs = append(view.SCNs, policy.SCNView{Cover: cov})
			}

			fullAssign := full.Decide(view)
			for _, sh := range shards {
				sh.DecideLocal(view)
			}

			// ExportEdges must stitch across shards into exactly the edge
			// lists the full learner primed: each SCN's list lives on its
			// owning shard and nowhere else.
			fullEdges := full.ExportEdges(nil)
			for k, sh := range shards {
				exported = sh.ExportEdges(exported)
				for m := range exported {
					if owner[m] != k {
						if exported[m] != nil {
							t.Fatalf("shards=%d slot %d: shard %d exported unowned SCN %d",
								numShards, ts, k, m)
						}
						continue
					}
					if len(exported[m]) != len(fullEdges[m]) {
						t.Fatalf("shards=%d slot %d SCN %d: shard exported %d edges, full %d",
							numShards, ts, m, len(exported[m]), len(fullEdges[m]))
					}
					for i := range exported[m] {
						if exported[m][i] != fullEdges[m][i] {
							t.Fatalf("shards=%d slot %d SCN %d edge %d: shard %+v, full %+v",
								numShards, ts, m, i, exported[m][i], fullEdges[m][i])
						}
					}
				}
			}

			shardAssign := merger.Resolve(view)
			for i := range fullAssign {
				if fullAssign[i] != shardAssign[i] {
					t.Fatalf("shards=%d slot %d task %d: full assigned %d, sharded %d",
						numShards, ts, i, fullAssign[i], shardAssign[i])
				}
			}

			fb := &policy.Feedback{}
			slotFB := rng.New(321).Derive(uint64(ts))
			for taskIdx, m := range fullAssign {
				if m < 0 {
					continue
				}
				v := 0.0
				if slotFB.Bernoulli(0.8) {
					v = 1
				}
				fb.Execs = append(fb.Execs, policy.Exec{
					SCN: m, Task: taskIdx, Cell: cells[taskIdx],
					U: slotFB.Float64(), V: v, Q: slotFB.Uniform(0.5, 1.5),
				})
			}
			full.Observe(view, fullAssign, fb)
			for _, sh := range shards {
				sh.Observe(view, shardAssign, fb)
			}

			for m := 0; m < cfg.SCNs; m++ {
				sa, sb := full.scns[m], shards[owner[m]].scns[m]
				for f := range sa.logW {
					if math.Float64bits(sa.logW[f]) != math.Float64bits(sb.logW[f]) {
						t.Fatalf("shards=%d slot %d SCN %d cell %d: logW diverged",
							numShards, ts, m, f)
					}
				}
				if math.Float64bits(sa.lambda1) != math.Float64bits(sb.lambda1) ||
					math.Float64bits(sa.lambda2) != math.Float64bits(sb.lambda2) {
					t.Fatalf("shards=%d slot %d SCN %d: multipliers diverged", numShards, ts, m)
				}
			}
		}
	}
}

// TestPartialCheckpointRoundTrip pins how a sharded deployment restores:
// the full document Gather writes loads into a partial learner, which
// commits exactly the rows it owns, RNG streams and slot clock included.
func TestPartialCheckpointRoundTrip(t *testing.T) {
	cfg := Config{
		SCNs: 5, Capacity: 2, Alpha: 1, Beta: 4,
		Cells: 9, KMax: 10, Horizon: 100,
	}
	full := MustNew(cfg, rng.New(77))
	for m, st := range full.scns {
		for f := range st.logW {
			st.logW[f] = float64(m*100+f) / 7
		}
		st.lambda1 = 0.125
		st.lambda2 = float64(m) * 0.5
		st.r.Float64() // advance so stream state is non-initial
	}
	full.slots = 17
	var buf bytes.Buffer
	if err := save(&buf, full); err != nil {
		t.Fatal(err)
	}
	partial, err := NewPartial(cfg, rng.New(1), []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("full doc into partial learner: %v", err)
	}
	if partial.slots != 17 {
		t.Fatalf("slot clock %d, want 17", partial.slots)
	}
	for m, st := range partial.scns {
		if m != 1 && m != 3 {
			if st != nil {
				t.Fatalf("SCN %d materialized by a learner that does not own it", m)
			}
			continue
		}
		src := full.scns[m]
		for f := range src.logW {
			if math.Float64bits(st.logW[f]) != math.Float64bits(src.logW[f]) {
				t.Fatalf("SCN %d cell %d weight not restored", m, f)
			}
		}
		if st.lambda1 != src.lambda1 || st.lambda2 != src.lambda2 {
			t.Fatalf("SCN %d multipliers not restored", m)
		}
		if st.r.State() != src.r.State() {
			t.Fatalf("SCN %d RNG state not restored", m)
		}
	}
}

// TestGatherFromShardsEqualsFull pins the writer's bytes: the document
// Gather builds from 2 and from 4 partial learners (and a nil entry, an
// empty shard) is byte-identical to the one a full learner holding the
// same state writes. Learners that miss an SCN, hold one twice or
// disagree on the slot counter are refused.
func TestGatherFromShardsEqualsFull(t *testing.T) {
	cfg := Config{
		SCNs: 7, Capacity: 2, Alpha: 1, Beta: 4,
		Cells: 9, KMax: 10, Horizon: 100,
	}
	encode := func(learners ...*LFSC) ([]byte, error) {
		var buf bytes.Buffer
		err := save(&buf, learners...)
		return buf.Bytes(), err
	}
	for _, n := range []int{2, 4} {
		full, shards, _, _ := shardFixture(t, cfg, 9, n)
		for m := 0; m < cfg.SCNs; m++ {
			for _, st := range []*scnState{full.scns[m], shards[m%n].scns[m]} {
				for f := range st.logW {
					st.logW[f] = float64(m*100+f) / 7
				}
				st.lambda1, st.lambda2 = float64(m)*0.25, float64(m)/3
				for range m + 1 {
					st.r.Float64()
				}
			}
		}
		full.slots = 42
		for _, sh := range shards {
			sh.slots = 42
		}
		want, err := encode(full)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encode(append([]*LFSC{nil}, shards...)...)
		if err != nil {
			t.Fatalf("%d shards: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d shards: gathered document differs from the full learner's:\n%s\nvs\n%s", n, got, want)
		}

		if _, err := encode(shards[1:]...); err == nil {
			t.Errorf("%d shards: learners missing SCN 0 gathered", n)
		}
		if _, err := encode(append([]*LFSC{full}, shards...)...); err == nil {
			t.Errorf("%d shards: learners holding every SCN twice gathered", n)
		}
		shards[n-1].slots = 41
		if _, err := encode(shards...); err == nil {
			t.Errorf("%d shards: learners disagreeing on the slot counter gathered", n)
		}
	}
	if _, err := encode(nil); err == nil {
		t.Error("a checkpoint of no learner gathered")
	}
}

// TestPartialLearnerGuards pins the misuse errors: Decide on a partial
// learner panics, and NewPartial rejects malformed owned lists.
func TestPartialLearnerGuards(t *testing.T) {
	cfg := Config{SCNs: 4, Capacity: 2, Alpha: 1, Beta: 4, Cells: 9, KMax: 10, Horizon: 100}
	for _, owned := range [][]int{nil, {}, {2, 1}, {0, 0}, {-1}, {4}} {
		if _, err := NewPartial(cfg, rng.New(1), owned); err == nil {
			t.Fatalf("NewPartial(%v): expected error", owned)
		}
	}
	l, err := NewPartial(cfg, rng.New(1), []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Decide on a partial learner did not panic")
		}
	}()
	l.Decide(&policy.SlotView{})
}
