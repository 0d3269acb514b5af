package core

import (
	"bytes"
	"io"
	"math"
	"strings"
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

// TestPartialCheckpointRoundTrip saves each shard of a trained sharded
// deployment, restores the files into fresh partial learners, and checks
// the restored state (weights, multipliers, RNG streams, slot clock)
// matches bit-for-bit. It also pins the rejection rules: a partial
// checkpoint cannot load into a full learner or into a shard with a
// different owned set, and a full (pre-sharding) checkpoint loads into a
// partial learner, committing only the owned rows.
func TestPartialCheckpointRoundTrip(t *testing.T) {
	cfg := Config{
		SCNs: 5, Capacity: 2, Alpha: 1, Beta: 4,
		Cells: 9, KMax: 10, Horizon: 100,
	}
	_, shards, _, _ := shardFixture(t, cfg, 9, 2)
	// Perturb shard state so the round trip carries non-default values.
	for _, sh := range shards {
		for _, m := range sh.owned {
			st := sh.scns[m]
			for f := range st.logW {
				st.logW[f] = float64(m*100+f) / 7
			}
			st.lambda1 = float64(m) * 0.25
			st.lambda2 = float64(m) * 0.5
			st.r.Float64() // advance so stream state is non-initial
		}
		sh.slots = 42
	}

	for k, sh := range shards {
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			t.Fatalf("shard %d save: %v", k, err)
		}
		doc := buf.Bytes()

		restored, err := NewPartial(cfg, rng.New(1), sh.Owned())
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.Load(bytes.NewReader(doc)); err != nil {
			t.Fatalf("shard %d load: %v", k, err)
		}
		if restored.slots != 42 {
			t.Fatalf("shard %d restored slot clock %d, want 42", k, restored.slots)
		}
		for _, m := range sh.owned {
			a, b := sh.scns[m], restored.scns[m]
			for f := range a.logW {
				if math.Float64bits(a.logW[f]) != math.Float64bits(b.logW[f]) {
					t.Fatalf("shard %d SCN %d cell %d weight mismatch", k, m, f)
				}
			}
			if a.lambda1 != b.lambda1 || a.lambda2 != b.lambda2 {
				t.Fatalf("shard %d SCN %d multiplier mismatch", k, m)
			}
			if a.r.State() != b.r.State() {
				t.Fatalf("shard %d SCN %d RNG state mismatch", k, m)
			}
		}

		// A partial document must not load into a full learner...
		full := MustNew(cfg, rng.New(1))
		if err := full.Load(bytes.NewReader(doc)); err == nil ||
			!strings.Contains(err.Error(), "partial checkpoint") {
			t.Fatalf("partial doc into full learner: got %v, want owned-set mismatch", err)
		}
		// ...nor into a shard owning a different SCN set.
		other, err := NewPartial(cfg, rng.New(1), shards[1-k].Owned())
		if err != nil {
			t.Fatal(err)
		}
		if err := other.Load(bytes.NewReader(doc)); err == nil {
			t.Fatal("partial doc loaded into mismatched shard")
		}
	}

	// Compat: a full checkpoint (the only format before sharding existed)
	// loads into a partial learner, committing exactly the owned rows.
	full := MustNew(cfg, rng.New(77))
	for _, st := range full.scns {
		st.lambda1 = 0.125
	}
	full.slots = 17
	var buf bytes.Buffer
	if err := full.Save(&buf); err != nil {
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
	for _, m := range []int{1, 3} {
		if partial.scns[m].lambda1 != 0.125 {
			t.Fatalf("SCN %d lambda1 not restored", m)
		}
		if partial.scns[m].r.State() != full.scns[m].r.State() {
			t.Fatalf("SCN %d RNG state not restored", m)
		}
	}
}

// TestLoadStitchesShardDocuments restores the shard documents of a
// 3-shard deployment, all at once, into learners of other layouts — a
// full learner and a 2-shard split — row for row; and it pins the
// multi-document refusals (a row covered twice, documents disagreeing on
// the slot counter, a corrupt row in the last document), each of which
// must leave the target exactly as it was.
func TestLoadStitchesShardDocuments(t *testing.T) {
	cfg := Config{
		SCNs: 5, Capacity: 2, Alpha: 1, Beta: 4,
		Cells: 9, KMax: 10, Horizon: 100,
	}
	_, shards, _, _ := shardFixture(t, cfg, 9, 3)
	var docs [][]byte
	for _, sh := range shards {
		for _, m := range sh.owned {
			st := sh.scns[m]
			st.logW[m] = float64(m) / 3
			st.lambda1 = float64(m) * 0.25
			st.r.Float64()
		}
		sh.slots = 42
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, buf.Bytes())
	}
	readers := func(ds ...[]byte) []io.Reader {
		rs := make([]io.Reader, len(ds))
		for i, d := range ds {
			rs[i] = bytes.NewReader(d)
		}
		return rs
	}
	matches := func(l *LFSC) {
		t.Helper()
		if l.slots != 42 {
			t.Fatalf("slot clock %d, want 42", l.slots)
		}
		for m, st := range l.scns {
			if st == nil {
				continue
			}
			src := shards[m%3].scns[m]
			if st.logW[m] != src.logW[m] || st.lambda1 != src.lambda1 || st.r.State() != src.r.State() {
				t.Fatalf("SCN %d not restored from its shard document", m)
			}
		}
	}

	full := MustNew(cfg, rng.New(1))
	if err := full.Load(readers(docs...)...); err != nil {
		t.Fatalf("3 shard documents into a full learner: %v", err)
	}
	matches(full)
	for _, owned := range [][]int{{0, 1, 4}, {2, 3}} {
		l, err := NewPartial(cfg, rng.New(1), owned)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Load(readers(docs...)...); err != nil {
			t.Fatalf("3 shard documents into partial %v: %v", owned, err)
		}
		matches(l)
	}

	skewed := bytes.Replace(docs[1], []byte(`"t":42`), []byte(`"t":41`), 1)
	corrupt := bytes.Replace(docs[2], []byte(`"lambda1":[0.5`), []byte(`"lambda1":[-0.5`), 1)
	if bytes.Equal(skewed, docs[1]) || bytes.Equal(corrupt, docs[2]) {
		t.Fatal("fixture edits did not apply")
	}
	for name, set := range map[string][][]byte{
		"row covered twice": {docs[0], docs[1], docs[2], docs[0]},
		"slot disagreement": {docs[0], skewed, docs[2]},
		"corrupt last doc":  {docs[0], docs[1], corrupt},
		"SCNs uncovered":    {docs[0], docs[1]},
	} {
		target := MustNew(cfg, rng.New(2))
		before := snapshotState(target)
		if err := target.Load(readers(set...)...); err == nil {
			t.Fatalf("%s: documents accepted", name)
		}
		if !statesEqual(before, snapshotState(target)) {
			t.Fatalf("%s: refused load mutated the learner", name)
		}
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
