package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"lfsc/internal/env"
	"lfsc/internal/obs"
	"lfsc/internal/rng"
	"lfsc/internal/sim"
	"lfsc/internal/trace"
)

// TestRouterDeterministicAcrossRestarts pins the consistent-hash mapping:
// it is a pure function of (scn, shard count) — two independently built
// rings agree everywhere, OwnerMap agrees with Shard, and a handful of
// golden values freeze the concrete mapping the sharded checkpoint layout
// depends on (a silent ring change would strand every shard file).
func TestRouterDeterministicAcrossRestarts(t *testing.T) {
	a, b := NewRouter(4), NewRouter(4)
	for scn := 0; scn < 2000; scn++ {
		if a.Shard(scn) != b.Shard(scn) {
			t.Fatalf("scn %d: ring A says %d, ring B says %d", scn, a.Shard(scn), b.Shard(scn))
		}
	}
	owner, ownedOf := a.OwnerMap(2000)
	for m, k := range owner {
		if k != a.Shard(m) {
			t.Fatalf("OwnerMap[%d] = %d, Shard = %d", m, k, a.Shard(m))
		}
	}
	seen := 0
	for k, list := range ownedOf {
		prev := -1
		for _, m := range list {
			if m <= prev {
				t.Fatalf("shard %d owned list not ascending: %v", k, list)
			}
			if owner[m] != k {
				t.Fatalf("scn %d in shard %d's list but owned by %d", m, k, owner[m])
			}
			prev = m
			seen++
		}
	}
	if seen != 2000 {
		t.Fatalf("owned lists cover %d SCNs, want 2000", seen)
	}

	golden := map[int]int{0: 0, 1: 1, 2: 1, 3: 0, 7: 0, 29: 0, 99: 1, 500: 2, 999: 3}
	for scn, want := range golden {
		if got := a.Shard(scn); got != want {
			t.Errorf("golden mapping moved: Shard(%d) = %d, want %d", scn, got, want)
		}
	}
}

// TestRouterBalance checks the ring spreads ownership acceptably at the
// SCN counts the repo targets: with 4 shards every count stays within
// [fair/3, 2*fair] of the fair share. (Consistent hashing trades perfect
// balance for relocation stability; 128 vnodes keep the skew modest.)
func TestRouterBalance(t *testing.T) {
	for _, scns := range []int{30, 100, 1000} {
		const shards = 4
		_, ownedOf := NewRouter(shards).OwnerMap(scns)
		fair := float64(scns) / shards
		for k, list := range ownedOf {
			n := float64(len(list))
			if n < fair/3 || n > 2*fair {
				t.Errorf("scns=%d: shard %d owns %d SCNs, outside [%.1f, %.1f]",
					scns, k, len(list), fair/3, 2*fair)
			}
		}
	}
}

// shardPoolFor returns the lockstep transport matching the daemon's shard
// count: the plain client at 1, the shard-routing pool otherwise.
func shardPoolFor(srv *Server, shards int) Conn {
	if shards <= 1 {
		return NewClient(srv.Addr())
	}
	return NewShardPool(srv.Addr(), shards)
}

// runLockstep boots a daemon with the given shard count, replays slots
// [0, T) over real HTTP through the matching transport, stops the engine,
// and returns (daemon cum reward, client cum reward).
func runLockstep(t *testing.T, sc ReplayScenario, shards int) (daemon, client float64) {
	t.Helper()
	eng, srv, _ := bootDaemon(t, sc, func(c *Config) { c.Shards = shards })
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := rep.Run(shardPoolFor(srv, shards), 0, sc.T, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	if st.ShedSlots != 0 {
		t.Fatalf("shards=%d: lockstep replay shed %d slots", shards, st.ShedSlots)
	}
	if eng.Slot() != sc.T {
		t.Fatalf("shards=%d: daemon served %d slots, want %d", shards, eng.Slot(), sc.T)
	}
	return eng.CumReward(), rep.CumReward()
}

// TestShardedLockstepThreeWayIdentity pins the shard plane's
// determinism: daemons at Shards=1, 2 and 4 (two of the four shards own
// no SCN at this scale) and an offline sim.Run of the same scenario all
// earn the hex-float-identical cumulative reward, on the daemon side and
// the client side.
func TestShardedLockstepThreeWayIdentity(t *testing.T) {
	const T, seed = 250, 42
	sc := testScenario(T, seed)

	simSc := &sim.Scenario{
		Cfg: sim.Config{T: T, Capacity: sc.Capacity, Alpha: sc.Alpha, Beta: sc.Beta, H: sc.H},
		NewGenerator: func(r *rng.Stream) (trace.Generator, error) {
			return trace.NewSynthetic(sc.Synthetic, r)
		},
		EnvCfg: sc.EnvCfg,
	}
	series, err := sim.Run(simSc, sim.LFSCFactory(nil), seed)
	if err != nil {
		t.Fatal(err)
	}
	offline := 0.0
	for _, r := range series.Reward {
		offline += r
	}

	for _, shards := range []int{1, 2, 4} {
		daemon, client := runLockstep(t, sc, shards)
		if daemon != offline {
			t.Errorf("shards=%d: daemon cum reward %x != offline sim %x (%.10f vs %.10f)",
				shards, daemon, offline, daemon, offline)
		}
		if client != offline {
			t.Errorf("shards=%d: client cum reward %x != offline sim %x", shards, client, offline)
		}
	}
}

// TestServeSmokeShards is the sharded kill-and-resume check behind `make
// serve-smoke-shards`: a Shards=4 daemon serves 200 slots with periodic
// sharded checkpoints, dies hard at slot 120, a fresh Shards=4 daemon
// restores the slot-100 generation from the per-shard files + manifest,
// replays the rest, and must land bit-identically on an uninterrupted
// sharded run. Also pins the on-disk layout: a manifest at the checkpoint
// path, per-shard generation files beside it, and the superseded
// generation garbage-collected.
func TestServeSmokeShards(t *testing.T) {
	const T, seed, every, shards = 200, 7, 100, 4
	sc := testScenario(T, seed)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "lfscd.ckpt")
	mutate := func(c *Config) {
		c.Shards = shards
		c.CheckpointPath = ckpt
		c.CheckpointEvery = every
	}

	// Run A: serve 120 slots, then die without checkpointing.
	engA, srvA, _ := bootDaemon(t, sc, mutate)
	repA, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repA.Run(shardPoolFor(srvA, shards), 0, 120, nil); err != nil {
		t.Fatal(err)
	}
	engA.Abort() // kill: slots 100..119 die with the process
	srvA.Close()

	// The slot-100 generation must be fully on disk: manifest + one file
	// per non-empty shard (the 4-SCN scenario leaves two shards empty).
	var man checkpointManifest
	buf, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no manifest after kill: %v", err)
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	if man.Shards != shards || man.Slot != every {
		t.Fatalf("manifest = %+v, want shards %d at slot %d", man, shards, every)
	}
	for k, owned := range func() [][]int { _, o := NewRouter(shards).OwnerMap(4); return o }() {
		_, statErr := os.Stat(shardFilePath(ckpt, man.Generation, k))
		if len(owned) > 0 && statErr != nil {
			t.Fatalf("shard %d file missing: %v", k, statErr)
		}
		if len(owned) == 0 && statErr == nil {
			t.Fatalf("empty shard %d wrote a file", k)
		}
	}

	// Run B: boot fresh, restore the sharded checkpoint, replay the rest.
	engB, srvB, _, restored := resumeDaemon(t, sc, ckpt, mutate)
	defer srvB.Close()
	if !restored {
		t.Fatal("no checkpoint found after kill")
	}
	if engB.Slot() != every {
		t.Fatalf("restored at slot %d, want %d", engB.Slot(), every)
	}
	repB, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repB.Run(shardPoolFor(srvB, shards), engB.Slot(), T, nil); err != nil {
		t.Fatal(err)
	}
	engB.Stop()

	// Run B's graceful stop wrote the next generation; the restored one
	// must be garbage-collected.
	if _, err := os.Stat(shardFilePath(ckpt, man.Generation, 0)); err == nil {
		t.Errorf("superseded generation %d not garbage-collected", man.Generation)
	}

	// Run C: the uninterrupted sharded control.
	engC, srvC, _ := bootDaemon(t, sc, func(c *Config) { c.Shards = shards })
	defer srvC.Close()
	repC, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := repC.Run(shardPoolFor(srvC, shards), 0, T, nil); err != nil {
		t.Fatal(err)
	}
	engC.Stop()

	got, want := engB.CumReward(), engC.CumReward()
	if got != want {
		t.Fatalf("sharded kill-and-resume diverged: resumed %x (%.12f) vs uninterrupted %x (%.12f)",
			got, got, want, want)
	}
	if engB.Slot() != engC.Slot() {
		t.Fatalf("slot counters diverged: %d vs %d", engB.Slot(), engC.Slot())
	}
}

// reshardScenario is the resharding tests' scenario: testScenario
// widened to 8 SCNs, where the 1-, 2- and 4-shard layouts all differ (at
// 4 SCNs the 2- and 4-shard layouts coincide). The committed legacy
// checkpoint was taken on it at slot 80.
func reshardScenario() ReplayScenario {
	sc := testScenario(160, 13)
	sc.Synthetic.SCNs = 8
	sc.EnvCfg = env.DefaultConfig(8, 27)
	return sc
}

// checkpointAt serves slots [0, slot) of sc at the given shard count with
// checkpoints at path, and stops gracefully — the final checkpoint lands
// at exactly slot.
func checkpointAt(t *testing.T, sc ReplayScenario, path string, shards, slot int) {
	t.Helper()
	eng, srv, _ := bootDaemon(t, sc, func(c *Config) {
		c.Shards = shards
		c.CheckpointPath = path
	})
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Run(shardPoolFor(srv, shards), 0, slot, nil); err != nil {
		t.Fatal(err)
	}
	eng.Stop()
}

// finishFrom serves slots [from, sc.T) on a started engine and returns
// its final cumulative reward.
func finishFrom(t *testing.T, sc ReplayScenario, eng *Engine, srv *Server, shards, from int) float64 {
	t.Helper()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Run(shardPoolFor(srv, shards), from, sc.T, nil); err != nil {
		t.Fatal(err)
	}
	eng.Stop()
	if eng.Slot() != sc.T {
		t.Fatalf("served to slot %d, want %d", eng.Slot(), sc.T)
	}
	return eng.CumReward()
}

// TestCheckpointReshardMatrix restores slot-80 checkpoints written at
// Shards 1, 2 and 4 — plus a legacy single-file checkpoint from the
// pre-manifest writer (testdata) — into daemons at Shards 1, 2 and 4.
// Every cell must finish the run bit-identically to an uninterrupted one.
// A generation missing a shard file is still refused.
func TestCheckpointReshardMatrix(t *testing.T) {
	sc := reshardScenario()
	dir := t.TempDir()
	sources := map[string]string{"legacy": filepath.Join("testdata", "legacy-slot80.ckpt")}
	for _, shards := range []int{1, 2, 4} {
		path := filepath.Join(dir, fmt.Sprintf("s%d.ckpt", shards))
		checkpointAt(t, sc, path, shards, 80)
		sources[fmt.Sprintf("shards=%d", shards)] = path
	}
	want, _ := runLockstep(t, sc, 1)

	for name, path := range sources {
		for _, shards := range []int{1, 2, 4} {
			eng, srv, _, restored := resumeDaemon(t, sc, path, func(c *Config) { c.Shards = shards })
			if !restored || eng.Slot() != 80 {
				t.Fatalf("%s into shards=%d: restored %v at slot %d, want slot 80", name, shards, restored, eng.Slot())
			}
			got := finishFrom(t, sc, eng, srv, shards, 80)
			srv.Close()
			if got != want {
				t.Errorf("%s into shards=%d: resumed cum reward %x != uninterrupted %x", name, shards, got, want)
			}
		}
	}

	// A generation missing a shard file must be refused, not half-restored.
	sharded := sources["shards=4"]
	man := readManifest(t, sharded)
	if err := os.Remove(shardFilePath(sharded, man.Generation, 0)); err != nil {
		t.Fatal(err)
	}
	eng := buildDaemon(t, sc, func(c *Config) { c.Shards = 4 })
	if err := eng.Restore(sharded); err == nil {
		t.Error("manifest with a missing shard file restored")
	}
}

func readManifest(t *testing.T, path string) checkpointManifest {
	t.Helper()
	var man checkpointManifest
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &man); err != nil {
		t.Fatal(err)
	}
	return man
}

// TestFailedRestoreLeavesEngineUntouched corrupts the last non-empty
// shard file of a 4-shard slot-80 generation (a negative λ¹): Restore
// must refuse it before any shard loads its rows, so the same engine
// then serves a replay from slot 0 bit-identically to a never-restored
// engine.
func TestFailedRestoreLeavesEngineUntouched(t *testing.T) {
	sc := reshardScenario()
	path := filepath.Join(t.TempDir(), "lfscd.ckpt")
	checkpointAt(t, sc, path, 4, 80)
	man := readManifest(t, path)
	_, ownedOf := NewRouter(4).OwnerMap(sc.Synthetic.SCNs)
	last := -1
	for k, owned := range ownedOf {
		if len(owned) > 0 {
			last = k
		}
	}
	shardPath := shardFilePath(path, man.Generation, last)
	buf, err := os.ReadFile(shardPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	doc["policy"].(map[string]any)["lambda1"].([]any)[0] = -1.0
	if buf, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shardPath, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	eng := buildDaemon(t, sc, func(c *Config) { c.Shards = 4 })
	if err := eng.Restore(path); err == nil {
		t.Fatal("generation with a negative multiplier restored")
	}
	if eng.Slot() != 0 || eng.slotsSeen() != 0 {
		t.Fatalf("refused restore moved the slot clock: Slot %d, learner %d", eng.Slot(), eng.slotsSeen())
	}
	srv, _ := startDaemon(t, eng)
	defer srv.Close()
	got := finishFrom(t, sc, eng, srv, 4, 0)
	if want, _ := runLockstep(t, sc, 4); got != want {
		t.Fatalf("engine after a refused restore: cum reward %x != never-restored %x", got, want)
	}
}

// TestReshardRestoreCleansSupersededGeneration restores a 4-shard
// generation into a 2-shard daemon and checkpoints twice: every file of
// the 4-shard generation must go, not only the shards the live engine
// has, leaving exactly the manifest and the live generation's files.
func TestReshardRestoreCleansSupersededGeneration(t *testing.T) {
	sc := reshardScenario()
	dir := t.TempDir()
	path := filepath.Join(dir, "lfscd.ckpt")
	checkpointAt(t, sc, path, 4, 80)

	const shards = 2
	eng, srv, _, _ := resumeDaemon(t, sc, path, func(c *Config) {
		c.Shards = shards
		c.CheckpointPath = path
		c.CheckpointEvery = 10
	})
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	// One periodic checkpoint at slot 90, one on Stop at slot 95.
	if _, err := rep.Run(shardPoolFor(srv, shards), 80, 95, nil); err != nil {
		t.Fatal(err)
	}
	eng.Stop()

	man := readManifest(t, path)
	if man.Shards != shards || man.Slot != 95 {
		t.Fatalf("manifest = %+v, want shards %d at slot 95", man, shards)
	}
	want := []string{filepath.Base(path)}
	_, ownedOf := NewRouter(shards).OwnerMap(sc.Synthetic.SCNs)
	for k, owned := range ownedOf {
		if len(owned) > 0 {
			want = append(want, filepath.Base(shardFilePath(path, man.Generation, k)))
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, de := range entries {
		got = append(got, de.Name())
	}
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("checkpoint directory holds %v, want %v", got, want)
	}
}

// TestShardedStatusAndSnapshots drives a few sharded slots and checks the
// observability surfaces: /lfsc/status carries a routing line per shard,
// and sampled policy snapshots stamp the consistent-hash owner map.
func TestShardedStatusAndSnapshots(t *testing.T) {
	const T, seed, shards = 30, 21, 4
	sc := testScenario(T, seed)
	ring := obs.NewSnapshotRing(4)
	eng, srv, _ := bootDaemon(t, sc, func(c *Config) {
		c.Shards = shards
		c.SnapshotEvery = 10
		c.SnapshotSink = ring
	})
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Run(shardPoolFor(srv, shards), 0, T, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + srv.Addr() + "/lfsc/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	status := string(body)
	for k := 0; k < shards; k++ {
		if !strings.Contains(status, fmt.Sprintf("shard %d:", k)) {
			t.Fatalf("/lfsc/status missing shard %d line:\n%s", k, status)
		}
	}
	eng.Stop()

	snaps := ring.Snapshots()
	if len(snaps) == 0 {
		t.Fatal("no snapshots sampled")
	}
	last := snaps[len(snaps)-1]
	if len(last.Owner) != 4 {
		t.Fatalf("sharded snapshot owner map has %d entries, want 4", len(last.Owner))
	}
	router := NewRouter(shards)
	for m, k := range last.Owner {
		if k != router.Shard(m) {
			t.Fatalf("snapshot owner[%d] = %d, router says %d", m, k, router.Shard(m))
		}
	}
}

// BenchmarkShardedEngineSlot mirrors BenchmarkEngineSlot at Shards=4 so
// the sharded slot path shows up in `go test -bench` sweeps.
func BenchmarkShardedEngineSlot(b *testing.B) {
	sc := testScenario(1<<30, 9)
	cfg, err := sc.EngineConfig()
	if err != nil {
		b.Fatal(err)
	}
	cfg.ReportWait = 5 * time.Second
	cfg.Shards = 4
	eng, err := NewEngine(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng.Start()
	defer eng.Stop()
	rep, err := NewReplayer(sc)
	if err != nil {
		b.Fatal(err)
	}
	var reports []TaskReport
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep.env.Advance(i)
		rep.gen.NextInto(i, &rep.slotBuf)
		rep.buildSpecs()
		resp, err := eng.Submit(&SubmitRequest{Tasks: rep.specs, Close: true})
		if err != nil {
			b.Fatal(err)
		}
		reports = reports[:0]
		for idx, m := range resp.Assigned {
			if m >= 0 {
				reports = append(reports, TaskReport{Task: idx, U: 0.5, V: 1, Q: 1.5})
			}
		}
		if len(reports) > 0 {
			if _, err := eng.Report(&ReportRequest{Slot: resp.Slot, Reports: reports}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	awaitSlots(b, eng, b.N)
	if eng.Slot() != b.N {
		b.Fatalf("served %d slots, want %d", eng.Slot(), b.N)
	}
}
