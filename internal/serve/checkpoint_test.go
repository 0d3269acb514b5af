package serve

import (
	"bytes"
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

	"lfsc/internal/obs"
)

// faultFS runs a checkpoint commit's file operations on the real file
// system and records each one, with at most one fault, at operation
// number at (counted from 0 over the FS's life; -1 for none). Unless
// crash is set the operation fails with an error, which the commit sees.
// With crash set the process "dies" there: that operation and every later
// one do nothing (a dead process's descriptors are still closed, as the
// kernel would) and report success, so the commit runs on with no cleanup
// and the disk keeps what the earlier operations left. writes keeps the
// bytes of every write call, performed or not.
type faultFS struct {
	at     int
	crash  bool
	ops    []string
	writes [][]byte
}

// do records op and reports whether it runs, or the error it fails with.
func (f *faultFS) do(op string) (bool, error) {
	n := len(f.ops)
	f.ops = append(f.ops, op)
	switch {
	case f.at < 0 || n < f.at:
		return true, nil
	case f.crash:
		return false, nil
	case n == f.at:
		return false, fmt.Errorf("injected %s fault", op)
	}
	return true, nil
}

func (f *faultFS) create(name string) (ckptFile, error) {
	if ok, err := f.do("create"); !ok {
		if err != nil {
			return nil, err
		}
		return &faultFile{fs: f}, nil
	}
	file, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file}, nil
}

func (f *faultFS) rename(oldpath, newpath string) error {
	if ok, err := f.do("rename"); !ok {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (f *faultFS) syncDir(dir string) error {
	if ok, err := f.do("syncdir"); !ok {
		return err
	}
	return osFS{}.syncDir(dir)
}

// faultFile is the temporary file a faultFS created; f is nil when the
// create itself came after the crash.
type faultFile struct {
	fs *faultFS
	f  *os.File
}

func (w *faultFile) Write(p []byte) (int, error) {
	w.fs.writes = append(w.fs.writes, bytes.Clone(p))
	if ok, err := w.fs.do("write"); !ok {
		if err != nil {
			return 0, err
		}
		return len(p), nil
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	if ok, err := w.fs.do("sync"); !ok {
		return err
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error {
	ok, err := w.fs.do("close")
	if w.f != nil {
		if cerr := w.f.Close(); ok {
			return cerr
		}
	}
	return err
}

// awaitCommits waits until the engine has finished n checkpoint commits,
// committed or failed. The counters move after each commit's last file
// operation, so everything the commit did happens before this returns.
func awaitCommits(t *testing.T, eng *Engine, n uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for eng.ckptOK.Load()+eng.ckptFailed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine finished %d checkpoint commits, want %d",
				eng.ckptOK.Load()+eng.ckptFailed.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// dirNames lists the names in dir, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range entries {
		names = append(names, de.Name())
	}
	return names
}

// replayInProcess serves slots [from, to) of sc on a started engine
// through the in-process Conn, continuing rep.
func replayInProcess(t *testing.T, rep *Replayer, eng *Engine, from, to int) {
	t.Helper()
	if _, err := rep.Run(&engineConn{eng: eng}, from, to, nil); err != nil {
		t.Fatal(err)
	}
}

// finishInProcess restores path into a fresh engine at the given shard
// count, serves the rest of sc in process and returns the restored slot
// and the final cumulative reward.
func finishInProcess(t *testing.T, sc ReplayScenario, path string, shards int) (int, float64) {
	t.Helper()
	eng := buildDaemon(t, sc, func(c *Config) { c.Shards = shards })
	if err := eng.Restore(path); err != nil {
		t.Fatalf("restore: %v", err)
	}
	from := eng.Slot()
	eng.Start()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	replayInProcess(t, rep, eng, from, sc.T)
	if err := eng.Stop(); err != nil {
		t.Fatal(err)
	}
	return from, eng.CumReward()
}

// commitOps is a commit's file operations in order.
var commitOps = []string{"create", "write", "sync", "close", "rename", "syncdir"}

// TestCheckpointCommitFaults injects an error, and separately a crash, at
// every file operation of a checkpoint commit, at Shards 1, 2 and 4: for
// the second periodic commit of a fresh run (slot 80, the first at 40),
// and for the first commit (slot 90) after restoring the committed slot-80
// checkpoint testdata/legacy-slot80.ckpt. After each fault:
//
//   - the checkpoint is byte-identical to the previous one (fault at or
//     before the rename) or to the new one, and the directory holds it and
//     <path>.tmp exactly when a fault came between the create and the
//     rename;
//   - restoring it and serving the rest of the run ends bit-identically
//     to an uninterrupted run;
//   - after an error the engine serves on, its next commit succeeds, and
//     the counters saw the failure.
//
// A fault-free case per layout pins the operation order.
func TestCheckpointCommitFaults(t *testing.T) {
	sc := reshardScenario()
	uninterrupted := func() float64 {
		eng := buildDaemon(t, sc, nil)
		eng.Start()
		rep, err := NewReplayer(sc)
		if err != nil {
			t.Fatal(err)
		}
		replayInProcess(t, rep, eng, 0, sc.T)
		eng.Stop()
		return eng.CumReward()
	}()
	legacy, err := os.ReadFile(filepath.Join("testdata", "legacy-slot80.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	const renameOp = 4 // commitOps index

	for _, shards := range []int{1, 2, 4} {
		for _, restored := range []bool{false, true} {
			// A fresh run commits at 40 and then, faulted, at 80; a
			// restored one commits first, faulted, at 90.
			every, from, prevSlot, faultSlot, base := 40, 0, 40, 80, len(commitOps)
			if restored {
				every, from, prevSlot, faultSlot, base = 10, 80, 80, 90, 0
			}
			for k := -1; k < len(commitOps); k++ {
				for _, crash := range []bool{false, true} {
					if k < 0 && crash {
						continue
					}
					name := fmt.Sprintf("shards=%d/restored=%v/op=%d/crash=%v", shards, restored, k, crash)
					dir := t.TempDir()
					path := filepath.Join(dir, "lfscd.ckpt")
					if restored {
						if err := os.WriteFile(path, legacy, 0o600); err != nil {
							t.Fatal(err)
						}
					}
					fs := &faultFS{at: -1, crash: crash}
					if k >= 0 {
						fs.at = base + k
					}
					eng := buildDaemon(t, sc, func(c *Config) {
						c.Shards = shards
						c.CheckpointPath = path
						c.CheckpointEvery = every
					})
					eng.ckptFS = fs
					if restored {
						if err := eng.Restore(path); err != nil {
							t.Fatalf("%s: restore: %v", name, err)
						}
					}
					eng.Start()
					rep, err := NewReplayer(sc)
					if err != nil {
						t.Fatal(err)
					}
					commits := uint64(faultSlot-from) / uint64(every)
					replayInProcess(t, rep, eng, from, faultSlot)
					awaitCommits(t, eng, commits)

					// Up to the rename the previous checkpoint stays; after it
					// the new one is in place. At slot 80 either is the
					// committed legacy file, byte for byte.
					published := k < 0 || k > renameOp
					want := legacy
					switch {
					case published && restored:
						want = fs.writes[len(fs.writes)-1]
					case !published && !restored:
						want = fs.writes[0]
					}
					if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("%s: checkpoint is not the expected commit (published=%v, err %v):\n%s", name, published, err, got)
					}
					files := []string{"lfscd.ckpt"}
					if k > 0 && k <= renameOp {
						files = append(files, "lfscd.ckpt.tmp")
					}
					if names := dirNames(t, dir); !slices.Equal(names, files) {
						t.Fatalf("%s: directory holds %v, want %v", name, names, files)
					}
					wantSlot := prevSlot
					if published {
						wantSlot = faultSlot
					}
					if slot, cum := finishInProcess(t, sc, path, shards); slot != wantSlot || cum != uninterrupted {
						t.Fatalf("%s: restored at slot %d (want %d), finished at %x, uninterrupted %x",
							name, slot, wantSlot, cum, uninterrupted)
					}

					if k < 0 {
						if got := fs.ops[base:]; !slices.Equal(got, commitOps) {
							t.Fatalf("%s: commit operations %v, want %v", name, got, commitOps)
						}
					}
					if crash || k < 0 {
						eng.Abort()
						continue
					}
					// The engine serves on after the error, and its next
					// commit succeeds.
					replayInProcess(t, rep, eng, faultSlot, faultSlot+every)
					awaitCommits(t, eng, commits+1)
					eng.Abort()
					st := eng.Stats()
					if st.CheckpointFailures != 1 || st.Checkpoints != commits || st.CheckpointSlot != faultSlot+every {
						t.Fatalf("%s: after the next commit: %d failed, %d committed, slot %d; want 1, %d, %d",
							name, st.CheckpointFailures, st.Checkpoints, st.CheckpointSlot, commits, faultSlot+every)
					}
					if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, fs.writes[len(fs.writes)-1]) {
						t.Fatalf("%s: next commit not at the checkpoint path (err %v)", name, err)
					}
					if names := dirNames(t, dir); !slices.Equal(names, []string{"lfscd.ckpt"}) {
						t.Fatalf("%s: after the next commit the directory holds %v, want [lfscd.ckpt]", name, names)
					}
				}
			}
		}
	}
}

// TestNewEngineRefusesMissingCheckpointDir: a checkpoint path whose
// directory is missing, or is a file, is refused at NewEngine, with the
// directory in the error, instead of failing every commit of a daemon
// that already serves.
func TestNewEngineRefusesMissingCheckpointDir(t *testing.T) {
	sc := testScenario(40, 3)
	cfg, err := sc.EngineConfig()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "nodir"), file} {
		cfg.CheckpointPath = filepath.Join(bad, "lfscd.ckpt")
		if _, err := NewEngine(cfg); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("checkpoint in %s: NewEngine error %v, want one naming the directory", bad, err)
		}
	}
	cfg.CheckpointPath = filepath.Join(dir, "lfscd.ckpt")
	if _, err := NewEngine(cfg); err != nil {
		t.Fatalf("checkpoint in an existing directory: %v", err)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"file"}) {
		t.Fatalf("NewEngine wrote into the checkpoint directory: %v", names)
	}
}

// TestCheckpointFailuresCounted drives a failed periodic commit and a
// failed shutdown commit through the file-operation seam: /v1/stats,
// /lfsc/status and /metrics count them, the last committed slot stays
// where the last good commit put it, and Stop returns the shutdown
// commit's error.
func TestCheckpointFailuresCounted(t *testing.T) {
	sc := testScenario(40, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "lfscd.ckpt")
	eng := buildDaemon(t, sc, func(c *Config) {
		c.CheckpointPath = path
		c.CheckpointEvery = 10
		c.Metrics = obs.NewMetrics()
	})
	// The commit at 10 fails at its sync (operation 2), those at 20 and 30
	// succeed, and the shutdown commit, also at 30, fails at its rename.
	fs := &faultFS{at: 2}
	eng.ckptFS = fs
	srv, client := startDaemon(t, eng)
	defer srv.Close()
	rep, err := NewReplayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rep.Run(client, 0, 30, nil); err != nil {
		t.Fatal(err)
	}
	awaitCommits(t, eng, 3)

	var st Stats
	resp, err := http.Get("http://" + srv.Addr() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints != 2 || st.CheckpointFailures != 1 || st.CheckpointSlot != 30 {
		t.Fatalf("/v1/stats: %d committed, %d failed, slot %d; want 2, 1, 30",
			st.Checkpoints, st.CheckpointFailures, st.CheckpointSlot)
	}
	get := func(route string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + route)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if status := get("/lfsc/status"); !strings.Contains(status, "checkpoint: slot 30  commits 2  failed 1\n") {
		t.Fatalf("/lfsc/status lacks the checkpoint line:\n%s", status)
	}
	metrics := get("/metrics")
	for _, line := range []string{
		`lfsc_checkpoints_total{result="ok"} 2`,
		`lfsc_checkpoints_total{result="failed"} 1`,
		`lfsc_checkpoint_slot 30`,
	} {
		if !strings.Contains(metrics, line+"\n") {
			t.Fatalf("/metrics lacks %q:\n%s", line, metrics)
		}
	}

	fs.at = len(fs.ops) + 4 // the shutdown commit's rename
	err = eng.Stop()
	if err == nil || !strings.Contains(err.Error(), "injected rename fault") {
		t.Fatalf("Stop returned %v, want the shutdown commit's rename fault", err)
	}
	if st := eng.Stats(); st.CheckpointFailures != 2 || st.CheckpointSlot != 30 {
		t.Fatalf("after the failed shutdown commit: %d failed, slot %d; want 2, 30",
			st.CheckpointFailures, st.CheckpointSlot)
	}
}

// countFS is the os seam counting the fsyncs commits make: the temporary
// file's and the directory's.
type countFS struct {
	osFS
	fsyncs int
}

type countFile struct {
	ckptFile
	fs *countFS
}

func (c *countFS) create(name string) (ckptFile, error) {
	f, err := c.osFS.create(name)
	if err != nil {
		return nil, err
	}
	return countFile{f, c}, nil
}

func (c *countFS) syncDir(dir string) error {
	c.fsyncs++
	return c.osFS.syncDir(dir)
}

func (f countFile) Sync() error {
	f.fs.fsyncs++
	return f.ckptFile.Sync()
}

// BenchmarkCheckpointCommit times one checkpoint commit of a paper-shape
// learner (30 SCNs, c=20, ~2000 tasks per slot) warmed through 300
// replayed slots, at Shards 1 and 2, on the real file system of the test's
// temporary directory; fsyncs/op counts the fsyncs of one more commit,
// made after the timed ones through a counting seam.
func BenchmarkCheckpointCommit(b *testing.B) {
	for _, shards := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			sc := paperScenario(1<<20, 42)
			eng := buildDaemon(b, sc, func(c *Config) {
				c.Shards = shards
				c.CheckpointPath = filepath.Join(b.TempDir(), "lfscd.ckpt")
			})
			eng.Start()
			rep, err := NewReplayer(sc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rep.Run(&engineConn{eng: eng}, 0, 300, nil); err != nil {
				b.Fatal(err)
			}
			// Stop's own commit warms the buffers; the engine is stopped and
			// takes no more events, so the loop below owns it.
			if err := eng.Stop(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.checkpointNow(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			fs := &countFS{}
			eng.ckptFS = fs
			if err := eng.checkpointNow(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(fs.fsyncs), "fsyncs/op")
		})
	}
}
