package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"lfsc/internal/core"
)

// engineCheckpointVersion versions the checkpoint header.
const engineCheckpointVersion = 1

// checkpointHeader opens every checkpoint file. CumReward is the reward
// accumulator, so a resumed daemon continues the exact same float addition
// sequence (hex-float identity with an uninterrupted run). Scenario is the
// digest of the active scenario timeline, when one is attached: a resumed
// daemon must replay the identical dynamics for bit-identical
// continuation, so Restore refuses a mismatch. Empty for static-topology
// checkpoints.
type checkpointHeader struct {
	Version   int     `json:"version"`
	Slot      int     `json:"slot"`
	CumReward float64 `json:"cum_reward"`
	Scenario  string  `json:"scenario,omitempty"`
}

// checkpointFile is the checkpoint at CheckpointPath: the header plus one
// full learner document, the same bytes at every shard count.
type checkpointFile struct {
	checkpointHeader
	Policy core.Checkpoint `json:"policy"`
}

// scenarioDigest is the engine's scenario identity for checkpoints
// (empty when serving the static topology).
func (e *Engine) scenarioDigest() string {
	if e.cfg.Scenario == nil {
		return ""
	}
	return e.cfg.Scenario.Digest()
}

// checkScenario validates a checkpoint's scenario digest against the
// engine's. An empty checkpoint digest is accepted into any engine (the
// upgrade path for static and pre-scenario checkpoints); anything else
// must match exactly — resuming under different dynamics would silently
// diverge from the uninterrupted run.
func (e *Engine) checkScenario(digest string) error {
	if digest == "" {
		return nil
	}
	if have := e.scenarioDigest(); have != digest {
		if have == "" {
			return fmt.Errorf("serve: restore: checkpoint was taken under scenario %s, engine has none — pass the same -scenario file", digest)
		}
		return fmt.Errorf("serve: restore: checkpoint scenario %s != engine scenario %s", digest, have)
	}
	return nil
}

// checkpointNow commits the engine's state to cfg.CheckpointPath and
// counts the outcome. Call under mu.
func (e *Engine) checkpointNow() error {
	slot := e.slotsSeen()
	if err := e.commitCheckpoint(slot); err != nil {
		e.ckptFailed.Add(1)
		return err
	}
	e.ckptSlot.Store(int64(slot))
	e.ckptOK.Add(1)
	return nil
}

// commitCheckpoint writes the checkpoint as one file. The header and the
// full learner document — every SCN's row taken, aliased, from the shard
// that owns it — are encoded in one pass into a buffer the engine keeps.
// The bytes go to <path>.tmp, which is synced before the rename over
// <path> publishes it, and the directory sync then makes the rename
// durable: two fsyncs at any shard count. A fault before the rename leaves
// the previous checkpoint at <path>, one after it the new one, and either
// way at most <path>.tmp beside it (a fixed name, truncated by the next
// commit).
func (e *Engine) commitCheckpoint(slot int) error {
	learners := make([]*core.LFSC, len(e.shards))
	for k, sh := range e.shards {
		learners[k] = sh.pol
	}
	cp := &e.ckpt
	if err := cp.Policy.Gather(learners...); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	cp.checkpointHeader = checkpointHeader{
		Version:   engineCheckpointVersion,
		Slot:      slot,
		CumReward: e.CumReward(),
		Scenario:  e.scenarioDigest(),
	}
	e.ckptBuf.Reset()
	if err := json.NewEncoder(&e.ckptBuf).Encode(cp); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	// Encode ends the document with a newline the file format never had.
	data := bytes.TrimSuffix(e.ckptBuf.Bytes(), []byte("\n"))

	path := e.cfg.CheckpointPath
	tmp := path + ".tmp"
	f, err := e.ckptFS.create(tmp)
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = e.ckptFS.rename(tmp, path)
	}
	if err == nil {
		err = e.ckptFS.syncDir(filepath.Dir(path))
	}
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	return nil
}

// ckptFS is the file operations of a checkpoint commit, in commit order:
// create <path>.tmp, write, sync and close it, rename it over <path>,
// then sync the directory. osFS is the one the engine runs; tests
// substitute one that fails or crashes at any step.
type ckptFS interface {
	create(name string) (ckptFile, error)
	rename(oldpath, newpath string) error
	syncDir(dir string) error
}

// ckptFile is a commit's open temporary file.
type ckptFile interface {
	io.Writer
	Sync() error
	Close() error
}

type osFS struct{}

func (osFS) create(name string) (ckptFile, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o600)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// syncDir fsyncs directory dir: a rename is durable only once its
// directory is.
func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Restore loads the checkpoint at path into the engine, whatever shard
// count wrote it. Call before Start. The file must be what checkpointNow
// writes: the header plus one full learner document under "policy", from
// which every live shard takes the rows it owns. Header, scenario digest,
// slot and every learner row's values are validated before any learner
// state moves, so a refused checkpoint leaves the engine as it was.
func (e *Engine) Restore(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	var cp struct {
		checkpointHeader
		Policy json.RawMessage `json:"policy"`
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if cp.Version != engineCheckpointVersion {
		return fmt.Errorf("serve: restore: checkpoint version %d, want %d", cp.Version, engineCheckpointVersion)
	}
	if cp.Policy == nil {
		// The manifest generations older builds wrote (a header naming
		// per-shard files) carry no learner document of their own; the
		// builds from 4b743f5 through cd688e2 read them and commit one file.
		return fmt.Errorf("serve: restore: %s holds no learner document, as a manifest generation does: restore it once with a build from 4b743f5 through cd688e2 and let it commit a one-file checkpoint", path)
	}
	if cp.Slot < 0 {
		return fmt.Errorf("serve: restore: negative slot %d", cp.Slot)
	}
	if err := e.checkScenario(cp.Scenario); err != nil {
		return err
	}
	var doc struct {
		T int `json:"t"`
	}
	if err := json.Unmarshal(cp.Policy, &doc); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if doc.T != cp.Slot {
		return fmt.Errorf("serve: restore: learner slot counter %d disagrees with checkpoint slot %d", doc.T, cp.Slot)
	}
	// Every learner validates the whole document before committing its
	// own rows, so if the first live learner accepts it, every other one
	// does too.
	for _, sh := range e.shards {
		if sh.pol == nil {
			continue
		}
		if err := sh.pol.Load(bytes.NewReader(cp.Policy)); err != nil {
			return fmt.Errorf("serve: restore shard %d: %w", sh.id, err)
		}
	}
	e.cumRewardBits.Store(math.Float64bits(cp.CumReward))
	e.slotAtomic.Store(int64(cp.Slot))
	return nil
}

// RestoreIfPresent restores from path when the file exists, and reports
// whether it did. A missing file is a fresh boot, not an error.
func (e *Engine) RestoreIfPresent(path string) (bool, error) {
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return false, nil
	}
	if err := e.Restore(path); err != nil {
		return false, err
	}
	return true, nil
}
