package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"lfsc/internal/core"
)

// engineCheckpointVersion versions the checkpoint header (and the
// manifest and shard-file formats of the generations Restore still
// imports).
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

// checkpointManifest is the header of a manifest generation, the layout
// earlier builds wrote: a small file at the checkpoint path naming one
// generation of per-shard files (<path>.g<gen>.s<k>), each a
// shardCheckpoint. Restore still imports it; the first commit after such
// an import removes the generation's files.
type checkpointManifest struct {
	checkpointHeader
	Shards     int    `json:"shards"`
	Generation uint64 `json:"generation"`
}

// shardCheckpoint is one shard's file in a manifest generation: the
// shard's identity within the layout plus its partial learner document
// (which itself carries the owned SCN list).
type shardCheckpoint struct {
	Version int             `json:"version"`
	Shard   int             `json:"shard"`
	Shards  int             `json:"shards"`
	Slot    int             `json:"slot"`
	Policy  json.RawMessage `json:"policy"`
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

// shardFilePath names shard k's file of generation gen for the manifest
// at path.
func shardFilePath(path string, gen uint64, k int) string {
	return fmt.Sprintf("%s.g%d.s%d", path, gen, k)
}

// checkpointNow commits the engine's state to cfg.CheckpointPath and
// counts the outcome. Engine-goroutine only.
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
	// <path> durably no longer names the imported generation; nothing
	// reads its files again, so a failed removal only leaves litter.
	for _, name := range e.ckptStale {
		_ = e.ckptFS.remove(name)
	}
	e.ckptStale = nil
	return nil
}

// ckptFS is the file operations of a checkpoint commit, in commit order:
// create <path>.tmp, write, sync and close it, rename it over <path>,
// sync the directory, then remove the files of an imported manifest
// generation. osFS is the one the engine runs; tests substitute one that
// fails or crashes at any step.
type ckptFS interface {
	create(name string) (ckptFile, error)
	rename(oldpath, newpath string) error
	syncDir(dir string) error
	remove(name string) error
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

func (osFS) remove(name string) error { return os.Remove(name) }

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

// Restore loads a checkpoint into the engine, whatever shard count
// wrote it. Call before Start. Two inputs are understood:
//
//   - The one-file checkpoint checkpointNow writes: the header plus one
//     full learner document under "policy".
//   - A manifest generation written by earlier builds: the header plus
//     the shard count and generation of its shard files. The writer's
//     layout is recomputed from (SCN, shard count) — the router is a pure
//     function of both — and every non-empty shard's file must exist,
//     identify itself as that shard of that generation, and carry exactly
//     that layout's owned SCNs, so the files cover each SCN once. When
//     path is also the engine's CheckpointPath, the first durable commit
//     removes those files.
//
// Every document is read and validated — header, scenario digest, slot,
// layout, and each learner row's values — before any learner state
// moves, and each live shard then takes its own rows from whichever
// document carries them. A refused checkpoint leaves the engine as it was.
func (e *Engine) Restore(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	var cp struct {
		checkpointManifest
		Policy json.RawMessage `json:"policy"` // one-file checkpoints only
	}
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	man := &cp.checkpointManifest
	if man.Version != engineCheckpointVersion {
		return fmt.Errorf("serve: restore: checkpoint version %d, want %d", man.Version, engineCheckpointVersion)
	}
	if man.Slot < 0 {
		return fmt.Errorf("serve: restore: negative slot %d", man.Slot)
	}
	if man.Shards > maxShards {
		return fmt.Errorf("serve: restore: checkpoint has %d shards, limit %d", man.Shards, maxShards)
	}
	if err := e.checkScenario(man.Scenario); err != nil {
		return err
	}
	docs := [][]byte{cp.Policy}
	var files []string
	if man.Shards > 0 {
		if docs, files, err = readGeneration(path, man, e.cfg.SCNs); err != nil {
			return err
		}
	} else if err := checkDoc(cp.Policy, man.Slot, nil); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	// The documents cover every SCN once and agree on the slot, and every
	// learner validates all of them before committing its own rows — so
	// if the first live learner accepts them, every other one does too.
	rs := make([]io.Reader, len(docs))
	for _, sh := range e.shards {
		if sh.pol == nil {
			continue
		}
		for i, doc := range docs {
			rs[i] = bytes.NewReader(doc)
		}
		if err := sh.pol.Load(rs...); err != nil {
			return fmt.Errorf("serve: restore shard %d: %w", sh.id, err)
		}
	}
	e.cumRewardBits.Store(math.Float64bits(man.CumReward))
	e.slotAtomic.Store(int64(man.Slot))
	e.ckptStale = nil
	if filepath.Clean(path) == filepath.Clean(e.cfg.CheckpointPath) {
		e.ckptStale = files
	}
	return nil
}

// readGeneration reads the shard files of the generation man commits and
// returns their learner documents, each checked against the writer's
// layout over scns SCNs, and the files' names.
func readGeneration(path string, man *checkpointManifest, scns int) (docs [][]byte, files []string, err error) {
	_, ownedOf := NewRouter(man.Shards).OwnerMap(scns)
	for k, owned := range ownedOf {
		if len(owned) == 0 {
			continue
		}
		name := shardFilePath(path, man.Generation, k)
		buf, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		var sc shardCheckpoint
		if err := json.Unmarshal(buf, &sc); err != nil {
			return nil, nil, fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		if sc.Version != engineCheckpointVersion || sc.Shard != k || sc.Shards != man.Shards {
			return nil, nil, fmt.Errorf("serve: restore shard %d: file identity mismatch (version %d, shard %d/%d)",
				k, sc.Version, sc.Shard, sc.Shards)
		}
		if sc.Slot != man.Slot {
			return nil, nil, fmt.Errorf("serve: restore shard %d: slot %d disagrees with manifest %d", k, sc.Slot, man.Slot)
		}
		if err := checkDoc(sc.Policy, man.Slot, owned); err != nil {
			return nil, nil, fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		docs = append(docs, sc.Policy)
		files = append(files, name)
	}
	return docs, files, nil
}

// checkDoc checks a learner document's slot counter and owned-SCN list
// (nil for a full document) against what the checkpoint header implies;
// core's Load validates the rest.
func checkDoc(doc json.RawMessage, slot int, owned []int) error {
	var hdr struct {
		T     int   `json:"t"`
		Owned []int `json:"owned"`
	}
	if err := json.Unmarshal(doc, &hdr); err != nil {
		return err
	}
	if hdr.T != slot {
		return fmt.Errorf("learner slot counter %d disagrees with checkpoint slot %d", hdr.T, slot)
	}
	if !slices.Equal(hdr.Owned, owned) {
		return fmt.Errorf("owns SCNs %v, layout gives %v", hdr.Owned, owned)
	}
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
