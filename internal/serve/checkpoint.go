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
)

// engineCheckpointVersion versions the manifest and shard-file formats
// (and the legacy single-file checkpoints Restore still imports).
const engineCheckpointVersion = 1

// shardCheckpoint is one shard's on-disk state in a checkpoint
// generation: the shard's identity within the layout plus its partial
// learner document (which itself carries the owned SCN list).
type shardCheckpoint struct {
	Version int             `json:"version"`
	Shard   int             `json:"shard"`
	Shards  int             `json:"shards"`
	Slot    int             `json:"slot"`
	Policy  json.RawMessage `json:"policy"`
}

// checkpointManifest sits at CheckpointPath and commits one generation
// of shard files: the shard files are written first under the new
// generation number and their directory is synced, then the manifest is
// renamed into place — the atomic commit point — and synced, and only
// then is the previous generation deleted. A crash anywhere leaves the
// manifest pointing at a complete generation. CumReward is the reward
// accumulator, so a resumed daemon continues the exact same float
// addition sequence (hex-float identity with an uninterrupted run).
type checkpointManifest struct {
	Version    int     `json:"version"`
	Shards     int     `json:"shards"`
	Generation uint64  `json:"generation"`
	Slot       int     `json:"slot"`
	CumReward  float64 `json:"cum_reward"`
	// Scenario is the digest of the active scenario timeline, when one
	// is attached: a resumed daemon must replay the identical dynamics
	// for bit-identical continuation, so Restore refuses a mismatch.
	// Empty for static-topology checkpoints. The manifest is the commit
	// point, so the digest lives here, not in the shard files.
	Scenario string `json:"scenario,omitempty"`
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

// checkpointNow writes the engine's state to cfg.CheckpointPath as the
// next generation: one file per non-empty shard, written atomically
// (temp file, fsync, rename) and made durable by a directory sync before
// the manifest rename commits them, which is synced in turn before the
// previous generation is removed. A failure part-way leaves orphan files
// of the uncommitted generation, overwritten on the next attempt.
// Engine-goroutine only.
func (e *Engine) checkpointNow() error {
	path := e.cfg.CheckpointPath
	dir := filepath.Dir(path)
	gen := e.ckptGen + 1
	slot := e.slotsSeen()
	for k, sh := range e.shards {
		if sh.pol == nil {
			continue
		}
		var pol bytes.Buffer
		if err := sh.pol.Save(&pol); err != nil {
			return fmt.Errorf("serve: checkpoint shard %d: %w", k, err)
		}
		doc, err := json.Marshal(&shardCheckpoint{
			Version: engineCheckpointVersion,
			Shard:   k,
			Shards:  len(e.shards),
			Slot:    slot,
			Policy:  json.RawMessage(bytes.TrimSpace(pol.Bytes())),
		})
		if err != nil {
			return fmt.Errorf("serve: checkpoint shard %d: %w", k, err)
		}
		if err := atomicWrite(shardFilePath(path, gen, k), doc); err != nil {
			return err
		}
	}
	// The shard docs must be durable before the manifest names them.
	if err := syncDir(dir); err != nil {
		return err
	}
	data, err := json.Marshal(&checkpointManifest{
		Version:    engineCheckpointVersion,
		Shards:     len(e.shards),
		Generation: gen,
		Slot:       slot,
		CumReward:  e.CumReward(),
		Scenario:   e.scenarioDigest(),
	})
	if err != nil {
		return fmt.Errorf("serve: checkpoint manifest: %w", err)
	}
	if err := atomicWrite(path, data); err != nil {
		return err
	}
	// The manifest names gen from here on, so no later attempt may
	// rewrite gen's files; until the rename is durable, a crash can still
	// bring back the previous manifest, so its generation stays.
	prev, prevShards := e.ckptGen, e.ckptShards
	e.ckptGen, e.ckptShards = gen, len(e.shards)
	if err := syncDir(dir); err != nil {
		return err
	}
	// The superseded generation is removed by the shard count that wrote
	// it, which differs from the live one after an any-count restore.
	for k := 0; k < prevShards; k++ {
		os.Remove(shardFilePath(path, prev, k)) //nolint:errcheck // best-effort GC of the superseded generation
	}
	return nil
}

// atomicWrite writes data via a temp file in path's directory plus a
// rename, syncing the file before the swap.
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: checkpoint temp: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("serve: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: checkpoint rename: %w", err)
	}
	return nil
}

// syncDir fsyncs directory dir. A rename is durable only once its
// directory is, so each commit step syncs before the next relies on it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("serve: checkpoint dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("serve: checkpoint dir sync: %w", err)
	}
	return nil
}

// Restore loads a checkpoint into the engine, whatever shard count
// wrote it. Call before Start. Two inputs are understood:
//
//   - A manifest committing one generation of shard files. The writer's
//     layout is recomputed from (SCN, shard count) — the router is a pure
//     function of both — and every non-empty shard's file must exist,
//     identify itself as that shard of that generation, and carry exactly
//     that layout's owned SCNs, so the files cover each SCN once.
//   - A legacy single-file checkpoint: the manifest's header fields
//     without shards or generation, plus one full learner document under
//     "policy". Kept as the import path; nothing writes it any more.
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
		Policy json.RawMessage `json:"policy"` // legacy single-file checkpoints only
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
	if man.Shards > 0 {
		if docs, err = readGeneration(path, man, e.cfg.SCNs); err != nil {
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
	e.ckptGen, e.ckptShards = man.Generation, man.Shards
	return nil
}

// readGeneration reads the shard files of the generation man commits and
// returns their learner documents, each checked against the writer's
// layout over scns SCNs.
func readGeneration(path string, man *checkpointManifest, scns int) ([][]byte, error) {
	_, ownedOf := NewRouter(man.Shards).OwnerMap(scns)
	var docs [][]byte
	for k, owned := range ownedOf {
		if len(owned) == 0 {
			continue
		}
		buf, err := os.ReadFile(shardFilePath(path, man.Generation, k))
		if err != nil {
			return nil, fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		var sc shardCheckpoint
		if err := json.Unmarshal(buf, &sc); err != nil {
			return nil, fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		if sc.Version != engineCheckpointVersion || sc.Shard != k || sc.Shards != man.Shards {
			return nil, fmt.Errorf("serve: restore shard %d: file identity mismatch (version %d, shard %d/%d)",
				k, sc.Version, sc.Shard, sc.Shards)
		}
		if sc.Slot != man.Slot {
			return nil, fmt.Errorf("serve: restore shard %d: slot %d disagrees with manifest %d", k, sc.Slot, man.Slot)
		}
		if err := checkDoc(sc.Policy, man.Slot, owned); err != nil {
			return nil, fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		docs = append(docs, sc.Policy)
	}
	return docs, nil
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
