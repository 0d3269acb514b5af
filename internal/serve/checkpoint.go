package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// engineCheckpoint is the daemon's on-disk state: the serving slot
// counter, the cumulative reward accumulator (so a resumed daemon
// continues the exact same float addition sequence — hex-float identity
// with an uninterrupted run), and the learner's own v2 checkpoint as an
// embedded document.
type engineCheckpoint struct {
	Version   int     `json:"version"`
	Slot      int     `json:"slot"`
	CumReward float64 `json:"cum_reward"`
	// Scenario is the digest of the active scenario timeline, when one
	// is attached: a resumed daemon must replay the identical dynamics
	// for bit-identical continuation, so Restore refuses a mismatch.
	// Empty for static-topology checkpoints (and pre-scenario files).
	Scenario string          `json:"scenario,omitempty"`
	Policy   json.RawMessage `json:"policy"`
}

const engineCheckpointVersion = 1

// shardCheckpoint is one shard's on-disk state in a sharded checkpoint
// generation: the shard's identity within the layout plus its partial
// learner document (which itself carries the owned SCN list).
type shardCheckpoint struct {
	Version int             `json:"version"`
	Shard   int             `json:"shard"`
	Shards  int             `json:"shards"`
	Slot    int             `json:"slot"`
	Policy  json.RawMessage `json:"policy"`
}

// checkpointManifest sits at CheckpointPath for a sharded engine and
// commits one generation of shard files: the shard files are written
// first under the new generation number and their directory is synced,
// then the manifest is renamed into place — the atomic commit point —
// and synced, and only then is the previous generation deleted. A crash
// anywhere leaves the manifest pointing at a complete generation.
// Distinguished from a legacy single-file engineCheckpoint by the
// presence of the shards field.
type checkpointManifest struct {
	Version    int     `json:"version"`
	Shards     int     `json:"shards"`
	Generation uint64  `json:"generation"`
	Slot       int     `json:"slot"`
	CumReward  float64 `json:"cum_reward"`
	// Scenario mirrors engineCheckpoint.Scenario (the manifest is the
	// commit point, so the digest lives here, not in the shard files).
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

// checkpointNow atomically writes the engine's current state to
// cfg.CheckpointPath: serialise to a temp file in the same directory,
// fsync, rename, fsync the directory. A crash mid-write leaves the
// previous checkpoint intact; a crash after the directory sync leaves
// the new one — never a torn file.
// A sharded engine writes one file per non-empty shard plus the manifest
// (see checkpointManifest for the commit order). Engine-goroutine only.
func (e *Engine) checkpointNow() error {
	if e.pol == nil {
		return e.checkpointShardedNow()
	}
	var pol bytes.Buffer
	if err := e.pol.Save(&pol); err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	cp := engineCheckpoint{
		Version:   engineCheckpointVersion,
		Slot:      e.pol.SlotsSeen(),
		CumReward: e.CumReward(),
		Scenario:  e.scenarioDigest(),
		Policy:    json.RawMessage(bytes.TrimSpace(pol.Bytes())),
	}
	data, err := json.Marshal(&cp)
	if err != nil {
		return fmt.Errorf("serve: checkpoint: %w", err)
	}
	if err := atomicWrite(e.cfg.CheckpointPath, data); err != nil {
		return err
	}
	return syncDir(filepath.Dir(e.cfg.CheckpointPath))
}

// checkpointShardedNow writes the next sharded generation. Shard files
// land and their directory is synced before the manifest rename (the
// commit), which is synced in turn before the previous generation is
// removed; a failure part-way leaves orphan files of the uncommitted
// generation, overwritten on the next attempt.
func (e *Engine) checkpointShardedNow() error {
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
	prev := e.ckptGen
	e.ckptGen = gen
	if err := syncDir(dir); err != nil {
		return err
	}
	if prev > 0 {
		for k := range e.shards {
			os.Remove(shardFilePath(path, prev, k)) //nolint:errcheck // best-effort GC of the superseded generation
		}
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

// Restore loads a daemon checkpoint into the engine. Call before Start.
// Both layouts are understood, with the engine's own layout deciding how
// they apply:
//
//   - A legacy single-file checkpoint loads into an unsharded engine as
//     always, and also into a sharded one (each shard's partial learner
//     takes its owned rows from the full document) — the upgrade path
//     from a pre-sharding deployment.
//   - A sharded manifest requires a sharded engine with the identical
//     shard count (the consistent-hash mapping then reproduces the owned
//     sets the shard files carry); restoring it into an unsharded engine
//     or a different shard count is an error, not a reshard.
//
// Unsharded restore validates fully before committing; sharded restore
// validates every shard file's metadata up front, but a learner-level
// rejection in a later shard can leave earlier shards loaded — callers
// treat any Restore error as fatal for the engine (lfscd exits), so no
// half-restored engine ever serves.
func (e *Engine) Restore(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	// Sniff the layout: only manifests carry a shards field.
	var sniff struct {
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(data, &sniff); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if sniff.Shards > 0 {
		return e.restoreSharded(path, data)
	}
	var cp engineCheckpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("serve: restore: %w", err)
	}
	if cp.Version != engineCheckpointVersion {
		return fmt.Errorf("serve: restore: checkpoint version %d, want %d", cp.Version, engineCheckpointVersion)
	}
	if cp.Slot < 0 {
		return fmt.Errorf("serve: restore: negative slot %d", cp.Slot)
	}
	if err := e.checkScenario(cp.Scenario); err != nil {
		return err
	}
	if e.pol == nil {
		// Legacy full document into a sharded engine: every shard loads
		// its owned rows from the same document.
		for k, sh := range e.shards {
			if sh.pol == nil {
				continue
			}
			if err := sh.pol.Load(bytes.NewReader(cp.Policy)); err != nil {
				return fmt.Errorf("serve: restore shard %d: %w", k, err)
			}
			if got := sh.pol.SlotsSeen(); got != cp.Slot {
				return fmt.Errorf("serve: restore: shard %d slot counter mismatch (engine %d, policy %d)", k, cp.Slot, got)
			}
		}
	} else {
		if err := e.pol.Load(bytes.NewReader(cp.Policy)); err != nil {
			return fmt.Errorf("serve: restore: %w", err)
		}
		if got := e.pol.SlotsSeen(); got != cp.Slot {
			return fmt.Errorf("serve: restore: slot counter mismatch (engine %d, policy %d)", cp.Slot, got)
		}
	}
	e.cumRewardBits.Store(math.Float64bits(cp.CumReward))
	e.slotAtomic.Store(int64(cp.Slot))
	return nil
}

// restoreSharded loads a manifest-committed generation of shard files.
func (e *Engine) restoreSharded(path string, data []byte) error {
	var man checkpointManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return fmt.Errorf("serve: restore: manifest: %w", err)
	}
	if man.Version != engineCheckpointVersion {
		return fmt.Errorf("serve: restore: manifest version %d, want %d", man.Version, engineCheckpointVersion)
	}
	if man.Slot < 0 {
		return fmt.Errorf("serve: restore: negative slot %d", man.Slot)
	}
	if err := e.checkScenario(man.Scenario); err != nil {
		return err
	}
	if e.pol != nil {
		return fmt.Errorf("serve: restore: sharded checkpoint (%d shards) into an unsharded engine — boot with -shards=%d",
			man.Shards, man.Shards)
	}
	if man.Shards != len(e.shards) {
		return fmt.Errorf("serve: restore: checkpoint has %d shards, engine has %d — resharding is not supported",
			man.Shards, len(e.shards))
	}
	// Read and structurally validate every shard file before any learner
	// state moves.
	docs := make([]*shardCheckpoint, len(e.shards))
	for k, sh := range e.shards {
		if sh.pol == nil {
			continue
		}
		buf, err := os.ReadFile(shardFilePath(path, man.Generation, k))
		if err != nil {
			return fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		var sc shardCheckpoint
		if err := json.Unmarshal(buf, &sc); err != nil {
			return fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		if sc.Version != engineCheckpointVersion || sc.Shard != k || sc.Shards != man.Shards {
			return fmt.Errorf("serve: restore shard %d: file identity mismatch (version %d, shard %d/%d)",
				k, sc.Version, sc.Shard, sc.Shards)
		}
		if sc.Slot != man.Slot {
			return fmt.Errorf("serve: restore shard %d: slot %d disagrees with manifest %d", k, sc.Slot, man.Slot)
		}
		docs[k] = &sc
	}
	for k, sh := range e.shards {
		if sh.pol == nil {
			continue
		}
		if err := sh.pol.Load(bytes.NewReader(docs[k].Policy)); err != nil {
			return fmt.Errorf("serve: restore shard %d: %w", k, err)
		}
		if got := sh.pol.SlotsSeen(); got != man.Slot {
			return fmt.Errorf("serve: restore: shard %d slot counter mismatch (manifest %d, policy %d)", k, man.Slot, got)
		}
	}
	e.cumRewardBits.Store(math.Float64bits(man.CumReward))
	e.slotAtomic.Store(int64(man.Slot))
	e.ckptGen = man.Generation
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
