package obs

import "sync/atomic"

// SlotSpan is the lifecycle record of one served slot: how long each
// stage of the batch→Decide→collect→Observe→checkpoint protocol took,
// including the per-shard breakdown of the two parallel stages — the
// record that makes shard stragglers and barrier stalls visible.
// Durations are nanoseconds.
type SlotSpan struct {
	// Seq is the ring's monotone publish counter (gaps in a snapshot
	// mean records were overwritten between reads).
	Seq uint64 `json:"seq"`
	// Slot is the slot index the record describes.
	Slot int `json:"slot"`
	// StartUnixNS is the wall-clock time the slot's batch closed
	// (decide started), unix nanoseconds.
	StartUnixNS int64 `json:"start_unix_ns"`

	Tasks    int `json:"tasks"`
	Assigned int `json:"assigned"`
	Reported int `json:"reported"`
	// TimedOut marks a slot whose report wait expired before every
	// assigned task reported (Observe ran with what arrived).
	TimedOut bool `json:"timed_out,omitempty"`

	// Stage durations, in protocol order. The compute stages (all but
	// WaitNS) saturate at ~4.29s — they are stored
	// as packed 32-bit halves in the ring (see slotRec) and real values
	// sit orders of magnitude below the cap.
	//
	// StageNS is the total ingest-staging time of the slot's batch —
	// context packing and per-shard coverage routing done at admission,
	// spread across the batch window rather than the close.
	StageNS   uint64 `json:"stage_ns,omitempty"`
	ViewNS    uint64 `json:"view_ns"`   // arena publish (the build work is in StageNS)
	DecideNS  uint64 `json:"decide_ns"` // whole decision (incl. merge)
	MergeNS   uint64 `json:"merge_ns,omitempty"`
	WaitNS    uint64 `json:"wait_ns"` // decide done → all reports in (batch open→close)
	ObserveNS uint64 `json:"observe_ns"`
	// ObserveOverlapNS is always zero: Observe runs under the engine's
	// lock, so no staging for slot t+1 can land inside it. The field is
	// kept so readers of the record's schema keep decoding it.
	ObserveOverlapNS uint64 `json:"observe_overlap_ns,omitempty"`
	CheckpointNS     uint64 `json:"checkpoint_ns,omitempty"`

	// Per-shard durations of the parallel stages (index = shard id;
	// empty at one shard, where the slot totals say it). A shard whose
	// entry dominates the others is the straggler serialising the
	// barrier; ShardStageNS attributes staging time to the submission's
	// home shard.
	ShardDecideNS  []uint64 `json:"shard_decide_ns,omitempty"`
	ShardObserveNS []uint64 `json:"shard_observe_ns,omitempty"`
	ShardStageNS   []uint64 `json:"shard_stage_ns,omitempty"`
}

// slotRec is one ring entry: SlotSpan flattened into atomics so that
// concurrent scrape readers need no lock and see no torn field (the
// race detector requires every shared word to be atomic; the seq field
// is a seqlock that additionally makes the whole record consistent).
//
// The fields are packed, not one-atomic-per-SlotSpan-field: an
// uncontended atomic store costs ~10ns on the target machines, and the
// publish path runs once per served slot inside the engine's slot
// budget, so halving the store count is what keeps an enabled ring
// within the serve_ns_per_slot_obs gate.
type slotRec struct {
	// seq is the seqlock word and the publish counter in one: the writer
	// stores 2n+1 before and 2n+2 after filling the record for publish
	// index n. An odd value marks a mid-write entry, an even value says
	// exactly which publish the fields belong to (n = seq/2-1, 0 =
	// never written), and no separate per-record sequence field is
	// needed.
	seq atomic.Uint64

	slot    atomic.Int64
	startNS atomic.Int64
	// counts packs tasks<<43 | assigned<<22 | reported<<1 | timedOut:
	// 21 bits per count, far above the structural per-slot task bound
	// SCNs·KMax — one store instead of four.
	counts atomic.Uint64
	// Duration words, two clamped uint32 nanosecond halves each (~4.29s
	// cap — these are compute stages, orders of magnitude shorter):
	// viewDecide = view<<32 | decide, mergeObserve = merge<<32 |
	// observe, ckptStage = checkpoint<<32 | stage. wait keeps a full
	// uint64: it spans the report wait, which is configured in
	// wall-clock seconds.
	viewDecide   atomic.Uint64
	mergeObserve atomic.Uint64
	ckptStage    atomic.Uint64
	wait         atomic.Uint64
	// shardDO packs each shard's decide<<32 | observe pair; shardStage
	// holds each shard's staging attribution as a full word.
	shardDO    []atomic.Uint64
	shardStage []atomic.Uint64
}

// clamp32 saturates a nanosecond duration into a packed uint32 half.
func clamp32(ns uint64) uint64 {
	if ns > 0xffffffff {
		return 0xffffffff
	}
	return ns
}

// clamp21 saturates a per-slot count into its 21-bit counts-word field.
func clamp21(v int) uint64 {
	if v < 0 {
		return 0
	}
	if v > 0x1fffff {
		return 0x1fffff
	}
	return uint64(v)
}

// SlotSink receives each published slot record (the optional JSONL
// sink). Called synchronously from the publisher — on the engine's slot
// path, under its lock — so sinks must be cheap or buffered; the span
// is only valid for the duration of the call.
type SlotSink interface {
	OnSlotSpan(*SlotSpan)
}

// SlotRing is a fixed-size, lock-free ring of the last N SlotSpans.
// There is exactly one writer (the serving engine, which publishes one
// record per slot); readers (the /lfsc/slots handler, tests) snapshot
// concurrently without blocking the writer. Every field of every entry
// is an atomic and each entry carries a seqlock version, so a snapshot
// is both race-clean and tear-free: a reader that observes an entry
// mid-write retries, and a torn read can never be returned.
//
// The publish path performs only atomic stores into pre-allocated
// entries — no allocation, no lock — so an enabled ring cannot disturb
// the wire path's 0 allocs/request pin, and (reading only clocks and
// counters) cannot perturb the learner: traced runs stay bit-identical.
type SlotRing struct {
	mask    uint64
	recs    []slotRec
	next    atomic.Uint64 // total records published
	scratch SlotSpan      // writer-owned staging record
	sink    SlotSink
}

// NewSlotRing builds a ring holding the last n records (rounded up to a
// power of two, minimum 8), each with room for a per-shard breakdown
// over shards shards (none at one shard).
func NewSlotRing(n, shards int) *SlotRing {
	size := 8
	for size < n {
		size <<= 1
	}
	r := &SlotRing{mask: uint64(size - 1), recs: make([]slotRec, size)}
	if shards > 1 {
		for i := range r.recs {
			r.recs[i].shardDO = make([]atomic.Uint64, shards)
			r.recs[i].shardStage = make([]atomic.Uint64, shards)
		}
		r.scratch.ShardDecideNS = make([]uint64, 0, shards)
		r.scratch.ShardObserveNS = make([]uint64, 0, shards)
		r.scratch.ShardStageNS = make([]uint64, 0, shards)
	}
	return r
}

// Begin hands the single writer the staging record for the next slot,
// cleared. Fill it, then Publish. Returns nil on a nil ring (callers
// gate on that).
func (r *SlotRing) Begin() *SlotSpan {
	if r == nil {
		return nil
	}
	s := &r.scratch
	sd, so, ss := s.ShardDecideNS[:0], s.ShardObserveNS[:0], s.ShardStageNS[:0]
	*s = SlotSpan{ShardDecideNS: sd, ShardObserveNS: so, ShardStageNS: ss}
	return s
}

// Publish commits the staging record into the ring (seqlocked atomic
// stores, no allocation) and forwards it to the sink, if any.
func (r *SlotRing) Publish() {
	if r == nil {
		return
	}
	s := &r.scratch
	n := r.next.Load()
	s.Seq = n
	rec := &r.recs[n&r.mask]
	rec.seq.Store(2*n + 1) // odd: readers retry
	rec.slot.Store(int64(s.Slot))
	rec.startNS.Store(s.StartUnixNS)
	counts := clamp21(s.Tasks)<<43 | clamp21(s.Assigned)<<22 | clamp21(s.Reported)<<1
	if s.TimedOut {
		counts |= 1
	}
	rec.counts.Store(counts)
	rec.viewDecide.Store(clamp32(s.ViewNS)<<32 | clamp32(s.DecideNS))
	rec.mergeObserve.Store(clamp32(s.MergeNS)<<32 | clamp32(s.ObserveNS))
	rec.ckptStage.Store(clamp32(s.CheckpointNS)<<32 | clamp32(s.StageNS))
	rec.wait.Store(s.WaitNS)
	for k := range rec.shardDO {
		var d, o, st uint64
		if k < len(s.ShardDecideNS) {
			d = s.ShardDecideNS[k]
		}
		if k < len(s.ShardObserveNS) {
			o = s.ShardObserveNS[k]
		}
		if k < len(s.ShardStageNS) {
			st = s.ShardStageNS[k]
		}
		rec.shardDO[k].Store(clamp32(d)<<32 | clamp32(o))
		rec.shardStage[k].Store(st)
	}
	rec.seq.Store(2*n + 2) // even: stable, and names the publish index
	r.next.Store(n + 1)
	if r.sink != nil {
		r.sink.OnSlotSpan(s)
	}
}

// SetSink installs the optional per-record sink (call before the writer
// starts publishing).
func (r *SlotRing) SetSink(s SlotSink) {
	if r != nil {
		r.sink = s
	}
}

// Published returns the total number of records published.
func (r *SlotRing) Published() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// Snapshot copies the ring's current records, oldest first, appending
// to into (reuse a buffer to bound scrape allocations). Entries being
// overwritten concurrently are retried a few times and skipped if still
// unstable — a snapshot never contains a torn record.
func (r *SlotRing) Snapshot(into []SlotSpan) []SlotSpan {
	if r == nil {
		return into
	}
	end := r.next.Load()
	size := uint64(len(r.recs))
	start := uint64(0)
	if end > size {
		start = end - size
	}
	for n := start; n < end; n++ {
		rec := &r.recs[n&r.mask]
		var s SlotSpan
		ok := false
		for tries := 0; tries < 8; tries++ {
			v1 := rec.seq.Load()
			if v1&1 != 0 || v1 == 0 {
				continue // mid-write (or never written — can't happen below next)
			}
			s.Seq = v1/2 - 1 // the publish index lives in the seqlock word
			s.Slot = int(rec.slot.Load())
			s.StartUnixNS = rec.startNS.Load()
			counts := rec.counts.Load()
			s.Tasks = int(counts >> 43)
			s.Assigned = int(counts >> 22 & 0x1fffff)
			s.Reported = int(counts >> 1 & 0x1fffff)
			s.TimedOut = counts&1 != 0
			vd := rec.viewDecide.Load()
			s.ViewNS, s.DecideNS = vd>>32, vd&0xffffffff
			mo := rec.mergeObserve.Load()
			s.MergeNS, s.ObserveNS = mo>>32, mo&0xffffffff
			cs := rec.ckptStage.Load()
			s.CheckpointNS, s.StageNS = cs>>32, cs&0xffffffff
			s.WaitNS = rec.wait.Load()
			if len(rec.shardDO) > 0 {
				s.ShardDecideNS = make([]uint64, len(rec.shardDO))
				s.ShardObserveNS = make([]uint64, len(rec.shardDO))
				s.ShardStageNS = make([]uint64, len(rec.shardDO))
				for k := range rec.shardDO {
					do := rec.shardDO[k].Load()
					s.ShardDecideNS[k] = do >> 32
					s.ShardObserveNS[k] = do & 0xffffffff
					s.ShardStageNS[k] = rec.shardStage[k].Load()
				}
			}
			if rec.seq.Load() == v1 {
				ok = true
				break
			}
		}
		// Keep only records still holding the slot we asked for: an entry
		// lapped by the writer mid-walk shows a newer Seq and is dropped
		// rather than surfaced out of order.
		if ok && s.Seq == n {
			into = append(into, s)
		}
	}
	return into
}
